"""Unit tests: repro.sw.pruning — the pruning criterion in isolation, and
one tie it must keep on every engine."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.single_gpu import run_single_gpu
from repro.comm import list_segments
from repro.device import TESLA_M2090
from repro.errors import ConfigError
from repro.multigpu import ChainConfig, align_multi_gpu, align_multi_process
from repro.obs import MetricsRegistry
from repro.seq import BLOSUM62_SCORING, DNA_DEFAULT, Scoring, encode_protein
from repro.sw import compute_blocked, sw_score_naive
from repro.comm.scoreboard import LocalScoreboard
from repro.sw.blocks import BlockSpec, SlabSweep
from repro.sw.config import AlignConfig
from repro.sw.constants import DTYPE, NEG_INF, get_policy
from repro.sw.kernel import (BestCell, LiveWindow, build_profile,
                             local_boundaries, sweep_block)
from repro.sw.pruning import SEED_K, BlockPruner, Floor, seed_floor
from repro.workloads import HUMAN_CHIMP, insert_n_runs, mutate, random_dna


def spec(row0=100, col0=100, rows=32, cols=32):
    return BlockSpec(row0, row0 + rows, col0, col0 + cols)


class TestUpperBound:
    def test_bound_formula(self):
        p = BlockPruner(match=2)
        # entry max(5, 3, 0)=5; remaining min(1000-100, 500-100)=400
        assert p.upper_bound(spec(), 1000, 500, 5, 3) == 5 + 2 * 400

    def test_bound_clamps_negative_entries_to_zero(self):
        p = BlockPruner(match=1)
        assert p.upper_bound(spec(), 1000, 1000, -10**9, -10**9) == 900

    def test_remaining_uses_min_dimension(self):
        p = BlockPruner(match=1)
        assert p.upper_bound(spec(row0=900, col0=0), 1000, 1000, 0, 0) == 100


class TestShouldPrune:
    def test_prunes_when_bound_not_better(self):
        p = BlockPruner(match=1)
        s = spec(row0=990, col0=990, rows=5, cols=5)
        assert p.should_prune(s, 1000, 1000, 2, 2, best_score=100)
        assert p.blocks_pruned == 1

    def test_never_prunes_without_positive_best(self):
        p = BlockPruner(match=1)
        assert not p.should_prune(spec(), 1000, 1000, 0, 0, best_score=0)

    def test_keeps_a_block_whose_bound_ties_best(self):
        """A block that can reach the best exactly may hold an earlier
        tying cell, so only a bound below the best prunes."""
        p = BlockPruner(match=1)
        s = spec(row0=990, col0=990, rows=5, cols=5)
        assert not p.should_prune(s, 1000, 1000, 2, 2, best_score=12)
        assert p.should_prune(s, 1000, 1000, 2, 2, best_score=13)

    def test_never_prunes_when_bound_exceeds_best(self):
        p = BlockPruner(match=1)
        assert not p.should_prune(spec(row0=0, col0=0), 1000, 1000, 0, 0, best_score=100)

    def test_ratio_accounting(self):
        p = BlockPruner(match=1)
        s_near_end = spec(row0=995, col0=995, rows=4, cols=4)
        s_at_start = spec(row0=0, col0=0)
        p.should_prune(s_near_end, 1000, 1000, 0, 0, best_score=50)
        p.should_prune(s_at_start, 1000, 1000, 0, 0, best_score=50)
        assert p.blocks_checked == 2
        assert p.blocks_pruned == 1

    def test_fresh_pruner_counts_nothing(self):
        p = BlockPruner(match=1)
        assert (p.blocks_checked, p.blocks_pruned) == (0, 0)

    def test_corner_entry_counts(self):
        """A path may enter through the diagonal corner, which can exceed
        every border cell beside it: the bound must include it."""
        p = BlockPruner(match=1)
        s = spec(row0=2, col0=2, rows=1, cols=1)
        assert p.upper_bound(s, 3, 3, 1, 1, corner=2) == 3
        assert not p.should_prune(s, 3, 3, 1, 1, best_score=2, corner=2)

    @pytest.mark.parametrize("kernel", ["scalar", "batched"])
    def test_pruned_sweep_keeps_corner_entered_optimum(self, kernel):
        """With mismatch 0 the corner H(1, 1) = 2 tops both borders of
        block (2, 2), whose true H is 3; a corner-blind bound of 2 pruned
        it and reported 2."""
        import numpy as np

        from repro.seq import Scoring
        from repro.sw import compute_blocked, sw_score_naive

        codes = np.array([2, 0, 0], dtype=np.uint8)
        scoring = Scoring(match=1, mismatch=0, gap_open=0, gap_extend=1)
        out = compute_blocked(codes, codes, scoring, block_rows=1,
                              block_cols=1, pruning=True, kernel=kernel)
        want, wi, wj = sw_score_naive(codes, codes, scoring)
        assert (out.best.score, out.best.row, out.best.col) == (want, wi, wj)


#: A pair whose best score 6 ends at (19, 30) and also at (20, 10).  A
#: criterion that pruned blocks whose bound only tied the best skipped
#: (19, 30)'s block and reported (20, 10).
TIE_A = np.array([1, 1, 0, 0, 0, 2, 0, 2, 2, 2, 1, 0, 0, 0, 0, 2, 1, 1, 2, 0,
                  0, 1, 2, 1, 0, 1, 0, 2, 1, 2, 0, 0, 1, 0, 1], dtype=np.uint8)
TIE_B = np.array([2, 2, 2, 2, 1, 2, 1, 1, 2, 0, 0, 2, 2, 1, 2, 1, 2, 2, 1, 0,
                  1, 2, 0, 1, 2, 0, 2, 1, 1, 2, 0], dtype=np.uint8)


class TestTieKeepsEndCell:
    """Pruning on reports the end cell of pruning off on a tie, on every
    engine (the pair and shapes are ones the ``<=`` criterion broke)."""

    @pytest.mark.parametrize("kernel", ["scalar", "compiled", "batched"])
    def test_compute_blocked(self, kernel):
        out = compute_blocked(TIE_A, TIE_B, DNA_DEFAULT, block_rows=8,
                              block_cols=2, pruning=True, kernel=kernel)
        assert (out.best.score, out.best.row, out.best.col) == (6, 19, 30)
        assert out.tally.blocks_pruned > 0

    @pytest.mark.parametrize("kernel", ["scalar", "batched"])
    def test_simulated_chain(self, kernel):
        res = align_multi_gpu(TIE_A, TIE_B, DNA_DEFAULT, [TESLA_M2090] * 6,
                              config=ChainConfig(block_rows=4, kernel=kernel,
                                                 pruning=True))
        assert (res.score, res.best.row, res.best.col) == (6, 19, 30)
        assert res.blocks_pruned > 0

    def test_process_engine(self):
        res = align_multi_process(TIE_A, TIE_B, DNA_DEFAULT, workers=6,
                                  block_rows=4, pruning=True)
        assert (res.score, res.best.row, res.best.col) == (6, 19, 30)
        assert res.blocks_pruned > 0


class TestValidation:
    @pytest.mark.parametrize("match", [0, -1])
    def test_bad_match_rejected(self, match):
        with pytest.raises(ConfigError):
            BlockPruner(match=match)


scorings = st.builds(
    Scoring, match=st.integers(1, 4), mismatch=st.integers(-4, 0),
    gap_open=st.integers(0, 4), gap_extend=st.integers(1, 3))


@st.composite
def seed_pairs(draw):
    """Random or homolog pairs over 2-4 letters, with indels and N runs."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    letters = draw(st.integers(2, 4))
    a = rng.integers(0, letters, draw(st.integers(1, 60))).astype(np.uint8)
    if draw(st.booleans()):
        b = a.copy()
        for _ in range(draw(st.integers(0, 4))):
            at = int(rng.integers(0, b.size + 1))
            if rng.random() < 0.5 or b.size < 4:
                ins = rng.integers(0, letters, int(rng.integers(1, 4)))
                b = np.insert(b, at, ins.astype(np.uint8))
            else:
                b = np.delete(b, slice(at, at + int(rng.integers(1, 4))))
        b[rng.random(b.size) < 0.05] = rng.integers(0, letters)
    else:
        b = rng.integers(0, letters, draw(st.integers(1, 60))).astype(np.uint8)
    for codes in (a, b):
        if draw(st.booleans()):
            at = int(rng.integers(0, codes.size))
            codes[at:at + int(rng.integers(1, 6))] = 4  # an N run
    return a, b


class TestSeedFloor:
    """``seed_floor`` is the score of a real alignment: never above the
    exact score, whatever the pair, scoring or anchor length."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(pair=seed_pairs(), scoring=scorings, k=st.integers(1, 6))
    def test_floor_never_exceeds_exact(self, pair, scoring, k):
        a, b = pair
        floor = seed_floor(a, b, scoring, _k=k)
        assert floor.source == "anchor-chain"
        assert 0 <= floor.score <= sw_score_naive(a, b, scoring)[0]

    def test_identical_pair_floors_at_the_exact_score(self, rng):
        a = random_dna(300, rng=rng)
        floor = seed_floor(a, a, DNA_DEFAULT)
        assert floor.score == 300 * DNA_DEFAULT.match
        assert floor.anchors >= 300 - SEED_K  # nearly every 12-mer is unique

    def test_homolog_with_n_runs_floors_near_exact(self, rng):
        a = insert_n_runs(random_dna(2000, rng=rng), rng=rng, run_count=3,
                          run_fraction=0.06)
        b = mutate(a, HUMAN_CHIMP, rng=rng)
        exact = compute_blocked(a, b, DNA_DEFAULT, block_rows=512,
                                block_cols=512).best.score
        floor = seed_floor(a, b, DNA_DEFAULT)
        assert 0.9 * exact <= floor.score <= exact

    def test_too_short_for_an_anchor(self):
        codes = np.array([0, 1, 2], dtype=np.uint8)
        floor = seed_floor(codes, codes, DNA_DEFAULT)
        assert (floor.score, floor.source, floor.anchors) == \
            (0, "anchor-chain", 0)

    def test_protein_scoring_gets_no_floor(self):
        a = encode_protein("MKVLAWRHEAGTKLMNPQRSTVWYACDEFGHIKL")
        assert seed_floor(a, a, BLOSUM62_SCORING) == Floor()

    def test_memory_stays_off_the_long_sequence(self, rng):
        """Anchors are looked up chunk by chunk: the peak does not grow
        with the 2 Mbp reference (an int64 array over it is 16 MiB)."""
        b = random_dna(2_000_000, rng=rng)
        a = mutate(b[1_200_000:1_201_000], HUMAN_CHIMP, rng=rng)
        tracemalloc.start()
        try:
            floor = seed_floor(a, b, DNA_DEFAULT)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert floor.score > 900
        assert peak < 4 * 2**20


def sweep_slabs(a, b, scoring, *, floor, block_rows, slabs, kernel="scalar",
                dp=None):
    """The chain engines' block-row step over *slabs* column slabs, left
    to right in every block row, from a scoreboard at *floor*: returns
    the best cell and the cells the windows swept."""
    m, n = a.size, b.size
    profile = build_profile(b, scoring)
    board = LocalScoreboard(floor)
    edges = [n * g // slabs for g in range(slabs + 1)]
    sweepers = [SlabSweep(AlignConfig(kernel=kernel), scoring,
                          profile[:, c0:c1], c0, c1, m=m, n_cols=n, dp=dp,
                          scoreboard=board, slot=g)
                for g, (c0, c1) in enumerate(zip(edges, edges[1:]))]
    for r0 in range(0, m, block_rows):
        r1 = min(m, r0 + block_rows)
        border = (np.zeros(r1 - r0, dtype=DTYPE),
                  np.full(r1 - r0, NEG_INF, dtype=DTYPE), 0)
        for sweeper in sweepers:
            result, _ = sweeper.step(r0, r1, a[r0:r1], *border)
            border = sweeper.advance(result, r0)
    best = BestCell.none()
    for sweeper in sweepers:
        if sweeper.best.better_than(best):
            best = sweeper.best
    return best, sum(sweeper.cells_swept for sweeper in sweepers)


HOT = Scoring(match=1500, mismatch=-3, gap_open=3, gap_extend=2)
GAPPY = Scoring(match=2, mismatch=-3, gap_open=0, gap_extend=1)


class TestLiveWindow:
    """A kept slab row is one sweep over its live window: the cells that
    can still reach the best.  The answer stays the oracle's."""

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        letters=st.integers(min_value=2, max_value=3),
        change=st.sampled_from([None, 0.0, 0.1, 0.3]),
        m=st.integers(min_value=1, max_value=30),
        n=st.integers(min_value=1, max_value=40),
        block_rows=st.integers(min_value=1, max_value=11),
        slabs=st.integers(min_value=1, max_value=3),
        scoring=st.sampled_from([DNA_DEFAULT, HOT, GAPPY]),
        dp_dtype=st.sampled_from(["int32", "int16"]),
        floor_share=st.one_of(st.just(1.0),
                              st.floats(min_value=0.0, max_value=1.0)),
        kernel=st.sampled_from(["scalar", "compiled"]),
    )
    def test_windowed_slabs_match_the_oracle(self, seed, letters, change,
                                             m, n, block_rows, slabs,
                                             scoring, dp_dtype, floor_share,
                                             kernel):
        """Tie-heavy random pairs, or homologs with a share *change* of
        substitutions and indels; floors anywhere in [0, opt] (a low one
        keeps whole rows live for fresh starts, one at opt leaves only
        the optimal paths live); live left borders between slabs; cheap
        gaps that make gapped paths optimal; and, under the match-1500
        scheme, int16 sweeps that escalate."""
        rng = np.random.default_rng(seed)
        a = rng.integers(0, letters, m).astype(np.uint8)
        if change is None:
            b = rng.integers(0, letters, n).astype(np.uint8)
        else:
            b = a.copy()
            for _ in range(int(change * m) + 1):
                at = int(rng.integers(0, b.size + 1))
                if rng.random() < 0.5:
                    b = np.insert(b, at, rng.integers(0, letters, 2))
                elif b.size > 2:
                    b = np.delete(b, slice(at, at + 2))
            b = b.astype(np.uint8)
            b[rng.random(b.size) < change] = rng.integers(0, letters)
            n = b.size
        score, row, col = sw_score_naive(a, b, scoring)
        floor = int(floor_share * score)
        dp = get_policy(dp_dtype) if dp_dtype != "int32" else None
        best, cells = sweep_slabs(a, b, scoring, floor=floor,
                                  block_rows=block_rows,
                                  slabs=min(slabs, n), kernel=kernel, dp=dp)
        if score:
            assert (best.score, best.row, best.col) == (score, row, col)
        else:
            assert best.row < 0
        assert 0 <= cells <= m * n

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           scoring=st.sampled_from([DNA_DEFAULT, GAPPY]))
    def test_windowed_borders_are_lower_bounds(self, seed, scoring):
        """The invariant the exactness proof rests on: every border a
        windowed sweep emits is at most the full sweep's (a dead cell's
        restart value, never a stale one from two rows up)."""
        rng = np.random.default_rng(seed)
        rows, cols = int(rng.integers(1, 20)), int(rng.integers(1, 41))
        a = rng.integers(0, 3, rows).astype(np.uint8)
        b = rng.integers(0, 3, cols).astype(np.uint8)
        h_top = rng.integers(0, 12, cols).astype(DTYPE)
        f_top = np.maximum(h_top - scoring.gap_first,
                           rng.integers(-20, 8, cols)).astype(DTYPE)
        h_left = (rng.integers(0, 12, rows)
                  * (rng.random(rows) < 0.3)).astype(DTYPE)
        e_left = np.full(rows, NEG_INF, dtype=DTYPE)
        args = (a, build_profile(b, scoring), h_top, f_top, h_left, e_left,
                int(rng.integers(0, 12)), scoring)
        window = LiveWindow(best=int(rng.integers(0, 30)),
                            match=scoring.match,
                            rows_left=rows - 1 + int(rng.integers(0, 12)),
                            cols_left=cols - 1 + int(rng.integers(0, 12)),
                            lo=0, hi=cols)
        got, want = sweep_block(*args, window=window), sweep_block(*args)
        for name in ("h_bottom", "f_bottom", "h_right", "e_right"):
            assert (getattr(got, name) <= getattr(want, name)).all(), name
        assert got.best.score <= want.best.score
        # The next block row reads restart values outside the live hull.
        lo, hi = got.live
        outside = np.r_[0:lo, hi:cols]
        assert (got.h_bottom[outside] == 0).all()
        assert (got.f_bottom[outside] == NEG_INF).all()

    def test_a_gap_entering_from_the_left_widens_the_window(self):
        """The block's best path enters at row 8 from a live left border
        and runs on in a horizontal gap past the one column that border
        opens: the E leaving the window must widen it, or (9, 2) scores
        less than 22."""
        h_left = np.array([17, 0, 15, 0, 0, 7, 10, 0, 22, 1], dtype=DTYPE)
        args = (np.array([2, 0, 0, 1, 0, 0, 1, 0, 1, 1], dtype=np.uint8),
                build_profile(np.array([2, 0, 1], dtype=np.uint8), GAPPY),
                np.array([3, 0, 0], dtype=DTYPE),
                np.array([2, -1, -1], dtype=DTYPE), h_left,
                np.maximum(h_left - 1, -1).astype(DTYPE), 6, GAPPY)
        window = LiveWindow(best=21, match=GAPPY.match, rows_left=12,
                            cols_left=4, lo=0, hi=3)
        want = sweep_block(*args).best
        assert want == BestCell(22, 9, 2)
        assert sweep_block(*args, window=window).best == want

    def test_homolog_sweeps_a_band(self, rng):
        """On a homolog square from a floor near the optimum, the window
        follows the diagonal: a small share of the cells is swept."""
        a = random_dna(600, rng=rng)
        b = mutate(a, HUMAN_CHIMP, rng=rng)
        floor = seed_floor(a, b, DNA_DEFAULT).score
        want = sw_score_naive(a, b, DNA_DEFAULT)
        best, cells = sweep_slabs(a, b, DNA_DEFAULT, floor=floor,
                                  block_rows=64, slabs=2)
        assert (best.score, best.row, best.col) == want
        assert cells < 0.25 * a.size * b.size

    def test_wide_slabs_prune_cells(self, rng):
        """A strip whose slabs are thousands of columns wide sweeps a
        band around the homolog, keeps the exact answer, and counts each
        swept row's window cells, in the result and in the metrics."""
        b = random_dna(30_000, rng=rng)
        a = mutate(b[20_000:20_200], HUMAN_CHIMP, rng=rng)
        want = compute_blocked(a, b, DNA_DEFAULT, block_rows=64,
                               block_cols=4096).best
        sim_reg, real_reg = MetricsRegistry(), MetricsRegistry()
        sim = align_multi_gpu(a, b, DNA_DEFAULT, [TESLA_M2090] * 2,
                              config=ChainConfig(block_rows=40),
                              metrics=sim_reg)
        real = align_multi_process(a, b, DNA_DEFAULT, workers=2,
                                   block_rows=40, metrics=real_reg)
        for res, reg in ((sim, sim_reg), (real, real_reg)):
            assert res.best == want
            assert res.floor.source == "anchor-chain"
            assert res.blocks_checked == 5 * 2  # block rows x slabs
            computed = reg.counter("blocks_computed").total()
            assert reg.counter("blocks_pruned").total() == res.blocks_pruned
            assert computed + res.blocks_pruned == res.blocks_checked
            assert reg.counter("cells_computed").total() == res.cells_swept
            assert 0 < res.cells_swept < 0.2 * a.size * b.size

    def test_rows_nothing_can_prune_are_full_sweeps(self, rng):
        """A dissimilar pair's floor is far below what a fresh start can
        still reach, so every block row well above the bottom is swept
        whole but for its last columns, and its bottom row there is the
        unpruned sweep's."""
        a, b = random_dna(256, rng=rng), random_dna(20_000, rng=rng)
        profile = build_profile(b, DNA_DEFAULT)
        floor = seed_floor(a, b, DNA_DEFAULT).score

        def slab(pruning):
            return SlabSweep(AlignConfig(pruning=pruning), DNA_DEFAULT,
                             profile, 0, b.size, m=a.size, n_cols=b.size,
                             scoreboard=LocalScoreboard(floor))

        pruned, plain = slab(True), slab(False)
        # No score tops 64 on this pair, so from these columns a fresh
        # start can still reach the best down to 64 rows above the end.
        keep = b.size - 64
        for r0 in range(0, a.size, 64):
            r1 = r0 + 64
            left = (np.zeros(64, dtype=DTYPE),
                    np.full(64, NEG_INF, dtype=DTYPE), 0)
            got, swept = pruned.step(r0, r1, a[r0:r1], *left)
            want, _ = plain.step(r0, r1, a[r0:r1], *left)
            if r1 < a.size:
                assert swept[0] >= 64 * keep
                np.testing.assert_array_equal(got.h_bottom[:keep],
                                              want.h_bottom[:keep])
            pruned.advance(got, r0)
            plain.advance(want, r0)
        assert pruned.best == plain.best and pruned.best.score < 64
        assert pruned.tally().blocks_checked == 4
        assert pruned.tally().blocks_pruned == 0

    def test_window_needs_a_local_sweep(self):
        codes = np.zeros(4, dtype=np.uint8)
        window = LiveWindow(best=3, match=1, rows_left=3, cols_left=3,
                            lo=0, hi=4)
        with pytest.raises(ConfigError):
            sweep_block(codes, build_profile(codes, DNA_DEFAULT),
                        *local_boundaries(4, 4), DNA_DEFAULT, local=False,
                        window=window)


class TestPruningByDefault:
    """Every engine prunes by default, from a seeded floor, and still
    returns the oracle's score and end cell."""

    def test_default_is_on_everywhere(self, rng):
        a = random_dna(120, rng=rng)
        b = mutate(a, HUMAN_CHIMP, rng=rng)
        want = sw_score_naive(a, b, DNA_DEFAULT)
        single = run_single_gpu(a, b, DNA_DEFAULT, TESLA_M2090, block_rows=16)
        sim = align_multi_gpu(a, b, DNA_DEFAULT, [TESLA_M2090] * 3,
                              config=ChainConfig(block_rows=16))
        real = align_multi_process(a, b, DNA_DEFAULT, workers=3,
                                   block_rows=16)
        for res in (single, sim, real):
            assert (res.score, res.best.row, res.best.col) == want
            assert res.blocks_checked > 0
            assert res.floor.source == "anchor-chain"
            assert 0 < res.floor.score <= want[0]
        assert sim.config.pruning and real.config.pruning

    @pytest.mark.parametrize("block_rows", [3, 4096])
    def test_tie_pair(self, block_rows):
        sim = align_multi_gpu(TIE_A, TIE_B, DNA_DEFAULT, [TESLA_M2090] * 2,
                              config=ChainConfig(block_rows=block_rows))
        real = align_multi_process(TIE_A, TIE_B, DNA_DEFAULT, workers=2,
                                   block_rows=block_rows,
                                   start_method="fork")
        for res in (sim, real):
            assert (res.score, res.best.row, res.best.col) == (6, 19, 30)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        letters=st.integers(min_value=2, max_value=3),
        m=st.integers(min_value=8, max_value=48),
        n=st.integers(min_value=8, max_value=48),
        block_rows=st.integers(min_value=1, max_value=11),
        workers=st.integers(min_value=1, max_value=3),
    )
    def test_tie_heavy_pairs_keep_end_cell(self, seed, letters, m, n,
                                           block_rows, workers):
        """Two- or three-letter pairs are full of tying end cells, and
        every dead cell is a chance to skip the earliest one."""
        rng = np.random.default_rng(seed)
        a = rng.integers(0, letters, m).astype(np.uint8)
        b = rng.integers(0, letters, n).astype(np.uint8)
        want = sw_score_naive(a, b, DNA_DEFAULT)
        sim = align_multi_gpu(a, b, DNA_DEFAULT, [TESLA_M2090] * workers,
                              config=ChainConfig(block_rows=block_rows))
        real = align_multi_process(a, b, DNA_DEFAULT, workers=workers,
                                   block_rows=block_rows,
                                   start_method="fork")
        for res in (sim, real):
            assert (res.score, res.best.row, res.best.col) == want

    def test_worker_killed_mid_run(self, rng):
        """A recovered run under default pruning, resumed from windowed
        rows' checkpoints, is exact."""
        a = random_dna(160, rng=rng)
        b = mutate(a, HUMAN_CHIMP, rng=rng)
        want = sw_score_naive(a, b, DNA_DEFAULT)
        res = align_multi_process(
            a, b, DNA_DEFAULT, workers=3, block_rows=8, timeout_s=120.0,
            border_timeout_s=2.0, max_restarts=1, restart_backoff_s=0.01,
            start_method="fork", _fault=(1, 9))
        assert res.restarts == 1
        assert (res.score, res.best.row, res.best.col) == want
        assert list_segments() == []

    def test_protein_pair_is_exact_with_no_floor(self, rng):
        a = rng.integers(0, 20, 90).astype(np.uint8)
        b = np.concatenate([a[10:70], rng.integers(0, 20, 30).astype(np.uint8)])
        want = sw_score_naive(a, b, BLOSUM62_SCORING)
        # Default settings: dp_dtype "auto" judges the matrix's worst
        # entry, and the chains' profile cache keys on the matrix.
        single = run_single_gpu(a, b, BLOSUM62_SCORING, TESLA_M2090,
                                block_rows=8)
        sim = align_multi_gpu(a, b, BLOSUM62_SCORING, [TESLA_M2090] * 2,
                              config=ChainConfig(block_rows=8))
        real = align_multi_process(a, b, BLOSUM62_SCORING, workers=2,
                                   block_rows=8)
        # auto finds no statistics for the matrix and escalates to exact.
        auto = align_multi_gpu(a, b, BLOSUM62_SCORING, [TESLA_M2090] * 2,
                               config=ChainConfig(block_rows=8, mode="auto"))
        assert auto.tier == "exact"
        assert (auto.score, auto.best.row, auto.best.col) == want
        for res in (single, sim, real):
            assert res.floor == Floor()
            assert (res.score, res.best.row, res.best.col) == want
            assert res.blocks_checked > 0
