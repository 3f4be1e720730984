"""Unit tests: repro.sw.pruning — the pruning criterion in isolation, and
one tie it must keep on every engine."""

from __future__ import annotations

import tracemalloc
from unittest import mock

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
from repro.sw import blocks, compute_blocked, sw_score_naive
from repro.comm.scoreboard import LocalScoreboard
from repro.sw.blocks import BlockSpec, SlabSweep, sub_block_edges
from repro.sw.config import AlignConfig
from repro.sw.constants import DTYPE, NEG_INF
from repro.sw.kernel import build_profile
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
        assert out.blocks_pruned > 0

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


class TestSubBlocks:
    @pytest.mark.parametrize("w,width,parts", [
        (1, 4096, 1), (4096, 4096, 1), (4097, 4096, 2), (250_000, 4096, 62),
        (10, 3, 4)])
    def test_near_equal_widths(self, w, width, parts):
        with mock.patch.object(blocks, "SUB_BLOCK_COLS", width):
            edges = sub_block_edges(w)
        sizes = np.diff(edges)
        assert edges[0] == 0 and edges[-1] == w and sizes.size == parts
        assert sizes.max() <= width and sizes.max() - sizes.min() <= 1

    def test_wide_slabs_prune_sub_blocks(self, rng):
        """A strip whose slabs are many sub-blocks wide prunes most of
        them, keeps the exact answer, and counts every sub-block once:
        swept or pruned, in the result and in the metrics."""
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
            assert res.blocks_checked == 5 * 2 * 4  # rows x slabs x subs
            assert res.pruned_ratio > 0.5
            computed = reg.counter("blocks_computed").total()
            assert reg.counter("blocks_pruned").total() == res.blocks_pruned
            assert computed + res.blocks_pruned == res.blocks_checked
            assert reg.counter("cells_computed").total() < \
                a.size * b.size * (1 - res.pruned_ratio) + 40 * 3750


    def test_rows_nothing_can_prune_are_one_sweep(self, rng):
        """A sub-block the bound keeps even with a zero left border joins
        the sweep before it, so a dissimilar pair's slab row, where no
        sub-block can be pruned, is one sweep, as without pruning."""
        a, b = random_dna(200, rng=rng), random_dna(20_000, rng=rng)
        profile = build_profile(b, DNA_DEFAULT)

        def slab(pruning):
            floor = seed_floor(a, b, DNA_DEFAULT).score
            return SlabSweep(AlignConfig(pruning=pruning), DNA_DEFAULT,
                             profile, 0, b.size, m=a.size, n_cols=b.size,
                             scoreboard=LocalScoreboard(floor))

        pruned, plain = slab(True), slab(False)
        calls = []
        sweep = pruned.sweep
        pruned.sweep = lambda *args: calls.append(args[-2:]) or sweep(*args)
        for r0 in range(0, a.size, 64):
            r1 = min(a.size, r0 + 64)
            left = (np.zeros(r1 - r0, dtype=DTYPE),
                    np.full(r1 - r0, NEG_INF, dtype=DTYPE), 0)
            got, swept = pruned.step(r0, r1, a[r0:r1], *left)
            want, _ = plain.step(r0, r1, a[r0:r1], *left)
            assert calls.pop() == (0, b.size) and not calls
            assert [cols for cols, _ in swept] == np.diff(pruned.edges).tolist()
            np.testing.assert_array_equal(got.h_bottom, want.h_bottom)
            np.testing.assert_array_equal(got.h_right, want.h_right)
            pruned.advance(got, r0)
            plain.advance(want, r0)
        assert pruned.best == plain.best
        assert pruned.counters()["blocks_checked"] == 4 * 5  # rows x subs
        assert pruned.counters()["blocks_pruned"] == 0


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

    @pytest.mark.parametrize("width", [3, 4096])
    def test_tie_pair(self, width):
        with mock.patch.object(blocks, "SUB_BLOCK_COLS", width):
            sim = align_multi_gpu(TIE_A, TIE_B, DNA_DEFAULT,
                                  [TESLA_M2090] * 2,
                                  config=ChainConfig(block_rows=4))
            real = align_multi_process(TIE_A, TIE_B, DNA_DEFAULT, workers=2,
                                       block_rows=4, start_method="fork")
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
        width=st.integers(min_value=3, max_value=11),
        workers=st.integers(min_value=1, max_value=3),
    )
    def test_tie_heavy_sub_blocks_keep_end_cell(self, seed, letters, m, n,
                                                block_rows, width, workers):
        """Two- or three-letter pairs are full of tying end cells, and
        sub-blocks as narrow as 3 columns give pruning many chances to
        skip the earliest one."""
        rng = np.random.default_rng(seed)
        a = rng.integers(0, letters, m).astype(np.uint8)
        b = rng.integers(0, letters, n).astype(np.uint8)
        want = sw_score_naive(a, b, DNA_DEFAULT)
        with mock.patch.object(blocks, "SUB_BLOCK_COLS", width):
            sim = align_multi_gpu(a, b, DNA_DEFAULT, [TESLA_M2090] * workers,
                                  config=ChainConfig(block_rows=block_rows))
            real = align_multi_process(a, b, DNA_DEFAULT, workers=workers,
                                       block_rows=block_rows,
                                       start_method="fork")
        for res in (sim, real):
            assert (res.score, res.best.row, res.best.col) == want

    def test_worker_killed_mid_run(self, rng):
        """A recovered run under default pruning, with 5-column
        sub-blocks, is exact."""
        a = random_dna(160, rng=rng)
        b = mutate(a, HUMAN_CHIMP, rng=rng)
        want = sw_score_naive(a, b, DNA_DEFAULT)
        with mock.patch.object(blocks, "SUB_BLOCK_COLS", 5):
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
        # The single engine: dp_dtype "auto" and the chains' profile
        # cache read a DNA scoring's mismatch, which a matrix lacks.
        res = run_single_gpu(a, b, BLOSUM62_SCORING, TESLA_M2090,
                             block_rows=8, dp_dtype="int32")
        assert res.floor == Floor()
        assert (res.score, res.best.row, res.best.col) == want
        assert res.blocks_checked > 0
