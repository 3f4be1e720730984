"""Unit + property tests: repro.sw.xdrop (the heuristic alignment tier).

The heuristic tier's contract is differential: every heuristic score is a
**lower bound** of the exact local score, structurally-full bands are
bit-identical to the exact kernel (score *and* end cell), and the
``mode="auto"`` confidence check escalates exactly when the heuristic
answer cannot be trusted.  These tests pin each clause against the exact
kernel/oracle.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.seq import DNA_DEFAULT, Scoring, encode
from repro.sw import NEG_INF, sw_score, sw_score_naive
from repro.sw.blocks import BlockSpec
from repro.sw.kernel import BestCell
from repro.sw.xdrop import (
    DEFAULT_BAND_WIDTH,
    DEFAULT_XDROP_X,
    MODES,
    adaptive_banded_score,
    assess_heuristic,
    band_intersects,
    significance_threshold,
    validate_mode,
    xdrop_score,
)

from helpers import mutated_copy, random_codes, random_scoring

dna_codes_nonempty = st.text(alphabet="ACGTN", min_size=1, max_size=48).map(encode)

scorings = st.builds(
    Scoring,
    match=st.integers(1, 6),
    mismatch=st.integers(-6, 0),
    gap_open=st.integers(0, 6),
    gap_extend=st.integers(1, 4),
)


def _clamped(best: BestCell) -> int:
    return best.score if best.row >= 0 else 0


def _anchored_oracle_score(a, b, sc) -> int:
    """Naive unclamped Gotoh anchored at the origin: every path starts at
    cell (0, 0) with a substitution, leading gaps disallowed — the DP
    :func:`xdrop_score` computes when nothing is ever dropped."""
    m, n = int(a.size), int(b.size)
    sub = sc.matrix
    go, ge = int(sc.gap_open), int(sc.gap_extend)
    NEG = int(NEG_INF)
    hp = [NEG] * n  # H of the previous row
    fp = [NEG] * n  # F of the previous row
    best = 0
    for i in range(m):
        hc = [NEG] * n
        fc = [NEG] * n
        e = NEG   # E(i, j-1) boundary
        hl = NEG  # H(i, j-1) boundary
        hd = 0 if i == 0 else NEG  # H(i-1, -1): the origin corner only
        for j in range(n):
            f = max(max(fp[j], hp[j] - go) - ge, NEG)
            e = max(max(e, hl - go) - ge, NEG)
            h = max(hd + int(sub[a[i], b[j]]), e, f, NEG)
            hd = hp[j]
            hl = h
            hc[j], fc[j] = h, f
            best = max(best, h)
        hp, fp = hc, fc
    return best


class TestValidation:
    def test_modes_tuple(self):
        assert MODES == ("exact", "banded", "xdrop", "auto")
        for mode in MODES:
            validate_mode(mode)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError):
            validate_mode("greedy")

    def test_nonpositive_x_rejected(self, rng):
        a = random_codes(rng, 10)
        with pytest.raises(ConfigError):
            xdrop_score(a, a, DNA_DEFAULT, 0)
        with pytest.raises(ConfigError):
            xdrop_score(a, a, DNA_DEFAULT, -3)

    def test_negative_half_width_rejected(self, rng):
        a = random_codes(rng, 10)
        with pytest.raises(ConfigError):
            adaptive_banded_score(a, a, DNA_DEFAULT, -1)


class TestXDrop:
    def test_identical_sequences_score_exact(self, rng):
        """Identity alignment never dips, so no window cell is ever
        dropped: X-drop must reproduce the exact score and end cell."""
        for n in (1, 7, 64, 300):
            a = random_codes(rng, n)
            exact = sw_score(a, a, DNA_DEFAULT)
            xo = xdrop_score(a, a, DNA_DEFAULT, DEFAULT_XDROP_X)
            assert xo.best.score == exact.score
            assert (xo.best.row, xo.best.col) == (exact.row, exact.col)

    @settings(max_examples=60, deadline=None)
    @given(dna_codes_nonempty, dna_codes_nonempty, scorings,
           st.sampled_from([1, 5, 20, 100]))
    def test_never_exceeds_exact(self, a, b, sc, x):
        """Every X-drop H value is a genuine path-from-origin score, so
        the reported best is a lower bound of the exact local score."""
        want, *_ = sw_score_naive(a, b, sc)
        xo = xdrop_score(a, b, sc, x)
        assert xo.score <= want

    def test_monotone_in_x(self, rng):
        """A larger threshold keeps a superset of window cells alive, so
        the score can only improve."""
        a = random_codes(rng, 120)
        b = mutated_copy(rng, a, 0.15)
        prev = -1
        for x in (1, 2, 5, 10, 50, 10_000):
            score = xdrop_score(a, b, DNA_DEFAULT, x).score
            assert score >= prev
            prev = score

    def test_huge_x_matches_anchored_oracle(self, rng):
        """With x beyond any achievable drop nothing is ever pruned, and
        the sweep computes exactly the origin-anchored extension DP — a
        naive unclamped Gotoh from (0, 0) is the oracle (NOT the local
        score: an extension never models alignments that start
        elsewhere)."""
        for _ in range(20):
            a = random_codes(rng, int(rng.integers(1, 40)), with_n=True)
            b = random_codes(rng, int(rng.integers(1, 40)), with_n=True)
            sc = random_scoring(rng)
            xo = xdrop_score(a, b, sc, 10_000_000)
            assert not xo.terminated
            assert xo.cells_computed == a.size * b.size
            assert xo.score == _anchored_oracle_score(a, b, sc)

    def test_divergent_pair_terminates_early(self, rng):
        """Unrelated sequences kill the window long before the far
        corner: the cell count must be a small fraction of the matrix."""
        a = random_codes(rng, 400)
        b = random_codes(rng, 400)
        xo = xdrop_score(a, b, DNA_DEFAULT, DEFAULT_XDROP_X)
        assert xo.terminated
        assert xo.cells_computed < 400 * 400 // 4


class TestAdaptiveBand:
    @settings(max_examples=60, deadline=None)
    @given(dna_codes_nonempty, dna_codes_nonempty, scorings,
           st.sampled_from([16, 33, 128]))
    def test_full_band_bit_identical_to_exact(self, a, b, sc, block_rows):
        """``half_width >= max(m, n)`` covers every cell, and the sweep
        degenerates to the exact kernel: same score AND same end cell
        (tie-break included)."""
        exact = sw_score(a, b, sc)
        bo = adaptive_banded_score(a, b, sc, max(a.size, b.size),
                                   block_rows=block_rows)
        assert bo.best.score == exact.score
        assert (bo.best.row, bo.best.col) == (exact.row, exact.col)

    @settings(max_examples=60, deadline=None)
    @given(dna_codes_nonempty, dna_codes_nonempty, scorings,
           st.sampled_from([0, 1, 4, 11]))
    def test_never_exceeds_exact(self, a, b, sc, hw):
        """The band only removes candidate paths; every in-band path is a
        real path, so the banded best is a lower bound."""
        want, *_ = sw_score_naive(a, b, sc)
        bo = adaptive_banded_score(a, b, sc, hw, block_rows=8)
        assert bo.score <= want

    def test_similar_pair_matches_exact_with_narrow_band(self, rng):
        """<= 5%-divergent pairs stay near the main diagonal: a narrow
        adaptive band recovers the exact score."""
        for _ in range(10):
            a = random_codes(rng, 400)
            b = mutated_copy(rng, a, 0.05)
            want, *_ = sw_score_naive(a, b, DNA_DEFAULT)
            bo = adaptive_banded_score(a, b, DNA_DEFAULT, 16, block_rows=64)
            assert bo.score == want

    def test_recenter_and_widen_on_shifted_prefix(self, rng):
        """b = 24 random bases + a: the alignment sits 24 columns off the
        main diagonal.  A half-width-16 band must *widen* (the stripe best
        drifts to the band edge) and *recenter* to follow it, then land on
        the exact score."""
        a = random_codes(rng, 300)
        b = np.concatenate([random_codes(rng, 24), a])
        want, *_ = sw_score_naive(a, b, DNA_DEFAULT)
        bo = adaptive_banded_score(a, b, DNA_DEFAULT, 16, block_rows=64)
        assert bo.widenings >= 1
        assert bo.recenters >= 1
        assert bo.final_half_width > bo.initial_half_width
        assert not bo.saturated
        assert bo.score == want

    def test_cap_reports_saturation(self, rng):
        """The same shifted workload with the widening capped below what
        it needs must flag ``saturated`` — the auto tier's escalation
        signal."""
        a = random_codes(rng, 300)
        b = np.concatenate([random_codes(rng, 24), a])
        bo = adaptive_banded_score(a, b, DNA_DEFAULT, 4, block_rows=64,
                                   max_half_width=8)
        assert bo.saturated
        assert bo.final_half_width == 8

    def test_band_cells_bounded(self, rng):
        """A narrow band must actually skip work: the computed-cell count
        stays near (2*hw+1)*m, far below m*n."""
        a = random_codes(rng, 500)
        b = mutated_copy(rng, a, 0.03)
        bo = adaptive_banded_score(a, b, DNA_DEFAULT, 8, block_rows=32)
        assert bo.cells_computed < 500 * 500 // 4


class TestBandIntersects:
    def test_on_diagonal_block_always_intersects(self):
        spec = BlockSpec(0, 64, 0, 64)
        assert band_intersects(spec, 0)

    def test_far_off_diagonal_block_misses_narrow_band(self):
        spec = BlockSpec(0, 64, 1000, 1064)
        assert not band_intersects(spec, 64)
        assert band_intersects(spec, 1000)

    def test_boundary_is_inclusive(self):
        # Block whose nearest cell sits at offset exactly half_width.
        spec = BlockSpec(0, 1, 10, 20)  # offsets j - i in [10, 19]
        assert band_intersects(spec, 10)
        assert not band_intersects(spec, 9)

    def test_matches_brute_force(self, rng):
        for _ in range(200):
            r0 = int(rng.integers(0, 50))
            c0 = int(rng.integers(0, 50))
            spec = BlockSpec(r0, r0 + int(rng.integers(1, 20)),
                             c0, c0 + int(rng.integers(1, 20)))
            hw = int(rng.integers(0, 40))
            want = any(
                abs(j - i) <= hw
                for i in range(spec.row0, spec.row1)
                for j in range(spec.col0, spec.col1))
            assert band_intersects(spec, hw) == want


class TestConfidenceCheck:
    def test_saturated_band_escalates(self):
        best = BestCell(10_000, 500, 500)
        decision = assess_heuristic(best, 1000, 1000, DNA_DEFAULT,
                                    saturated=True)
        assert not decision.confident
        assert any("saturat" in r for r in decision.reasons)

    def test_weak_score_escalates(self):
        """A score below the Karlin-Altschul significance threshold could
        be a clipped optimum — not trustworthy."""
        best = BestCell(3, 10, 10)
        decision = assess_heuristic(best, 100_000, 100_000, DNA_DEFAULT)
        assert not decision.confident

    def test_strong_diagonal_score_is_confident(self):
        m = n = 10_000
        thresh = significance_threshold(DNA_DEFAULT, m, n)
        assert thresh is not None
        best = BestCell(max(2 * thresh, 2000), n - 1, n - 1)
        decision = assess_heuristic(best, m, n, DNA_DEFAULT,
                                    saturated=False)
        assert decision.confident
        assert decision.reasons == ()

    def test_strong_score_at_a_saturated_band_edge_escalates(self):
        """A significant score does not save a band that saturated: its
        best hugged the band edge at the width cap, so the real optimum
        may continue beyond it."""
        m = n = 10_000
        best = BestCell(5000, 5000, 5060)
        decision = assess_heuristic(best, m, n, DNA_DEFAULT,
                                    saturated=True)
        assert not decision.confident
        assert decision.reasons == ("band saturated at its width cap",)

    def test_scheme_without_statistics_escalates(self):
        """No Karlin-Altschul stats (e.g. a non-scorable scheme) means no
        significance threshold: auto must fall back to exact."""
        # match <= |mismatch| == 0 gives expected score >= 0: no stats.
        sc = Scoring(match=1, mismatch=0, gap_open=3, gap_extend=2)
        best = BestCell(1_000_000, 500, 500)
        decision = assess_heuristic(best, 1000, 1000, sc)
        assert not decision.confident

    def test_no_positive_cell_escalates(self):
        decision = assess_heuristic(BestCell.none(), 1000, 1000, DNA_DEFAULT)
        assert not decision.confident


class TestHeuristicNeverExceedsExactRandomised:
    def test_all_tiers_bounded_by_oracle(self, rng):
        """One randomised sweep across both heuristics and many shapes,
        schemes and thresholds — the differential guarantee in one place."""
        for _ in range(60):
            m = int(rng.integers(1, 60))
            n = int(rng.integers(1, 60))
            a = random_codes(rng, m, with_n=True)
            b = random_codes(rng, n, with_n=True)
            sc = random_scoring(rng)
            want, *_ = sw_score_naive(a, b, sc)
            x = int(rng.integers(1, 40))
            hw = int(rng.integers(0, 20))
            br = int(rng.integers(1, 24))
            assert xdrop_score(a, b, sc, x).score <= want
            assert adaptive_banded_score(a, b, sc, hw,
                                         block_rows=br).score <= want
