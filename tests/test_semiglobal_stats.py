"""Unit tests: repro.stats.karlin."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.seq import DNA_DEFAULT, Scoring
from repro.stats import ScoreStatistics, dna_statistics, estimate_k, expected_score, solve_lambda
from repro.sw import sw_score


class TestLambda:
    def test_lambda_solves_equation(self):
        lam = solve_lambda(DNA_DEFAULT.matrix[:4, :4], np.full(4, 0.25), np.full(4, 0.25))
        w = np.full((4, 4), 1 / 16.0)
        val = (w * np.exp(lam * DNA_DEFAULT.matrix[:4, :4])).sum()
        assert val == pytest.approx(1.0, abs=1e-9)

    def test_known_value_match_mismatch(self):
        """For +1/-1 uniform DNA, lambda = ln 3 exactly:
        (4/16)e^l + (12/16)e^-l = 1  →  e^l = 3."""
        sc = Scoring(match=1, mismatch=-1, gap_open=0, gap_extend=1)
        lam = solve_lambda(sc.matrix[:4, :4], np.full(4, 0.25), np.full(4, 0.25))
        assert lam == pytest.approx(math.log(3), abs=1e-9)

    def test_positive_expected_score_rejected(self):
        sc = np.full((4, 4), 1, dtype=np.int32)
        with pytest.raises(ConfigError):
            solve_lambda(sc, np.full(4, 0.25), np.full(4, 0.25))

    def test_bad_composition_rejected(self):
        m = DNA_DEFAULT.matrix[:4, :4]
        with pytest.raises(ConfigError):
            solve_lambda(m, np.full(4, 0.3), np.full(4, 0.25))
        with pytest.raises(ConfigError):
            solve_lambda(m, np.array([1.5, -0.5, 0, 0]), np.full(4, 0.25))

    def test_expected_score_negative_for_default(self):
        assert expected_score(DNA_DEFAULT.matrix[:4, :4],
                              np.full(4, 0.25), np.full(4, 0.25)) < 0


class TestKAndEvalues:
    @pytest.fixture(scope="class")
    def stats(self):
        return dna_statistics(DNA_DEFAULT, k_samples=80, seed=0)

    def test_k_plausible(self, stats):
        assert 0.05 < stats.k < 2.0

    def test_k_deterministic(self):
        a = dna_statistics(DNA_DEFAULT, k_samples=30, seed=3)
        b = dna_statistics(DNA_DEFAULT, k_samples=30, seed=3)
        assert a.k == b.k

    def test_evalue_monotone_in_score(self, stats):
        evs = [stats.evalue(s, 10**6, 10**6) for s in (20, 40, 80)]
        assert evs[0] > evs[1] > evs[2]

    def test_evalue_scales_with_area(self, stats):
        assert stats.evalue(50, 2 * 10**6, 10**6) == pytest.approx(
            2 * stats.evalue(50, 10**6, 10**6))

    def test_score_for_evalue_inverts(self, stats):
        s = stats.score_for_evalue(1e-6, 10**7, 10**7)
        assert stats.evalue(s, 10**7, 10**7) <= 1e-6
        assert stats.evalue(s - 1, 10**7, 10**7) > 1e-6

    def test_pvalue_bounds(self, stats):
        p = stats.pvalue(5, 1000, 1000)
        assert 0.0 <= p <= 1.0

    def test_bit_score_increasing(self, stats):
        assert stats.bit_score(100) > stats.bit_score(50)

    def test_tail_prediction_order_of_magnitude(self, stats):
        """Predicted P(chance score >= t) must match empirical frequency
        within a factor of ~3 — the Gumbel fit doing its job."""
        rng = np.random.default_rng(7)
        m = n = 200
        t = stats.score_for_evalue(0.7, m, n)
        hits = 0
        trials = 120
        for _ in range(trials):
            a = rng.integers(0, 4, m).astype(np.uint8)
            b = rng.integers(0, 4, n).astype(np.uint8)
            if sw_score(a, b, DNA_DEFAULT).score >= t:
                hits += 1
        emp = hits / trials
        pred = stats.pvalue(t, m, n)
        assert pred / 3 < emp + 1e-3 and emp < pred * 3 + 0.05

    def test_validation(self, stats):
        with pytest.raises(ConfigError):
            stats.evalue(10, 0, 5)
        with pytest.raises(ConfigError):
            stats.score_for_evalue(0.0, 10, 10)
        with pytest.raises(ConfigError):
            estimate_k(DNA_DEFAULT, 1.37, samples=0)
