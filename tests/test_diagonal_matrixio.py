"""Unit tests: repro.sw.diagonal (the anti-diagonal kernel)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.seq import DNA_DEFAULT
from repro.sw import sw_score, sw_score_diagonal, sw_score_naive

from helpers import mutated_copy, random_codes, random_scoring


class TestDiagonalKernel:
    def test_matches_oracle(self, rng):
        for _ in range(50):
            m = int(rng.integers(1, 35))
            n = int(rng.integers(1, 35))
            a = random_codes(rng, m, with_n=True)
            b = random_codes(rng, n, with_n=True)
            sc = random_scoring(rng)
            want, wi, wj = sw_score_naive(a, b, sc)
            got = sw_score_diagonal(a, b, sc)
            assert (got.score if got.row >= 0 else 0) == want
            if want > 0:
                assert (got.row, got.col) == (wi, wj)

    def test_agrees_with_row_sweep_kernel(self, rng):
        """Two kernels with different dependency schedules must agree on
        score AND tie-broken endpoint."""
        for _ in range(30):
            a = random_codes(rng, int(rng.integers(5, 60)))
            b = random_codes(rng, int(rng.integers(5, 60)))
            k1 = sw_score(a, b, DNA_DEFAULT)
            k2 = sw_score_diagonal(a, b, DNA_DEFAULT)
            assert (k1.score, k1.row, k1.col) == (k2.score, k2.row, k2.col)

    def test_homologs(self, rng):
        a = random_codes(rng, 300)
        b = mutated_copy(rng, a, 0.05)
        assert sw_score_diagonal(a, b, DNA_DEFAULT).score == \
            sw_score(a, b, DNA_DEFAULT).score

    def test_wide_and_tall_matrices(self, rng):
        a = random_codes(rng, 5)
        b = random_codes(rng, 200)
        want, *_ = sw_score_naive(a, b, DNA_DEFAULT)
        assert (sw_score_diagonal(a, b, DNA_DEFAULT).score or 0) == want
        assert (sw_score_diagonal(b, a, DNA_DEFAULT).score or 0) == want

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            sw_score_diagonal(np.array([], dtype=np.uint8),
                              np.array([0], dtype=np.uint8), DNA_DEFAULT)
