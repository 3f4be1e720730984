"""Unit tests: repro.sw.pruning — the pruning criterion in isolation."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.sw.blocks import BlockSpec
from repro.sw.pruning import BlockPruner


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

    def test_never_prunes_when_bound_exceeds_best(self):
        p = BlockPruner(match=1)
        assert not p.should_prune(spec(row0=0, col0=0), 1000, 1000, 0, 0, best_score=100)

    def test_disabled_pruner_never_prunes(self):
        p = BlockPruner(match=1, enabled=False)
        s = spec(row0=990, col0=990, rows=5, cols=5)
        assert not p.should_prune(s, 1000, 1000, 0, 0, best_score=10**6)
        assert p.blocks_checked == 0

    def test_ratio_accounting(self):
        p = BlockPruner(match=1)
        s_near_end = spec(row0=995, col0=995, rows=4, cols=4)
        s_at_start = spec(row0=0, col0=0)
        p.should_prune(s_near_end, 1000, 1000, 0, 0, best_score=50)
        p.should_prune(s_at_start, 1000, 1000, 0, 0, best_score=50)
        assert p.blocks_checked == 2
        assert p.blocks_pruned == 1
        assert p.pruned_ratio == 0.5

    def test_zero_checked_ratio(self):
        assert BlockPruner(match=1).pruned_ratio == 0.0

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
                              block_cols=1, pruner=BlockPruner(match=1),
                              kernel=kernel)
        want, wi, wj = sw_score_naive(codes, codes, scoring)
        assert (out.best.score, out.best.row, out.best.col) == (want, wi, wj)


class TestValidation:
    @pytest.mark.parametrize("match", [0, -1])
    def test_bad_match_rejected(self, match):
        with pytest.raises(ConfigError):
            BlockPruner(match=match)
