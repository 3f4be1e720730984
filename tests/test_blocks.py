"""Unit tests: repro.sw.blocks — grid geometry and the blocked executor."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.seq import DNA_DEFAULT
from repro.sw import naive
from repro.sw.blocks import (
    BlockSpec,
    compute_blocked,
    grid_specs,
    pruned_border_result,
    wavefront_order,
)

from helpers import DNA_X256, mutated_copy, random_codes, random_scoring


class TestGridSpecs:
    def test_covers_matrix_exactly(self):
        specs = grid_specs(100, 70, 32, 25)
        assert specs[0][0].row0 == 0 and specs[-1][0].row1 == 100
        assert specs[0][0].col0 == 0 and specs[0][-1].col1 == 70
        total = sum(s.cells for row in specs for s in row)
        assert total == 100 * 70

    def test_edge_blocks_are_smaller(self):
        specs = grid_specs(100, 100, 30, 30)
        assert specs[-1][-1].rows == 10
        assert specs[-1][-1].cols == 10

    def test_single_block(self):
        specs = grid_specs(5, 5, 100, 100)
        assert len(specs) == 1 and len(specs[0]) == 1
        assert specs[0][0].cells == 25

    @pytest.mark.parametrize("m,n,br,bc", [(0, 5, 1, 1), (5, 0, 1, 1), (5, 5, 0, 1), (5, 5, 1, 0)])
    def test_bad_dimensions_rejected(self, m, n, br, bc):
        with pytest.raises(ConfigError):
            grid_specs(m, n, br, bc)

    def test_degenerate_spec_rejected(self):
        with pytest.raises(ConfigError):
            BlockSpec(3, 3, 0, 5)


class TestWavefrontOrder:
    def test_dependencies_respected(self):
        """Every block appears after its up/left/diag neighbours."""
        seen: set[tuple[int, int]] = set()
        for diag in wavefront_order(4, 6):
            for br, bc in diag:
                if br > 0:
                    assert (br - 1, bc) in seen
                if bc > 0:
                    assert (br, bc - 1) in seen
                if br > 0 and bc > 0:
                    assert (br - 1, bc - 1) in seen
            seen.update(diag)
        assert len(seen) == 24

    def test_diagonal_count(self):
        diags = list(wavefront_order(3, 5))
        assert len(diags) == 3 + 5 - 1
        assert max(len(d) for d in diags) == 3


class TestBlockedExecutor:
    def test_equals_oracle_random_configs(self, rng):
        for _ in range(25):
            m = int(rng.integers(2, 50))
            n = int(rng.integers(2, 50))
            a = random_codes(rng, m, with_n=True)
            b = random_codes(rng, n, with_n=True)
            sc = random_scoring(rng)
            want, wi, wj = naive.sw_score_naive(a, b, sc)
            out = compute_blocked(
                a, b, sc,
                block_rows=int(rng.integers(1, m + 1)),
                block_cols=int(rng.integers(1, n + 1)),
            )
            got = out.best.score if out.best.row >= 0 else 0
            assert got == want
            if want > 0:
                assert (out.best.row, out.best.col) == (wi, wj)

    def test_block_accounting(self, rng):
        a = random_codes(rng, 20)
        b = random_codes(rng, 30)
        out = compute_blocked(a, b, DNA_DEFAULT, block_rows=8, block_cols=10)
        assert out.blocks_total == 3 * 3
        assert out.cells_total == 600
        assert out.tally.blocks_pruned == 0
        assert out.pruned_fraction == 0.0


class TestPrunedExactness:
    def test_similar_sequences_prune_and_stay_exact(self, rng):
        for snp in (0.02, 0.1, 0.3):
            a = random_codes(rng, 400)
            b = mutated_copy(rng, a, snp)
            base = compute_blocked(a, b, DNA_DEFAULT, block_rows=32, block_cols=32)
            pruned = compute_blocked(a, b, DNA_DEFAULT, block_rows=32, block_cols=32,
                                     pruning=True)
            assert pruned.best.score == base.best.score
            if snp <= 0.1:
                assert pruned.cells_pruned > 0

    def test_pruning_increases_with_similarity(self, rng):
        a = random_codes(rng, 600)
        fractions = []
        for snp in (0.02, 0.2, 0.5):
            b = mutated_copy(rng, a, snp)
            out = compute_blocked(a, b, DNA_DEFAULT, block_rows=32, block_cols=32,
                                  pruning=True)
            fractions.append(out.pruned_fraction)
        assert fractions[0] > fractions[1] >= fractions[2]

    def test_pruned_border_shape(self):
        spec = BlockSpec(0, 4, 0, 6)
        res = pruned_border_result(spec)
        assert res.h_bottom.shape == (6,)
        assert res.h_right.shape == (4,)
        assert (res.h_bottom == 0).all()
        assert res.best.row == -1


class TestPinnedDecisions:
    """Exact prune and narrow-DP decision counts of the blocked executor
    per kernel.  Scores alone cannot catch a grouping change that prunes
    or narrows differently; these counts can."""

    # (seed, m, n, snp rate or None for an unrelated pair, block_rows,
    #  block_cols, dp_dtype, scoring); the "x256" rows run int16 under
    #  DNA_X256, whose overflow cap makes similar pairs escalate blocks.
    CONFIGS = {
        "similar-auto": (11, 300, 280, 0.02, 32, 48, "auto", DNA_DEFAULT),
        "similar-x256-odd": (12, 400, 400, 0.05, 37, 29, "int16", DNA_X256),
        "divergent-auto-odd": (13, 250, 310, None, 23, 41, "auto", DNA_DEFAULT),
        "divergent-x256-thin": (14, 200, 200, None, 64, 17, "int16", DNA_X256),
        "looser-auto": (15, 360, 330, 0.1, 50, 50, "auto", DNA_DEFAULT),
        "close-x256-odd": (16, 180, 220, 0.01, 13, 31, "int16", DNA_X256),
    }
    # ((score, row, col), blocks_pruned, cells_pruned, blocks_narrow,
    #  blocks_wide, dtype_escalations); "compiled" shares scalar's row.
    EXPECTED = {
        ("similar-auto", "scalar"): ((260, 279, 279), 27, 34336, 33, 0, 0),
        ("similar-auto", "batched"): ((260, 279, 279), 26, 32544, 34, 0, 0),
        ("similar-x256-odd", "scalar"): ((76800, 399, 399), 66, 66384, 53, 35, 35),
        ("similar-x256-odd", "batched"): ((76800, 399, 399), 66, 66384, 53, 35, 35),
        ("divergent-auto-odd", "scalar"): ((7, 56, 174), 0, 0, 88, 0, 0),
        ("divergent-auto-odd", "batched"): ((7, 56, 174), 0, 0, 88, 0, 0),
        ("divergent-x256-thin", "scalar"): ((1792, 120, 119), 0, 0, 48, 0, 0),
        ("divergent-x256-thin", "batched"): ((1792, 120, 119), 0, 0, 48, 0, 0),
        ("looser-auto", "scalar"): ((231, 326, 326), 24, 40800, 32, 0, 0),
        ("looser-auto", "batched"): ((231, 326, 326), 24, 40800, 32, 0, 0),
        ("close-x256-odd", "scalar"): ((43008, 179, 179), 33, 12287, 35, 16, 16),
        ("close-x256-odd", "batched"): ((43008, 179, 179), 35, 12937, 33, 16, 16),
    }

    @pytest.mark.parametrize("kernel", ["scalar", "compiled", "batched"])
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_decisions_pinned(self, name, kernel):
        (seed, m, n, snp, block_rows, block_cols, dp_dtype,
         scoring) = self.CONFIGS[name]
        rng = np.random.default_rng(seed)
        a = random_codes(rng, m)
        b = (random_codes(rng, n) if snp is None
             else mutated_copy(rng, a, snp)[:n])
        out = compute_blocked(a, b, scoring, block_rows=block_rows,
                              block_cols=block_cols, pruning=True,
                              kernel=kernel, dp_dtype=dp_dtype)
        tally = out.tally
        got = ((out.best.score, out.best.row, out.best.col),
               tally.blocks_pruned, out.cells_pruned, tally.blocks_narrow,
               tally.blocks_wide, tally.dtype_escalations)
        row = "batched" if kernel == "batched" else "scalar"
        assert got == self.EXPECTED[name, row]
