"""Unit tests: repro.sw.stages — the multi-stage traceback pipeline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import AlignmentError, ConfigError
from repro.seq import DNA_DEFAULT, encode
from repro.sw import naive, stages
from repro.sw.myers_miller import global_score
from repro.sw.rowstore import BudgetedRowStore
from repro.sw.stages import (
    Stage1Result,
    align_local,
    stage1_score,
    stage2_with_crossings,
    stage3_align,
)

from helpers import count_calls, mutated_copy, random_codes, random_scoring


class TestStage1:
    def test_score_and_endpoint_match_oracle(self, rng):
        for _ in range(25):
            a = random_codes(rng, int(rng.integers(1, 40)))
            b = random_codes(rng, int(rng.integers(1, 40)))
            sc = random_scoring(rng)
            want, wi, wj = naive.sw_score_naive(a, b, sc)
            s1 = stage1_score(a, b, sc)
            assert s1.score == want
            if want > 0:
                assert (s1.end_i, s1.end_j) == (wi, wj)

    def test_zero_score_sentinel(self):
        s1 = stage1_score(encode("AAAA"), encode("TTTT"), DNA_DEFAULT)
        assert (s1.score, s1.end_i, s1.end_j) == (0, -1, -1)

    def test_special_rows_recorded(self, rng):
        a = random_codes(rng, 20)
        b = random_codes(rng, 15)
        s1 = stage1_score(a, b, DNA_DEFAULT, special_interval=4)
        assert s1.special_rows is not None
        assert s1.special_rows.row_indices() == [3, 7, 11, 15, 19]
        assert s1.special_rows.bytes_stored == 5 * 2 * 15 * 4

    def test_store_validation(self):
        with pytest.raises(ConfigError):
            BudgetedRowStore(0)


class TestStage2:
    def test_start_point_consistency(self, rng):
        """Start point found by stage 2 must admit a global alignment of
        exactly the stage-1 score between the anchors."""
        for _ in range(25):
            a = random_codes(rng, int(rng.integers(2, 40)))
            b = random_codes(rng, int(rng.integers(2, 40)))
            sc = random_scoring(rng)
            s1 = stage1_score(a, b, sc)
            if s1.score <= 0:
                continue
            si, sj, cps = stage2_with_crossings(a, b, sc, s1, chunk_rows=5)
            assert cps == []
            assert 0 <= si <= s1.end_i
            assert 0 <= sj <= s1.end_j
            anchored = global_score(a[si : s1.end_i + 1], b[sj : s1.end_j + 1], sc)
            assert anchored == s1.score

    def test_rejects_nonpositive_score(self):
        a = encode("ACGT")
        with pytest.raises(AlignmentError):
            stage2_with_crossings(a, a, DNA_DEFAULT, Stage1Result(0, 3, 3, None))

    def test_inconsistent_endpoint_detected(self):
        a = encode("ACGTACGT")
        with pytest.raises(AlignmentError, match="inconsistent"):
            stage2_with_crossings(a, a, DNA_DEFAULT,
                                  Stage1Result(999, 7, 7, None))

    def test_early_termination_on_similar_sequences(self, rng):
        """On a high-identity pair the reverse sweep must stop near the
        start, not scan the whole prefix (chunked early exit)."""
        a = random_codes(rng, 500)
        b = mutated_copy(rng, a, 0.02)
        s1 = stage1_score(a, b, DNA_DEFAULT)
        si, sj, _ = stage2_with_crossings(a, b, DNA_DEFAULT, s1, chunk_rows=64)
        assert si <= 64  # alignment spans nearly everything → start near 0


class TestStage3AndPipeline:
    def test_full_pipeline_equals_oracle(self, rng):
        for _ in range(30):
            a = random_codes(rng, int(rng.integers(1, 35)))
            b = random_codes(rng, int(rng.integers(1, 35)))
            sc = random_scoring(rng)
            want, *_ = naive.sw_score_naive(a, b, sc)
            for interval in (0, 4):
                aln = align_local(a, b, sc, special_interval=interval,
                                  base_cells=16)
                assert aln.score == want
                aln.validate(a, b, sc)

    def test_empty_result(self):
        aln = align_local(encode("AAAA"), encode("TTTT"), DNA_DEFAULT)
        assert aln.score == 0 and aln.ops == ""

    def test_stage3_detects_bad_score(self):
        a = encode("ACGTACGT")
        with pytest.raises(AlignmentError):
            stage3_align(a, a, DNA_DEFAULT, score=999, start=(0, 0), end=(7, 7))

    def test_homolog_end_to_end(self, rng):
        a = random_codes(rng, 600)
        b = mutated_copy(rng, a, 0.03)
        aln = align_local(a, b, DNA_DEFAULT, special_interval=64)
        aln.validate(a, b, DNA_DEFAULT)
        assert aln.identity(a, b) > 0.93
        assert aln.a_span > 500  # covers most of the sequences


class TestTieFallback:
    def test_co_optimal_crossings_fall_back_to_one_stage3(self, monkeypatch):
        """Regression: on this binary-alphabet pair the special-row
        crossings belong to different co-optimal paths and do not
        telescope; align_local must redo stage 3 monolithically (one
        stage3_align call) and still return the exact score."""
        calls = count_calls(monkeypatch, stages, "stage3_align")
        a = encode("ACCCACCCCAAACACAACAAAAACAA")
        b = encode("CCCAAAAACACACAAAAACAACC")
        aln = align_local(a, b, DNA_DEFAULT, special_interval=1)
        assert aln.score == 11
        assert naive.sw_score_naive(a, b, DNA_DEFAULT)[0] == 11
        aln.validate(a, b, DNA_DEFAULT)
        assert len(calls) == 1
        # The partitioned path that does telescope never calls stage 3.
        assert align_local(a, b, DNA_DEFAULT, special_interval=0).score == 11
        assert len(calls) == 1


class TestFusedStage2:
    def test_start_point_independent_of_special_rows(self, rng):
        """The start point is the same with and without special rows, and
        the crossings do not depend on the sweep's chunking."""
        for _ in range(15):
            a = random_codes(rng, 150)
            b = mutated_copy(rng, a, 0.08)
            s1 = stage1_score(a, b, DNA_DEFAULT, special_interval=32)
            if s1.score <= 0:
                continue
            plain = stage1_score(a, b, DNA_DEFAULT)
            si, sj, none = stage2_with_crossings(a, b, DNA_DEFAULT, plain)
            fi, fj, fused = stage2_with_crossings(a, b, DNA_DEFAULT, s1)
            ci, cj, chunked = stage2_with_crossings(a, b, DNA_DEFAULT, s1,
                                                    chunk_rows=7)
            assert none == []
            assert (fi, fj) == (si, sj) == (ci, cj)
            assert fused == chunked

    def test_requires_special_rows(self, rng):
        """No special rows, no crossings: the sweep still finds the start."""
        a = random_codes(rng, 30)
        s1 = stage1_score(a, a, DNA_DEFAULT)
        si, sj, cps = stage2_with_crossings(a, a, DNA_DEFAULT, s1)
        assert cps == []
        assert (si, sj) == (0, 0)
        with_rows = stage1_score(a, a, DNA_DEFAULT, special_interval=8)
        assert stage2_with_crossings(a, a, DNA_DEFAULT, with_rows)[2]


class TestCrossings:
    def test_crossings_split_score_exactly(self, rng):
        found_any = False
        for trial in range(25):
            a = random_codes(rng, 150)
            b = mutated_copy(rng, a, 0.08)
            s1 = stage1_score(a, b, DNA_DEFAULT, special_interval=32)
            if s1.score <= 0:
                continue
            si, sj, cps = stage2_with_crossings(a, b, DNA_DEFAULT, s1)
            expected_rows = [r for r in s1.special_rows.row_indices()
                             if si <= r < s1.end_i]
            assert len(cps) == len(expected_rows)
            for c in cps:
                found_any = True
                assert si <= c.row < s1.end_i
                assert sj <= c.col <= s1.end_j
                if not c.gapped:
                    left = global_score(a[si : c.row + 1], b[sj : c.col], DNA_DEFAULT)
                    right = global_score(a[c.row + 1 : s1.end_i + 1],
                                         b[c.col : s1.end_j + 1], DNA_DEFAULT)
                    assert left + right == s1.score
        assert found_any

    def test_crossings_monotone_in_col(self, rng):
        a = random_codes(rng, 200)
        b = mutated_copy(rng, a, 0.05)
        s1 = stage1_score(a, b, DNA_DEFAULT, special_interval=16)
        si, sj, cps = stage2_with_crossings(a, b, DNA_DEFAULT, s1)
        cols = [c.col for c in cps]
        # Crossing columns of an optimal monotone path are sorted by row...
        # but ties between different optimal paths may break monotonicity;
        # require weak sanity: at least sorted within a small tolerance.
        assert all(c2 >= c1 - 16 for c1, c2 in zip(cols, cols[1:]))

    def test_requires_special_rows(self, rng):
        """Crossings lie only on stored special rows; none without them."""
        a = random_codes(rng, 30)
        assert stage2_with_crossings(
            a, a, DNA_DEFAULT, stage1_score(a, a, DNA_DEFAULT))[2] == []
        s1 = stage1_score(a, a, DNA_DEFAULT, special_interval=8)
        cps = stage2_with_crossings(a, a, DNA_DEFAULT, s1)[2]
        assert [c.row for c in cps] == s1.special_rows.row_indices()
