"""Unit tests: repro.sw.alignment value object."""

from __future__ import annotations

import pytest

from repro.errors import AlignmentError
from repro.seq import DNA_DEFAULT, encode
from repro.sw.alignment import Alignment, from_ops


def make(score, ops, si, ei, sj, ej):
    return Alignment(score=score, ops=ops, start_i=si, end_i=ei, start_j=sj, end_j=ej)


class TestConstruction:
    def test_bad_ops_rejected(self):
        with pytest.raises(AlignmentError):
            make(0, "MXD", 0, 2, 0, 1)

    def test_from_ops(self):
        aln = from_ops(5, ["M", "M", "D"], (1, 2), (4, 4))
        assert aln.ops == "MMD"
        assert (aln.start_i, aln.end_i, aln.start_j, aln.end_j) == (1, 4, 2, 4)


class TestAccounting:
    def test_spans_and_counts(self):
        aln = make(0, "MMDMI", 0, 4, 0, 4)
        assert aln.a_span == 4 and aln.b_span == 4
        assert aln.length == 5
        assert aln.op_counts() == {"M": 3, "D": 1, "I": 1}


class TestRescore:
    def test_pure_matches(self):
        a = encode("ACGT")
        aln = make(4, "MMMM", 0, 4, 0, 4)
        assert aln.rescore(a, a, DNA_DEFAULT) == 4

    def test_mismatch(self):
        a = encode("AAAA")
        b = encode("AATA")
        aln = make(1, "MMMM", 0, 4, 0, 4)
        assert aln.rescore(a, b, DNA_DEFAULT) == 3 - 3

    def test_affine_gap_charged_once_per_run(self):
        a = encode("AAAA")
        b = encode("AA")
        aln = make(0, "MMDD", 0, 4, 0, 2)
        # 2 matches - (open + 2*extend) = 2 - 7
        assert aln.rescore(a, b, DNA_DEFAULT) == 2 - 7

    def test_two_separate_gaps_charged_twice(self):
        a = encode("AACAA")
        b = encode("AAAA")  # hypothetical path D..I mix
        aln = make(0, "MMDMM", 0, 5, 0, 4)
        assert aln.rescore(a, b, DNA_DEFAULT) == 4 - 5

    def test_walk_mismatch_detected(self):
        a = encode("AAAA")
        aln = make(0, "MMM", 0, 4, 0, 3)  # ops cover 3 rows, span says 4
        with pytest.raises(AlignmentError):
            aln.rescore(a, a, DNA_DEFAULT)


class TestValidate:
    def test_valid_alignment_passes(self):
        a = encode("ACGT")
        aln = make(4, "MMMM", 0, 4, 0, 4)
        aln.validate(a, a, DNA_DEFAULT)

    def test_wrong_score_detected(self):
        a = encode("ACGT")
        aln = make(5, "MMMM", 0, 4, 0, 4)
        with pytest.raises(AlignmentError, match="claimed score"):
            aln.validate(a, a, DNA_DEFAULT)

    def test_span_mismatch_detected(self):
        a = encode("ACGT")
        aln = make(4, "MMM", 0, 4, 0, 4)
        with pytest.raises(AlignmentError, match="span"):
            aln.validate(a, a, DNA_DEFAULT)


class TestMetrics:
    def test_identity(self):
        a = encode("AAAA")
        b = encode("AATA")
        aln = make(0, "MMMM", 0, 4, 0, 4)
        assert aln.identity(a, b) == 0.75

    def test_identity_ignores_n_matches(self):
        a = encode("NN")
        aln = make(0, "MM", 0, 2, 0, 2)
        assert aln.identity(a, a) == 0.0

    def test_identity_empty(self):
        assert make(0, "", 0, 0, 0, 0).identity(encode("A"), encode("A")) == 0.0

    def test_cigar(self):
        aln = make(0, "MMMDDMI", 0, 6, 0, 4)
        assert aln.cigar() == "3M2D1M1I"

    def test_cigar_empty(self):
        assert make(0, "", 0, 0, 0, 0).cigar() == ""


class TestPretty:
    def test_contains_sequences_and_score(self):
        a = encode("ACGT")
        b = encode("ACTT")
        aln = make(1, "MMMM", 0, 4, 0, 4)
        out = aln.pretty(a, b)
        assert "score=1" in out
        assert "ACGT" in out and "ACTT" in out
        assert "|" in out and "." in out

    def test_gap_rendering(self):
        a = encode("AAT")
        b = encode("AT")
        aln = make(0, "MDM", 0, 3, 0, 2)
        out = aln.pretty(a, b)
        assert "A-T" in out.replace("b: ", "")

    def test_truncation(self):
        a = encode("A" * 5000)
        aln = make(5000, "M" * 5000, 0, 5000, 0, 5000)
        out = aln.pretty(a, a, width=60, max_lines=3)
        assert "more columns" in out

    def test_exact_rendering_with_gaps_n_and_truncation(self):
        a = encode("ACGTNACGTT")
        b = encode("CACTNAGGTT")
        aln = make(3, "MMDMMMIMMM", 0, 9, 1, 10)
        assert aln.pretty(a, b, width=4, max_lines=2) == (
            "score=3 a[0:9] b[1:10] len=10\n"
            "a: ACGT\n"
            "   || |\n"
            "b: AC-T\n"
            "\n"
            "a: NA-C\n"
            "   .| .\n"
            "b: NAGG\n"
            "\n"
            "... (2 more columns)")
