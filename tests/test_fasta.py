"""Unit tests: repro.seq.fasta."""

from __future__ import annotations

import io

import pytest

from repro.errors import FastaError, SequenceError
from repro.seq import FastaRecord, encode, iter_fasta, read_fasta, read_single, write_fasta


def test_single_record():
    recs = read_fasta(io.StringIO(">chr1 test\nACGT\nACGT\n"))
    assert len(recs) == 1
    assert recs[0].name == "chr1"
    assert recs[0].description == "chr1 test"
    assert recs[0].text == "ACGTACGT"
    assert len(recs[0]) == 8


def test_multiple_records():
    recs = read_fasta(io.StringIO(">a\nAC\n>b\nGT\n>c\nNN\n"))
    assert [r.name for r in recs] == ["a", "b", "c"]
    assert [r.text for r in recs] == ["AC", "GT", "NN"]


def test_blank_lines_and_crlf():
    recs = read_fasta(io.StringIO(">a\r\nAC\r\n\r\nGT\r\n"))
    assert recs[0].text == "ACGT"


def test_old_style_comment_lines_skipped():
    recs = read_fasta(io.StringIO(">a\n;comment\nAC\n"))
    assert recs[0].text == "AC"


def test_sequence_before_header_rejected():
    with pytest.raises(FastaError, match="before first"):
        read_fasta(io.StringIO("ACGT\n>a\nAC\n"))


def test_empty_record_rejected():
    with pytest.raises(FastaError, match="no sequence data"):
        read_fasta(io.StringIO(">a\n>b\nAC\n"))


def test_empty_input_rejected():
    with pytest.raises(FastaError, match="empty FASTA"):
        read_fasta(io.StringIO(""))


def test_lowercase_and_unknown_bases():
    recs = read_fasta(io.StringIO(">a\nacgtx\n"))
    assert recs[0].text == "ACGTN"


def test_read_single_rejects_multi():
    with pytest.raises(FastaError, match="exactly one"):
        read_single(io.StringIO(">a\nAC\n>b\nGT\n"))


def test_read_single_ok():
    rec = read_single(io.StringIO(">only\nACGT\n"))
    assert rec.name == "only"


def test_iter_is_lazy_per_record():
    it = iter_fasta(io.StringIO(">a\nAC\n>b\nGT\n"))
    first = next(it)
    assert first.name == "a"
    assert next(it).name == "b"


def test_write_read_roundtrip(tmp_path):
    rec = FastaRecord(name="x", description="x long description", codes=encode("ACGTN" * 40))
    path = tmp_path / "x.fa"
    write_fasta(path, rec, width=30)
    back = read_single(path)
    assert back.description == "x long description"
    assert back.text == rec.text
    # every sequence line except possibly the last respects the width
    lines = path.read_text().splitlines()[1:]
    assert all(len(line) <= 30 for line in lines)


def test_write_multiple_records(tmp_path):
    recs = [
        FastaRecord(name="a", description="a", codes=encode("AC")),
        FastaRecord(name="b", description="b", codes=encode("GGTT")),
    ]
    path = tmp_path / "multi.fa"
    write_fasta(path, recs)
    back = read_fasta(path)
    assert [r.text for r in back] == ["AC", "GGTT"]


def test_write_rejects_bad_width(tmp_path):
    rec = FastaRecord(name="a", description="a", codes=encode("AC"))
    with pytest.raises(FastaError):
        write_fasta(tmp_path / "x.fa", rec, width=0)


def test_read_from_path(tmp_path):
    p = tmp_path / "f.fa"
    p.write_text(">z\nACGT\n")
    assert read_single(p).text == "ACGT"


def test_strict_read_refuses_an_all_n_record(tmp_path):
    """An all-N record (ambiguity codes read as N too) has no base to
    align: a strict read refuses it naming the file; a lenient read and
    a record with one real base still pass."""
    p = tmp_path / "alln.fa"
    for body in ("NNNN", "nnRYN"):
        p.write_text(f">gap\n{body}\n")
        with pytest.raises(SequenceError, match="all N") as info:
            read_single(p, strict=True)
        assert str(p) in str(info.value)
        assert read_single(p).text == "N" * len(body)
    p.write_text(">gap\nNNANN\n")
    assert read_single(p, strict=True).text == "NNANN"
