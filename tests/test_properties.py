"""Property-based tests (hypothesis) on the library's core invariants."""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.comm import RingBuffer
from repro.multigpu import proportional_partition
from repro.seq import DNA_DEFAULT, Scoring, decode, encode
from repro.seq.encoding import reverse_complement
from repro.sw import align_local, sw_score, sw_score_naive
from repro.sw.myers_miller import align_global, global_score

# -- strategies --------------------------------------------------------------

dna_text = st.text(alphabet="ACGTN", min_size=0, max_size=60)
dna_text_nonempty = st.text(alphabet="ACGTN", min_size=1, max_size=40)
dna_codes = dna_text.map(encode)
dna_codes_nonempty = dna_text_nonempty.map(encode)

scorings = st.builds(
    Scoring,
    match=st.integers(1, 6),
    mismatch=st.integers(-6, 0),
    gap_open=st.integers(0, 6),
    gap_extend=st.integers(1, 4),
)


# -- encoding invariants -------------------------------------------------------

@given(dna_text)
def test_encode_decode_roundtrip(text):
    assert decode(encode(text)) == text


@given(dna_codes)
def test_reverse_complement_involution(codes):
    assert np.array_equal(reverse_complement(reverse_complement(codes)), codes)


# -- Smith-Waterman invariants -------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(dna_codes_nonempty, dna_codes_nonempty, scorings)
def test_kernel_equals_oracle(a, b, sc):
    want, *_ = sw_score_naive(a, b, sc)
    best = sw_score(a, b, sc)
    assert (best.score if best.row >= 0 else 0) == want


@settings(max_examples=40, deadline=None)
@given(dna_codes_nonempty, dna_codes_nonempty, scorings)
def test_score_symmetric_under_swap(a, b, sc):
    """The substitution matrix is symmetric, and gaps in a and b cost the
    same, so SW(a, b) == SW(b, a)."""
    sa = sw_score(a, b, sc)
    sb = sw_score(b, a, sc)
    assert (sa.score if sa.row >= 0 else 0) == (sb.score if sb.row >= 0 else 0)


@settings(max_examples=40, deadline=None)
@given(dna_codes_nonempty, dna_codes_nonempty, dna_codes_nonempty, scorings)
def test_score_monotone_under_extension(a, b, suffix, sc):
    """Appending sequence can only add candidate alignments, never remove:
    SW(a, b + suffix) >= SW(a, b)."""
    base = sw_score(a, b, sc)
    ext = sw_score(a, np.concatenate([b, suffix]), sc)
    base_s = base.score if base.row >= 0 else 0
    ext_s = ext.score if ext.row >= 0 else 0
    assert ext_s >= base_s


@settings(max_examples=30, deadline=None)
@given(dna_text.filter(lambda t: "N" not in t and len(t) >= 1), scorings)
def test_self_alignment_is_perfect(text, sc):
    codes = encode(text)
    best = sw_score(codes, codes, sc)
    assert best.score == len(text) * sc.match
    assert (best.row, best.col) == (len(text) - 1, len(text) - 1)


@settings(max_examples=25, deadline=None)
@given(dna_codes_nonempty, dna_codes_nonempty, scorings)
def test_local_always_geq_global(a, b, sc):
    """A global alignment is one candidate local alignment."""
    local = sw_score(a, b, sc)
    local_s = local.score if local.row >= 0 else 0
    assert local_s >= global_score(a, b, sc) or local_s >= 0


@st.composite
def seq_pairs(draw):
    """Two sequences over one alphabet: DNA+N, or two letters, whose
    score ties make co-optimal paths (the traceback's tie fallback)."""
    text = st.text(alphabet=draw(st.sampled_from(["ACGTN", "AC"])),
                   min_size=1, max_size=40)
    return encode(draw(text)), encode(draw(text))


@settings(max_examples=200, deadline=None)
@given(seq_pairs(), scorings, st.sampled_from([0, 1, 2, 3, 4, 5, 6, 7, 8]))
# Random draws reach the tie fallback in roughly 1% of binary-alphabet
# pairs; this pair always does (tests/test_stages.py::TestTieFallback).
@example(pair=(encode("ACCCACCCCAAACACAACAAAAACAA"),
               encode("CCCAAAAACACACAAAAACAACC")),
         sc=DNA_DEFAULT, interval=1)
def test_align_local_validates_and_matches_score(pair, sc, interval):
    a, b = pair
    want, *_ = sw_score_naive(a, b, sc)
    aln = align_local(a, b, sc, special_interval=interval, base_cells=16)
    assert aln.score == want
    aln.validate(a, b, sc)  # raises on any inconsistency


@settings(max_examples=25, deadline=None)
@given(dna_codes_nonempty, dna_codes_nonempty, scorings)
def test_myers_miller_ops_cover_inputs(a, b, sc):
    aln = align_global(a, b, sc, base_cells=16)
    counts = aln.op_counts()
    assert counts["M"] + counts["D"] == a.size
    assert counts["M"] + counts["I"] == b.size


# -- partition invariants --------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(
    st.integers(10, 100_000),
    st.lists(st.floats(0.1, 100.0), min_size=1, max_size=8),
)
def test_partition_covers_disjointly(n_cols, weights):
    if n_cols < len(weights):
        return
    slabs = proportional_partition(n_cols, weights)
    assert slabs[0].col0 == 0
    assert slabs[-1].col1 == n_cols
    for left, right in zip(slabs, slabs[1:]):
        assert left.col1 == right.col0
    assert sum(s.cols for s in slabs) == n_cols
    assert all(s.cols >= 1 for s in slabs)


@settings(max_examples=40, deadline=None)
@given(st.integers(1000, 1_000_000), st.lists(st.floats(1.0, 50.0), min_size=2, max_size=6))
def test_partition_proportionality(n_cols, weights):
    slabs = proportional_partition(n_cols, weights)
    total_w = sum(weights)
    for s, w in zip(slabs, weights):
        ideal = n_cols * w / total_w
        # bounded deviation: rounding plus neighbour nudges
        assert abs(s.cols - ideal) <= max(2.0, 0.02 * n_cols)


# -- ring buffer model test --------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(st.integers(1, 8), st.lists(st.sampled_from(["push", "pop"]), max_size=60))
def test_ringbuffer_behaves_like_deque(capacity, ops):
    from collections import deque

    rb = RingBuffer(capacity)
    model: deque = deque()
    counter = 0
    for op in ops:
        if op == "push" and len(model) < capacity:
            rb.push(counter)
            model.append(counter)
            counter += 1
        elif op == "pop" and model:
            assert rb.pop() == model.popleft()
        assert len(rb) == len(model)
        assert rb.full == (len(model) == capacity)
        assert rb.empty == (len(model) == 0)
    # drain and compare
    while model:
        assert rb.pop() == model.popleft()
