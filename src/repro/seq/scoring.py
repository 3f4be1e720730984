"""Scoring schemes for nucleotide Smith-Waterman with affine gaps.

The default parameters are the ones the CUDAlign family uses for DNA
(match ``+1``, mismatch ``-3``, first gap base ``-5``, each further gap base
``-2``), expressed here as ``gap_open = 3`` and ``gap_extend = 2`` with the
convention that a gap of length ``L`` costs ``gap_open + L * gap_extend``.

``N`` never matches anything (including another ``N``): comparisons touching
an ambiguous base score the mismatch penalty, which is what megabase DNA
aligners do so that masked repeat runs cannot inflate the score.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError, ScoringError
from . import alphabet


@dataclass(frozen=True)
class Scoring:
    """Affine-gap nucleotide scoring scheme.

    Attributes
    ----------
    match:
        Score added when two identical unambiguous bases align. Must be > 0
        for local alignment to be meaningful.
    mismatch:
        Score added when two different (or ambiguous) bases align.
        Must be <= 0.
    gap_open:
        One-time penalty charged when a gap is opened (non-negative).
        A gap of length ``L`` costs ``gap_open + L * gap_extend``.
    gap_extend:
        Per-base gap penalty (positive).
    """

    match: int = 1
    mismatch: int = -3
    gap_open: int = 3
    gap_extend: int = 2
    #: 5x5 substitution matrix derived from match/mismatch (int32); computed
    #: in __post_init__ and cached on the instance.
    matrix: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.match <= 0:
            raise ScoringError(f"match score must be positive, got {self.match}")
        if self.mismatch > 0:
            raise ScoringError(f"mismatch score must be <= 0, got {self.mismatch}")
        if self.gap_open < 0:
            raise ScoringError(f"gap_open must be >= 0, got {self.gap_open}")
        if self.gap_extend <= 0:
            raise ScoringError(f"gap_extend must be positive, got {self.gap_extend}")
        m = np.full((alphabet.ALPHABET_SIZE, alphabet.ALPHABET_SIZE), self.mismatch, dtype=np.int32)
        for i in range(4):
            m[i, i] = self.match
        # N vs anything (incl. N) is a mismatch.
        m[alphabet.N, :] = self.mismatch
        m[:, alphabet.N] = self.mismatch
        object.__setattr__(self, "matrix", m)

    @property
    def gap_first(self) -> int:
        """Cost of the first base of a gap (``gap_open + gap_extend``)."""
        return self.gap_open + self.gap_extend

    def substitution_profile(self, query: np.ndarray) -> np.ndarray:
        """Pre-compute the query profile used by the vectorised kernels.

        Returns an ``(ALPHABET_SIZE, len(query))`` int32 array ``P`` where
        ``P[b, i] == matrix[query[i], b]``: row ``b`` is the score vector of
        aligning every query base against subject base ``b``.  Kernels then
        fetch a whole row per subject base instead of gathering per cell.
        """
        return self.matrix[query.astype(np.intp), :].T.copy()

    def gap_cost(self, length: int) -> int:
        """Total penalty of a gap of *length* bases (0 length costs 0)."""
        if length < 0:
            raise ScoringError("gap length must be >= 0")
        return 0 if length == 0 else self.gap_open + length * self.gap_extend


def matrix_digest(scoring) -> bytes:
    """A 16-byte digest of *scoring*'s substitution matrix (its shape and
    values): the one key of the substitution scores, for a DNA
    match/mismatch scheme or a protein matrix alike."""
    matrix = np.ascontiguousarray(scoring.matrix)
    h = hashlib.blake2b(str(matrix.shape).encode(), digest_size=16)
    h.update(matrix.data)
    return h.digest()


def check_pair(a_codes, b_codes, scoring) -> None:
    """Refuse a pair *scoring* cannot score, before any engine runs it:
    each side a non-empty 1-D integer array of codes in ``[0,
    scoring.matrix.shape[0])``.  One min/max pass each, no copy."""
    letters = scoring.matrix.shape[0]
    for side, codes in (("a", a_codes), ("b", b_codes)):
        if not (isinstance(codes, np.ndarray) and codes.ndim == 1
                and codes.dtype.kind in "iu"):
            raise ConfigError(f"sequence {side} must be a 1-D integer array")
        if codes.size == 0:
            raise ConfigError("sequences must be non-empty")
        if codes.min() < 0 or codes.max() >= letters:
            raise ConfigError(f"sequence {side} has a code outside the "
                              f"scoring's {letters}-letter alphabet")


#: The scheme used throughout the paper's system for DNA.
DNA_DEFAULT = Scoring(match=1, mismatch=-3, gap_open=3, gap_extend=2)

#: A blunter scheme handy in tests (no gap-open, pure linear gaps).
LINEAR_GAPS = Scoring(match=1, mismatch=-1, gap_open=0, gap_extend=1)
