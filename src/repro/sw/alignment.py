"""Alignment value object: ops, coordinates, validation, rendering.

An :class:`Alignment` is the end product of the traceback stages.  It is
self-checking: :meth:`Alignment.rescore` recomputes the score implied by the
ops from the raw sequences, and :meth:`Alignment.validate` asserts internal
consistency (op counts match coordinate spans, score matches).  Every
pipeline that produces an alignment validates it before returning — an
inconsistent traceback is a library bug, never a user error, so it raises
:class:`~repro.errors.AlignmentError`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import AlignmentError
from ..seq import encoding
from ..seq.scoring import Scoring


@dataclass(frozen=True)
class Alignment:
    """One pairwise alignment of ``a[start_i:end_i]`` with ``b[start_j:end_j]``.

    Attributes
    ----------
    score:
        The DP score the producer claims for this alignment.
    ops:
        String over ``{M, D, I}``: ``M`` aligned pair, ``D`` consumes a
        base of *a* (gap in *b*), ``I`` consumes a base of *b* (gap in *a*).
    start_i/end_i, start_j/end_j:
        0-based, end-exclusive spans into *a* and *b*.
    """

    score: int
    ops: str
    start_i: int
    end_i: int
    start_j: int
    end_j: int

    def __post_init__(self) -> None:
        if not set(self.ops) <= {"M", "D", "I"}:
            raise AlignmentError(f"invalid ops {set(self.ops) - {'M', 'D', 'I'}}")

    # -- size accounting -------------------------------------------------
    @property
    def a_span(self) -> int:
        return self.end_i - self.start_i

    @property
    def b_span(self) -> int:
        return self.end_j - self.start_j

    @property
    def length(self) -> int:
        """Number of alignment columns."""
        return len(self.ops)

    def op_counts(self) -> dict[str, int]:
        return {op: self.ops.count(op) for op in "MDI"}

    # -- consistency ------------------------------------------------------
    def rescore(self, a_codes: np.ndarray, b_codes: np.ndarray, scoring: Scoring) -> int:
        """Recompute the score implied by ops against the raw sequences."""
        i, j = self.start_i, self.start_j
        score = 0
        gap_open_pending = {"D": True, "I": True}
        prev = ""
        for op in self.ops:
            if op == "M":
                score += int(scoring.matrix[a_codes[i], b_codes[j]])
                i += 1
                j += 1
            elif op == "D":
                score -= scoring.gap_extend + (scoring.gap_open if prev != "D" else 0)
                i += 1
            else:  # I
                score -= scoring.gap_extend + (scoring.gap_open if prev != "I" else 0)
                j += 1
            prev = op
        del gap_open_pending
        if (i, j) != (self.end_i, self.end_j):
            raise AlignmentError(
                f"ops walk to ({i},{j}) but alignment claims end ({self.end_i},{self.end_j})"
            )
        return score

    def validate(self, a_codes: np.ndarray, b_codes: np.ndarray, scoring: Scoring) -> None:
        """Raise :class:`AlignmentError` unless ops, spans and score agree."""
        counts = self.op_counts()
        if counts["M"] + counts["D"] != self.a_span:
            raise AlignmentError("op counts do not cover the a-span")
        if counts["M"] + counts["I"] != self.b_span:
            raise AlignmentError("op counts do not cover the b-span")
        actual = self.rescore(a_codes, b_codes, scoring)
        if actual != self.score:
            raise AlignmentError(f"claimed score {self.score} but ops score {actual}")

    # -- metrics ----------------------------------------------------------
    def identity(
        self,
        a_codes: np.ndarray,
        b_codes: np.ndarray,
        *,
        ambiguous: int | None = 4,
    ) -> float:
        """Fraction of alignment columns that are exact residue matches.

        ``ambiguous`` is the code excluded from counting as a match even
        when equal on both sides — by default 4, the DNA ``N``.  Pass 20
        for protein (the ``X`` code) or ``None`` to count every equal pair.
        """
        if not self.ops:
            return 0.0
        i, j, same = self.start_i, self.start_j, 0
        for op in self.ops:
            if op == "M":
                if a_codes[i] == b_codes[j] and (
                    ambiguous is None or a_codes[i] != ambiguous
                ):
                    same += 1
                i += 1
                j += 1
            elif op == "D":
                i += 1
            else:
                j += 1
        return same / len(self.ops)

    def cigar(self) -> str:
        """Run-length encoded ops (SAM-style CIGAR using M/D/I)."""
        if not self.ops:
            return ""
        parts: list[str] = []
        run_op = self.ops[0]
        run_len = 0
        for op in self.ops:
            if op == run_op:
                run_len += 1
            else:
                parts.append(f"{run_len}{run_op}")
                run_op, run_len = op, 1
        parts.append(f"{run_len}{run_op}")
        return "".join(parts)

    # -- rendering ----------------------------------------------------------
    def pretty(
        self,
        a_codes: np.ndarray,
        b_codes: np.ndarray,
        *,
        width: int = 60,
        max_lines: int = 40,
    ) -> str:
        """Human-readable blocked rendering (like BLAST pairwise output)."""
        # Only the first max_lines lines of columns are printed; each
        # sequence's aligned span is decoded once, up to the last of them.
        shown = self.ops[: max(0, width * max_lines)]
        a_text = iter(encoding.decode(
            a_codes[self.start_i : self.start_i + len(shown) - shown.count("I")]))
        b_text = iter(encoding.decode(
            b_codes[self.start_j : self.start_j + len(shown) - shown.count("D")]))
        a_line: list[str] = []
        m_line: list[str] = []
        b_line: list[str] = []
        for op in shown:
            if op == "M":
                ca = next(a_text)
                cb = next(b_text)
                a_line.append(ca)
                b_line.append(cb)
                m_line.append("|" if ca == cb and ca != "N" else ".")
            elif op == "D":
                a_line.append(next(a_text))
                b_line.append("-")
                m_line.append(" ")
            else:
                a_line.append("-")
                b_line.append(next(b_text))
                m_line.append(" ")
        out: list[str] = [
            f"score={self.score} a[{self.start_i}:{self.end_i}] b[{self.start_j}:{self.end_j}] len={self.length}"
        ]
        for start in range(0, len(shown), width):
            out.append("a: " + "".join(a_line[start : start + width]))
            out.append("   " + "".join(m_line[start : start + width]))
            out.append("b: " + "".join(b_line[start : start + width]))
            out.append("")
        if len(self.ops) > len(shown):
            out.append(f"... ({len(self.ops) - len(shown)} more columns)")
        return "\n".join(out)


def from_ops(
    score: int,
    ops: list[str] | str,
    start: tuple[int, int],
    end: tuple[int, int],
) -> Alignment:
    """Build an :class:`Alignment` from a traceback op list."""
    return Alignment(
        score=score,
        ops="".join(ops),
        start_i=start[0],
        end_i=end[0],
        start_j=start[1],
        end_j=end[1],
    )
