"""Vectorised Gotoh row-sweep kernel — the library's "GPU kernel".

This module computes a rectangular block of the affine-gap Smith-Waterman
(or Needleman-Wunsch) matrix given its top and left boundaries, producing
its bottom and right boundaries.  It is the unit of work a simulated GPU
executes, and it is also what the CPU baseline and the traceback stages are
built from.

Vectorisation strategy
----------------------
The Gotoh recurrences are::

    E[i,j] = max(E[i,j-1], H[i,j-1] - open) - ext       (horizontal gap)
    F[i,j] = max(F[i-1,j], H[i-1,j] - open) - ext       (vertical gap)
    H[i,j] = max(E[i,j], F[i,j], H[i-1,j-1] + s(a_i,b_j) [, 0 if local])

``F`` and the diagonal term depend only on row ``i-1`` and vectorise
directly.  ``E`` carries a dependency *along* the row, but Gotoh's
simplification (``E[j] = max(E[j-1], tempH[j-1] - open) - ext`` where
``tempH`` is ``H`` before the ``E`` contribution) turns it into a running
maximum: with ``Q[j] = tempH[j] - open + j*ext`` and ``e[j] = E[j]+j*ext``,

    e[j] = max(e[j-1], Q[j-1]),

i.e. a single ``np.maximum.accumulate`` per row.  Every row is therefore a
handful of fused NumPy vector operations — no Python-level loop over cells,
only over rows (the idiom recommended by the HPC guides: vectorise the
inner dimension, keep the interpreted loop on the outer one).

Boundary convention
-------------------
A block covers rows ``0..R-1`` and columns ``0..W-1`` in local coordinates.
Inputs are the DP values immediately *outside* the block:

* ``h_top[W]``, ``f_top[W]`` — row above the block,
* ``h_left[R]``, ``e_left[R]`` — column left of the block,
* ``h_diag`` — the corner cell above-left of the block.

Outputs mirror them (``h_bottom/f_bottom/h_right/e_right`` plus the new
corner).  Chaining blocks left-to-right and top-to-bottom with these
borders reproduces the monolithic DP bit-exactly; the multi-GPU engine
ships exactly ``(h_right, e_right)`` between devices, as the paper ships
border columns between neighbouring GPUs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from ..errors import ConfigError
from ..seq.scoring import Scoring
from .constants import DTYPE, MAX_SWEEP_WIDTH, NEG_INF, DpPolicy
from .scan import escan_row

#: Signature of the optional per-row callback: ``(local_row_index, H, E, F)``
#: with arrays valid only for the duration of the call (copy to keep).
RowSink = Callable[[int, np.ndarray, np.ndarray, np.ndarray], None]

#: A row engine of :func:`sweep_protocol`, called like :func:`_row_loop`:
#: it sweeps in its inputs' dtype, may overwrite ``h_top``/``f_top``, and
#: returns ``None`` once a final-H row maximum reaches an int *cap*.
RowEngine = Callable[..., "BlockResult | None"]


@dataclass(frozen=True)
class BestCell:
    """Best DP cell seen: value and local (row, col) inside the block."""

    score: int
    row: int
    col: int

    @staticmethod
    def none() -> "BestCell":
        return BestCell(NEG_INF, -1, -1)

    def shifted(self, row0: int, col0: int) -> "BestCell":
        """The same cell in global coordinates (block origin at row0/col0)."""
        if self.row < 0:
            return self
        return BestCell(self.score, self.row + row0, self.col + col0)

    def better_than(self, other: "BestCell") -> bool:
        """Strictly better, or equal and earlier in row-major order (the
        deterministic tie-break used across the whole library)."""
        if self.score != other.score:
            return self.score > other.score
        if self.row != other.row:
            return 0 <= self.row < other.row or other.row < 0 <= self.row
        return 0 <= self.col < other.col or other.col < 0 <= self.col


@dataclass
class BlockResult:
    """Boundary outputs of one block sweep (see module docstring)."""

    h_bottom: np.ndarray
    f_bottom: np.ndarray
    h_right: np.ndarray
    e_right: np.ndarray
    corner: int  #: H at local (R-1, W-1); the diag input for the block below-right
    best: BestCell
    dtype: str = "int32"     #: DP dtype the block was actually computed in
    escalated: bool = False  #: a narrow attempt overflowed and was redone wide


def local_boundaries(rows: int, cols: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """Boundaries of a block at the matrix origin under *local* (SW) rules:
    H borders are 0, gap states are -inf."""
    h_top = np.zeros(cols, dtype=DTYPE)
    f_top = np.full(cols, NEG_INF, dtype=DTYPE)
    h_left = np.zeros(rows, dtype=DTYPE)
    e_left = np.full(rows, NEG_INF, dtype=DTYPE)
    return h_top, f_top, h_left, e_left, 0


def global_boundaries(
    rows: int, cols: int, scoring: Scoring
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """Boundaries at the origin under *global* (NW-Gotoh) rules: leading
    gaps are charged, so border H values are the gap costs."""
    j = np.arange(1, cols + 1, dtype=DTYPE)
    i = np.arange(1, rows + 1, dtype=DTYPE)
    h_top = (-scoring.gap_open - j * scoring.gap_extend).astype(DTYPE)
    h_left = (-scoring.gap_open - i * scoring.gap_extend).astype(DTYPE)
    # A path along the top border is inside a horizontal gap; entering the
    # matrix vertically from it re-opens, so F on the border is the gap value
    # minus nothing extra: classic NW-Gotoh uses F_top = -inf unless gaps may
    # chain; we keep -inf (a vertical gap cannot be a continuation of the
    # border's horizontal gap).
    f_top = np.full(cols, NEG_INF, dtype=DTYPE)
    e_left = np.full(rows, NEG_INF, dtype=DTYPE)
    return h_top, f_top, h_left, e_left, 0


def build_profile(b_codes: np.ndarray, scoring: Scoring) -> np.ndarray:
    """Per-column substitution profile ``P[x, j] = score(x, b[j])``.

    Row ``x`` is the score vector of every column base against vertical
    base ``x``; the sweep fetches one contiguous row per DP row.
    """
    return scoring.matrix.take(b_codes.astype(np.intp), axis=1).astype(DTYPE)


def narrow_entry_ok(
    h_top: np.ndarray,
    f_top: np.ndarray,
    h_left: np.ndarray,
    e_left: np.ndarray,
    h_diag: int,
    cap: int,
) -> bool:
    """Whether a block's int32 borders admit a narrow sweep under *cap*.

    H borders must be non-negative (the soundness argument for plain
    ``astype`` widening of the outputs needs the local-clamp invariant
    to hold from row 0) and every border value must sit under the
    overflow cap so the per-row cap check's induction base holds.  E/F
    borders may be arbitrarily negative — narrowing clips them to the
    policy sentinel, which is exact for the clipped local recurrence.
    """
    return (0 <= h_diag < cap
            and int(h_top.min()) >= 0 and int(h_top.max()) < cap
            and int(h_left.min()) >= 0 and int(h_left.max()) < cap
            and int(f_top.max()) < cap
            and int(e_left.max()) < cap)


def check_block(rows: int, cols: int, h_top: np.ndarray, f_top: np.ndarray,
                h_left: np.ndarray, e_left: np.ndarray) -> None:
    """The block shape every kernel accepts: non-empty, at most
    :data:`MAX_SWEEP_WIDTH` columns, one top border entry per column and
    one left border entry per row."""
    if rows == 0 or cols == 0:
        raise ConfigError("a block sweep requires a non-empty block")
    if cols > MAX_SWEEP_WIDTH:
        raise ConfigError(f"block width {cols} exceeds MAX_SWEEP_WIDTH={MAX_SWEEP_WIDTH}")
    if h_top.shape != (cols,) or f_top.shape != (cols,):
        raise ConfigError("h_top/f_top must have one entry per block column")
    if h_left.shape != (rows,) or e_left.shape != (rows,):
        raise ConfigError("h_left/e_left must have one entry per block row")


def sweep_protocol(rows: RowEngine, a_codes, profile, h_top, f_top, h_left,
                   e_left, h_diag: int, scoring: Scoring, *, local: bool,
                   track_best: bool, dp: DpPolicy | None) -> BlockResult:
    """Sweep one block on the row engine *rows*, narrow first under *dp*.

    A narrow local sweep checks the block's width against the policy and
    its borders against the overflow cap (:func:`narrow_entry_ok`),
    narrows the borders (E/F sentinels clipped to ``dp.neg_inf``) and
    runs *rows* in ``dp.kind`` with the cap.  A cap hit, or borders the
    gate refuses, recompute the block in int32 (``escalated=True``), so
    the result is bit-identical to the wide sweep.  Outputs are int32.
    """
    R = int(a_codes.size)
    W = int(profile.shape[1])
    check_block(R, W, h_top, f_top, h_left, e_left)
    escalated = False
    if dp is not None and dp.narrow and local:
        max_w = dp.max_width(scoring)
        if W > max_w:
            raise ConfigError(
                f"block width {W} exceeds {dp.name} max sweep width {max_w} "
                f"under this scoring scheme")
        cap = dp.overflow_limit(scoring, W)
        if narrow_entry_ok(h_top, f_top, h_left, e_left, h_diag, cap):
            kind = dp.kind
            result = rows(
                a_codes, profile.astype(kind, copy=False), h_top.astype(kind),
                np.maximum(f_top, dp.neg_inf).astype(kind), h_left.astype(kind),
                np.maximum(e_left, dp.neg_inf).astype(kind), h_diag, scoring,
                cap, local=True, track_best=track_best)
            if result is not None:
                # Plain widening is exact: local clamping plus non-negative
                # H borders mean no output can carry a sentinel-derived
                # value (INTERNALS.md §11).
                return BlockResult(
                    result.h_bottom.astype(DTYPE), result.f_bottom.astype(DTYPE),
                    result.h_right.astype(DTYPE), result.e_right.astype(DTYPE),
                    result.corner, result.best, dtype=dp.name)
        escalated = True
    result = rows(
        a_codes, profile.astype(DTYPE, copy=False), h_top.astype(DTYPE),
        f_top.astype(DTYPE), h_left.astype(DTYPE, copy=False),
        e_left.astype(DTYPE, copy=False), h_diag, scoring, None,
        local=local, track_best=track_best)
    result.escalated = escalated
    return result


def _row_loop(a_codes: np.ndarray, profile: np.ndarray, h_top: np.ndarray,
              f_top: np.ndarray, h_left: np.ndarray, e_left: np.ndarray,
              h_diag: int, scoring: Scoring, cap: int | None, *, local: bool,
              track_best: bool, row_sink: RowSink | None = None,
              sink_interval: int = 0) -> BlockResult | None:
    """The NumPy row engine: the Gotoh row sweep in the borders' dtype.

    With a *cap*, the final-H maximum of every row is compared to it: a
    maximum below the cap certifies (INTERNALS.md §11) that no
    intermediate of the row left the dtype's range, and a maximum at or
    above it returns ``None`` at once.
    """
    R = int(a_codes.size)
    W = int(profile.shape[1])
    kind = h_top.dtype.type
    open_ = kind(scoring.gap_open)
    ext = kind(scoring.gap_extend)

    h_prev = h_top  # the protocol's own copies: the sweep reuses them
    f_prev = f_top
    h_right = np.empty(R, dtype=kind)
    e_right = np.empty(R, dtype=kind)

    # Reusable scratch (one allocation set per block, not per row).
    j_ext = (np.arange(W, dtype=kind) * ext).astype(kind)
    diag = np.empty(W, dtype=kind)
    temp = np.empty(W, dtype=kind)
    scan = np.empty(W, dtype=kind)
    e_row = np.empty(W, dtype=kind)
    f_row = np.empty(W, dtype=kind)

    best = BestCell.none()
    best_score = NEG_INF if not local else 0  # local never reports < 0 cells
    corner_prev = kind(h_diag)  # H at (i-1, -1): left border of previous row

    for i in range(R):
        sub = profile[a_codes[i]]

        # F (vertical gap): depends only on the previous row.
        np.maximum(f_prev, h_prev - open_, out=f_row)
        f_row -= ext

        # Diagonal term H[i-1, j-1] + s.
        diag[0] = corner_prev
        diag[1:] = h_prev[:-1]
        np.add(diag, sub, out=temp)
        np.maximum(temp, f_row, out=temp)
        if local:
            np.maximum(temp, 0, out=temp)

        # E (horizontal gap) via running maximum:
        #   e[j] = E[j] + j*ext;  e[j] = max(e[j-1], Q[j-1]),
        #   Q[j] = tempH[j] - open + j*ext;
        #   e[0] = E[0] = max(E_left, H_left - open) - ext.
        # The shared helper writes Q pre-shifted and evaluates the
        # prefix-max with the active scan engine (see sw/scan.py).
        escan_row(temp, h_left[i], e_left[i], open_, ext, j_ext, scan, e_row)

        np.maximum(temp, e_row, out=temp)  # temp is now the final H row

        if track_best or cap is not None:
            j = int(temp.argmax())
            m = int(temp[j])
            if cap is not None and m >= cap:
                return None
            if track_best and m > best_score:
                best_score = m
                best = BestCell(m, i, j)

        if row_sink is not None and (i + 1) % sink_interval == 0:
            row_sink(i, temp, e_row, f_row)

        h_right[i] = temp[-1]
        e_right[i] = e_row[-1]
        corner_prev = h_left[i]
        h_prev, temp = temp, h_prev  # swap buffers; h_prev now holds row i
        f_prev, f_row = f_row, f_prev

    return BlockResult(h_prev, f_prev, h_right, e_right, int(h_prev[-1]), best)


def sweep_block(
    a_codes: np.ndarray,
    profile: np.ndarray,
    h_top: np.ndarray,
    f_top: np.ndarray,
    h_left: np.ndarray,
    e_left: np.ndarray,
    h_diag: int,
    scoring: Scoring,
    *,
    local: bool = True,
    track_best: bool = True,
    row_sink: RowSink | None = None,
    sink_interval: int = 0,
    dp: DpPolicy | None = None,
) -> BlockResult:
    """Sweep one block row-by-row (see module docstring for the contract).

    Parameters
    ----------
    a_codes:
        Vertical-sequence codes for the block's rows (length R).
    profile:
        ``(5, W)`` profile from :func:`build_profile` for the block's
        columns.
    local:
        True for Smith-Waterman (clamp at 0, track best cell); False for
        the unclamped global recurrence used by the traceback stages.
    row_sink / sink_interval:
        When ``sink_interval > 0``, ``row_sink(i, H, E, F)`` is invoked for
        every local row ``i`` with ``(i+1) % sink_interval == 0`` — the
        "special rows" the traceback stages consume.  Arrays must be copied
        by the sink if kept.  A row sink always sweeps in int32.
    dp:
        Optional narrow :class:`~repro.sw.constants.DpPolicy`, run under
        :func:`sweep_protocol`: the result is always bit-identical to
        int32, and borders and outputs stay int32 either way.
    """
    rows: RowEngine = _row_loop
    if row_sink is not None:
        if sink_interval <= 0:
            raise ConfigError("row_sink requires a positive sink_interval")
        rows = partial(_row_loop, row_sink=row_sink, sink_interval=sink_interval)
        dp = None
    return sweep_protocol(
        rows, a_codes, profile, h_top, f_top, h_left, e_left, h_diag,
        scoring, local=local, track_best=track_best, dp=dp)


def sw_score(
    a_codes: np.ndarray,
    b_codes: np.ndarray,
    scoring: Scoring,
    *,
    row_sink: RowSink | None = None,
    sink_interval: int = 0,
) -> BestCell:
    """Linear-space local (SW) score of the whole matrix in one block.

    Returns the best cell with 0-based *end* coordinates: ``row``/``col``
    are the indices of the last aligned pair in ``a``/``b``.
    """
    h_top, f_top, h_left, e_left, corner = local_boundaries(a_codes.size, b_codes.size)
    profile = build_profile(b_codes, scoring)
    result = sweep_block(
        a_codes, profile, h_top, f_top, h_left, e_left, corner, scoring,
        local=True, row_sink=row_sink, sink_interval=sink_interval,
    )
    return result.best
