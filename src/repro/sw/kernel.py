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

import hashlib
from collections import OrderedDict
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Iterable

import numpy as np

from ..errors import ConfigError
from ..seq.scoring import Scoring, matrix_digest
from .constants import DTYPE, MAX_SWEEP_WIDTH, NEG_INF, DpPolicy, get_policy
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

    @staticmethod
    def best_of(cells: Iterable["BestCell"]) -> "BestCell":
        """The best of *cells* under :meth:`better_than` (none if empty)."""
        best = BestCell.none()
        for cell in cells:
            if cell.better_than(best):
                best = cell
        return best


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
    #: A windowed sweep's cell count and the live hull ``[lo, hi)`` of
    #: its bottom row, outside which ``h_bottom``/``f_bottom`` hold
    #: restart values; ``None`` when every cell was computed.
    cells: int | None = None
    live: tuple[int, int] | None = None


#: Rows between two trims of a windowed sweep's live window.  Every row
#: engine trims on the same rows, so their outputs stay bit-identical.
TRIM_ROWS = 8


@dataclass(frozen=True)
class LiveWindow:
    """The pruning bound applied per cell (INTERNALS.md section 7).

    A cell at local ``(i, j)`` is *dead* when ``H + match * min(rows_left
    - i, cols_left - j) < best``: a local path gains at most ``match``
    per diagonal step and has that many steps left.  ``best`` is the
    score to beat when the sweep starts; the sweep raises it with its
    own best cell.  Dead cells become restart values (``H = 0``, gap
    states ``dead``), and each row is computed only over ``[lo, hi)``,
    the hull of the cells that can still be live.  The top border holds
    restart values outside ``[lo, hi)``.
    """

    best: int
    match: int
    rows_left: int  #: diagonal steps left below local row 0: ``m - 1 - row0``
    cols_left: int  #: diagonal steps left right of local column 0
    lo: int
    hi: int
    dead: int = NEG_INF  #: the restart gap state, the sweep dtype's sentinel

    def fresh_need(self, best: int) -> int:
        """Diagonal steps a fresh start (``H <= match``) needs after its
        cell to reach *best*."""
        return -(-best // self.match) - 1

    def left_open(self, h_left: np.ndarray, e_left: np.ndarray,
                  h_diag: int) -> np.ndarray:
        """Per row, whether the left border (its H, E or the corner above
        it) can make column 0 live: such a row's window opens at 0."""
        rows = h_left.size
        corner = np.empty(rows, dtype=np.int64)
        corner[0] = h_diag
        corner[1:] = h_left[:-1]
        entry = np.maximum(np.maximum(h_left, e_left), corner + self.match)
        steps = np.minimum(self.rows_left - np.arange(rows), self.cols_left)
        return entry + self.match * steps >= self.best

    def reach(self, e_out: int, best: int, row: int, col: int,
              ext: int) -> int:
        """How many columns from *col* on the E entering it, *e_out*,
        keeps live on its own (``e_out - t * ext`` at column ``col + t``;
        every other predecessor of those cells is dead)."""
        spare_rows = e_out + self.match * (self.rows_left - row) - best
        spare_cols = e_out + self.match * (self.cols_left - col) - best
        if spare_rows < 0 or spare_cols < 0:
            return 0
        return min(spare_rows // ext, spare_cols // (ext + self.match)) + 1


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


class ProfileCache:
    """Content-keyed LRU over :func:`build_profile`.

    The key is ``(sequence digest, length, dtype, DP dtype,
    substitution-matrix digest)`` — a stable identity for the *value* of
    the sequence, so the pool workers (which receive a fresh copy of
    their slab per comparison) hit the cache whenever the content
    repeats.  Digesting costs one linear
    read of the codes; a build costs five linear writes of int32, so a
    hit saves ~95% of the profile-construction memory traffic.  Capacity
    is small by design: profiles are 20 bytes per column and megabase
    entries are large.
    """

    def __init__(self, capacity: int = 4) -> None:
        if capacity <= 0:
            raise ConfigError("profile cache capacity must be positive")
        self.capacity = capacity
        self._entries: "OrderedDict[tuple, np.ndarray]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @staticmethod
    def key_of(b_codes: np.ndarray, scoring: Scoring,
               dp_dtype: str = "int32") -> tuple:
        codes = np.ascontiguousarray(b_codes)
        digest = hashlib.blake2b(codes.data, digest_size=16).digest()
        # The profile is columns of the substitution matrix: key on all
        # of it, whatever scheme (DNA match/mismatch or a protein matrix)
        # built it.
        return (digest, codes.size, codes.dtype.str, dp_dtype,
                matrix_digest(scoring))

    def get(self, b_codes: np.ndarray, scoring: Scoring,
            dp_dtype: str = "int32") -> np.ndarray:
        # The DP dtype is part of the key: a cached narrow profile served
        # to a wide sweep (or vice versa) would silently change element
        # widths mid-run, so each dtype caches its own entry.
        key = self.key_of(b_codes, scoring, dp_dtype)
        profile = self._entries.get(key)
        if profile is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            return profile
        self.misses += 1
        profile = build_profile(b_codes, scoring)
        if dp_dtype != "int32":
            profile = profile.astype(get_policy(dp_dtype).kind)
        self._entries[key] = profile
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
        return profile

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()


#: Process-wide default cache used by the engines (each OS process gets
#: its own copy, so the pool's slab workers each cache their own slab).
_DEFAULT_PROFILE_CACHE = ProfileCache()


def cached_profile(
    b_codes: np.ndarray, scoring: Scoring, cache: ProfileCache | None = None,
    dp_dtype: str = "int32",
) -> np.ndarray:
    """:func:`build_profile` through an LRU (treat the
    result as read-only — it is shared between callers)."""
    return (cache or _DEFAULT_PROFILE_CACHE).get(b_codes, scoring, dp_dtype)


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
                   track_best: bool, dp: DpPolicy | None,
                   window: LiveWindow | None = None) -> BlockResult:
    """Sweep one block on the row engine *rows*, narrow first under *dp*.

    A narrow local sweep checks the block's width against the policy and
    its borders against the overflow cap (:func:`narrow_entry_ok`),
    narrows the borders (E/F sentinels clipped to ``dp.neg_inf``) and
    runs *rows* in ``dp.kind`` with the cap.  A cap hit, or borders the
    gate refuses, recompute the block in int32 (``escalated=True``), so
    the result is bit-identical to the wide sweep.  Outputs are int32.
    A *window* (local sweeps only) is handed to the row engine with the
    sweep dtype's sentinel as its restart gap state.
    """
    R = int(a_codes.size)
    W = int(profile.shape[1])
    check_block(R, W, h_top, f_top, h_left, e_left)
    if window is not None and not local:
        raise ConfigError("a live window needs a local sweep")
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
                cap, local=True, track_best=track_best,
                window=window and replace(window, dead=dp.neg_inf))
            if result is not None:
                # Plain widening is exact: local clamping plus non-negative
                # H borders mean no output can carry a sentinel-derived
                # value (INTERNALS.md §11).  A window's restart gap states
                # are the sentinel itself, widened to NEG_INF.
                f_bottom = result.f_bottom.astype(DTYPE)
                e_right = result.e_right.astype(DTYPE)
                if window is not None:
                    for gaps in (f_bottom, e_right):
                        np.copyto(gaps, NEG_INF, where=gaps == dp.neg_inf)
                return BlockResult(
                    result.h_bottom.astype(DTYPE), f_bottom,
                    result.h_right.astype(DTYPE), e_right,
                    result.corner, result.best, dtype=dp.name,
                    cells=result.cells, live=result.live)
        escalated = True
    result = rows(
        a_codes, profile.astype(DTYPE, copy=False), h_top.astype(DTYPE),
        f_top.astype(DTYPE), h_left.astype(DTYPE, copy=False),
        e_left.astype(DTYPE, copy=False), h_diag, scoring, None,
        local=local, track_best=track_best, window=window)
    result.escalated = escalated
    return result


def _gotoh_row(sub, h_prev, f_prev, diag, h_left_i, e_left_i, open_, ext,
               j_ext, temp, scan, e_row, f_row, local: bool) -> None:
    """One row of the recurrence over equally long column slices:
    *h_prev*/*f_prev* hold the row above, *diag* the H above-left of each
    column and *h_left_i*/*e_left_i* the H/E left of the first.  Leaves
    the final H in *temp*, E in *e_row* and F in *f_row*; *j_ext* and
    *scan* are scratch of the same length."""
    # F (vertical gap): depends only on the previous row.
    np.subtract(h_prev, open_, out=f_row)
    np.maximum(f_row, f_prev, out=f_row)
    f_row -= ext

    # Diagonal term H[i-1, j-1] + s.
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
    escan_row(temp, h_left_i, e_left_i, open_, ext, j_ext, scan, e_row)

    np.maximum(temp, e_row, out=temp)  # temp is now the final H row


def _row_loop(a_codes: np.ndarray, profile: np.ndarray, h_top: np.ndarray,
              f_top: np.ndarray, h_left: np.ndarray, e_left: np.ndarray,
              h_diag: int, scoring: Scoring, cap: int | None, *, local: bool,
              track_best: bool, window: LiveWindow | None = None,
              row_sink: RowSink | None = None,
              sink_interval: int = 0) -> BlockResult | None:
    """The NumPy row engine: the Gotoh row sweep in the borders' dtype.

    With a *cap*, the final-H maximum of every row is compared to it: a
    maximum below the cap certifies (INTERNALS.md §11) that no
    intermediate of the row left the dtype's range, and a maximum at or
    above it returns ``None`` at once.  A *window* sweeps each row over
    its live cells only (:func:`_window_loop`).
    """
    if window is not None:
        return _window_loop(a_codes, profile, h_top, f_top, h_left, e_left,
                            h_diag, scoring, cap, track_best=track_best,
                            window=window)
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
        diag[0] = corner_prev
        diag[1:] = h_prev[:-1]
        _gotoh_row(profile[a_codes[i]], h_prev, f_prev, diag, h_left[i],
                   e_left[i], open_, ext, j_ext, temp, scan, e_row, f_row,
                   local)

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


def _window_loop(a_codes: np.ndarray, profile: np.ndarray, h_top: np.ndarray,
                 f_top: np.ndarray, h_left: np.ndarray, e_left: np.ndarray,
                 h_diag: int, scoring: Scoring, cap: int | None, *,
                 track_best: bool, window: LiveWindow) -> BlockResult | None:
    """:func:`_row_loop` over each row's live window (local sweeps).

    Row *i* opens one diagonal step right of the row above's window, at
    column 0 too when a fresh start or the left border can be live
    there; the E leaving its right end widens it while that E stays
    live (:meth:`LiveWindow.reach`); the row buffer's stale cells, from
    two rows up, are reset to restart values, since stale values are no
    lower bounds; and every :data:`TRIM_ROWS` rows, and on the last,
    the window shrinks to the hull of the row's live cells (right of the
    next row's fresh-start prefix, which stays in any case).
    """
    R = int(a_codes.size)
    W = int(profile.shape[1])
    kind = h_top.dtype.type
    open_ = kind(scoring.gap_open)
    ext = kind(scoring.gap_extend)
    gap_open, gap_ext = int(scoring.gap_open), int(scoring.gap_extend)
    match, dead, zero = window.match, kind(window.dead), kind(0)
    h_diag = kind(h_diag)
    rows_left, cols_left = window.rows_left, window.cols_left

    h_prev, f_prev = h_top, f_top  # restart values outside the top hull
    temp = np.zeros(W, dtype=kind)  # restart values: nothing stale yet
    f_row = np.full(W, dead, dtype=kind)
    h_right = np.zeros(R, dtype=kind)  # restart values where W - 1 is dead
    e_right = np.full(R, dead, dtype=kind)
    j_ext = (np.arange(W, dtype=kind) * ext).astype(kind)
    diag = np.empty(W, dtype=kind)
    scan = np.empty(W, dtype=kind)
    e_row = np.empty(W, dtype=kind)
    left = window.left_open(h_left, e_left, h_diag).tolist()

    bound = window.best  # raised by the sweep's own best cell
    need = window.fresh_need(bound)
    best, best_score = BestCell.none(), 0
    wlo, whi = window.lo, window.hi  # the row above's live hull
    # Columns holding non-restart values: the row above's buffer and
    # the buffer this row overwrites.
    prev_lo, prev_hi, cur_lo, cur_hi = wlo, whi, 0, 0
    cells = 0

    for i in range(R):
        lo, hi = wlo, whi
        if lo < hi < W:
            hi += 1
        if rows_left - i >= need and cols_left - need >= 0:
            lo, hi = 0, max(hi, min(W, cols_left - need + 1))
        elif left[i]:
            lo, hi = 0, max(hi, 1)
        if lo < hi:
            k = hi - lo
            if lo:  # the cell left of the window holds restart values
                above_left, h_in, e_in = h_prev[lo - 1:hi - 1], zero, dead
            else:
                above_left = diag[:k]
                above_left[0] = h_left[i - 1] if i else h_diag
                above_left[1:] = h_prev[:k - 1]
                h_in, e_in = h_left[i], e_left[i]
            _gotoh_row(profile[a_codes[i], lo:hi], h_prev[lo:hi],
                       f_prev[lo:hi], above_left, h_in, e_in, open_, ext,
                       j_ext[:k], temp[lo:hi], scan[:k], e_row[lo:hi],
                       f_row[lo:hi], True)
            # The E leaving the window is at most H[hi - 1] - ext.
            if hi < W and temp.item(hi - 1) - gap_ext + match * min(
                    rows_left - i, cols_left - hi) >= bound:
                e_out = max(e_row.item(hi - 1),
                            temp.item(hi - 1) - gap_open) - gap_ext
                count = min(W - hi, window.reach(e_out, bound, i, hi, gap_ext))
                if count:
                    end = hi + count
                    np.subtract(kind(e_out), j_ext[:count], out=temp[hi:end])
                    e_row[hi:end] = temp[hi:end]
                    f_row[hi:end] = dead
                    hi = end
            row = temp[lo:hi]
            j = int(row.argmax())
            top = row.item(j)
            j += lo
            if cap is not None and top >= cap:
                return None
            if track_best and top > best_score:
                best_score = top
                best = BestCell(top, i, j)
            if top > bound:
                bound, need = top, window.fresh_need(top)
            if hi == W:
                h_right[i] = temp[-1]
                e_right[i] = e_row[-1]
        else:
            lo = hi = 0
        # Reset the stale cells this row did not overwrite.
        if cur_lo < cur_hi:
            if cur_lo < lo:
                temp[cur_lo:min(cur_hi, lo)] = 0
                f_row[cur_lo:min(cur_hi, lo)] = dead
            if hi < cur_hi:
                temp[max(cur_lo, hi):cur_hi] = 0
                f_row[max(cur_lo, hi):cur_hi] = dead
        cur_lo, cur_hi, prev_lo, prev_hi = prev_lo, prev_hi, lo, hi
        cells += hi - lo
        if lo < hi and ((i + 1) % TRIM_ROWS == 0 or i == R - 1):
            # The window shrinks to the row's live hull.  The next row's
            # fresh-start prefix is in its window whatever this row holds,
            # so only the columns right of that prefix are trimmed.
            keep = 0
            if rows_left - i > need and cols_left >= need:
                keep = min(hi, cols_left - need + 1)
            start = max(lo, keep)
            a, b = (_live_hull(temp, start, hi, bound, match, rows_left - i,
                               cols_left) if start < hi else (0, 0))
            if keep > lo:
                hi = b if a < b else keep
            else:
                lo, hi = a, b
        wlo, whi = lo, hi
        h_prev, temp = temp, h_prev  # swap buffers; h_prev now holds row i
        f_prev, f_row = f_row, f_prev

    # The bottom row's dead cells outside its live hull restart too.
    for a, b in ((prev_lo, min(prev_hi, wlo)), (max(prev_lo, whi), prev_hi)):
        if a < b:
            h_prev[a:b] = 0
            f_prev[a:b] = dead
    return BlockResult(h_prev, f_prev, h_right, e_right, int(h_prev[-1]),
                       best, cells=cells, live=(wlo, whi))


def _live_hull(h: np.ndarray, lo: int, hi: int, bound: int, match: int,
               rows_left: int, cols_left: int) -> tuple[int, int]:
    """The hull of the live cells of ``h[lo:hi]`` in a row with
    *rows_left* diagonal steps below it (``(0, 0)``: none is live)."""
    row = h[lo:hi]
    live = row >= bound - match * rows_left
    # Right of column cols_left - rows_left, the columns left bind.
    s = max(lo, cols_left - rows_left + 1)
    if s < hi:
        cols = np.arange(s, hi, dtype=np.int64)
        live[s - lo:] &= row[s - lo:] >= bound - match * (cols_left - cols)
    first = int(live.argmax())
    if not live[first]:
        return 0, 0
    return lo + first, hi - int(live[::-1].argmax())


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
    window: LiveWindow | None = None,
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
    window:
        Optional :class:`LiveWindow`: compute only the cells that can
        still beat its best score (local sweeps, no row sink).
    """
    rows: RowEngine = _row_loop
    if row_sink is not None:
        if sink_interval <= 0:
            raise ConfigError("row_sink requires a positive sink_interval")
        if window is not None:
            raise ConfigError("a row sink needs every cell of its rows")
        rows = partial(_row_loop, row_sink=row_sink, sink_interval=sink_interval)
        dp = None
    return sweep_protocol(
        rows, a_codes, profile, h_top, f_top, h_left, e_left, h_diag,
        scoring, local=local, track_best=track_best, dp=dp, window=window)


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
