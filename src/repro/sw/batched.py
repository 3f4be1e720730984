"""Batched wavefront kernel: one NumPy sweep per row across many blocks.

The paper's premise is fine-grain wavefront parallelism — every block on
one external anti-diagonal is independent, so a GPU computes them all
concurrently.  The scalar path (:func:`repro.sw.kernel.sweep_block`) pays
the Python-level row loop once *per block*, which is exactly the
kernel-launch/amortisation overhead GPU aligners batch away.  This module
stacks all ``B`` resident blocks of a wavefront into 2-D ``(B, W)`` arrays
and executes the Gotoh recurrences with broadcasting, so the interpreted
row loop runs once per wavefront and every NumPy op touches ``B`` blocks
at a time (our "hardware" being BLAS/SIMD instead of CUDA cores).

Layout
------
``B`` blocks are padded to the wavefront's maximum width ``W`` and maximum
height ``R`` and stacked along axis 0:

* each block owns **one row of the stack**, so the segmented E-scan is a
  single ``np.maximum.accumulate(..., axis=1)`` — the accumulation runs
  along each block's columns and *cannot* leak into a neighbouring block
  by construction;
* ragged edge blocks (``W_k < W`` or ``R_k < R``) are handled by masking:
  padded boundary values are ``NEG_INF``, padded profile columns are 0,
  and the best-cell reduction replaces every padded lane with ``NEG_INF``
  before its single ``argmax`` pass, so padding can never win nor
  overflow (see INTERNALS.md section 6 for the headroom argument);
* per-block outputs (bottom/right borders, corner, best cell) are sliced
  back out of the stack after the sweep, bit-identical to what ``B``
  scalar :func:`~repro.sw.kernel.sweep_block` calls would produce.

An allocation amortiser rides along: :class:`KernelWorkspace`, a
shape-keyed arena of scratch buffers, so repeated sweeps (a blocked
executor runs one per anti-diagonal; a chain worker one per block row)
stop allocating ~10 fresh arrays each.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..errors import ConfigError
from ..seq.scoring import Scoring
from .constants import DTYPE, NEG_INF, DpPolicy
from .kernel import BestCell, BlockResult, build_profile, check_block, narrow_entry_ok
from .scan import escan_segmented

#: Per-row callback of the batched sweep: ``(job_index, local_row, H, E, F)``
#: with the arrays sliced to the job's true width and valid only for the
#: duration of the call (copy to keep) — the scalar RowSink contract plus
#: the job index.
BatchRowSink = Callable[[int, int, np.ndarray, np.ndarray, np.ndarray], None]


class KernelWorkspace:
    """Capacity-keyed arena of reusable scratch arrays.

    ``take(tag, shape)`` keeps one flat buffer per ``(tag, dtype)`` that
    grows to the largest element count ever requested and hands out a
    reshaped prefix view, so sweeps whose geometry varies (wavefront
    batch sizes shrink at the grid corners, edge blocks are ragged)
    still allocate only when a tag's high-water mark rises.  Buffers
    hold *garbage* between uses — callers must overwrite before reading.
    Not thread-safe; give each concurrently-sweeping worker its own
    workspace (the process backends do).
    """

    def __init__(self) -> None:
        self._arena: dict[tuple, np.ndarray] = {}
        self.hits = 0
        self.misses = 0

    def take(self, tag: str, shape: tuple[int, ...], dtype=DTYPE) -> np.ndarray:
        key = (tag, np.dtype(dtype).str)
        need = int(np.prod(shape)) if shape else 1
        flat = self._arena.get(key)
        if flat is None or flat.size < need:
            flat = np.empty(need, dtype=dtype)
            self._arena[key] = flat
            self.misses += 1
        else:
            self.hits += 1
        return flat[:need].reshape(shape)

    def ramp(self, width: int, extend: int, dtype=DTYPE) -> np.ndarray:
        """The ``j * gap_extend`` offset vector.  Content is deterministic
        (unlike :meth:`take` scratch), and a narrower ramp is a prefix of
        a wider one, so one buffer per ``(extend, dtype)`` serves every
        width.  The dtype is part of the key — a run that mixes narrow
        and wide sweeps must never be served a ramp of the wrong width
        class (this was a latent bug while ``DTYPE`` was hardcoded).
        """
        key = (("ramp", extend), np.dtype(dtype).str)
        flat = self._arena.get(key)
        if flat is None or flat.size < width:
            flat = (np.arange(width, dtype=dtype) * dtype(extend)).astype(dtype)
            self._arena[key] = flat
            self.misses += 1
        else:
            self.hits += 1
        return flat[:width]

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in self._arena.values())

    def __len__(self) -> int:
        return len(self._arena)

    def clear(self) -> None:
        self._arena.clear()


@dataclass(frozen=True)
class BlockJob:
    """One block of a wavefront: the exact argument set of
    :func:`~repro.sw.kernel.sweep_block` minus the scoring scheme."""

    a_codes: np.ndarray   #: vertical codes for the block's rows (R_k)
    profile: np.ndarray   #: ``(letters, W_k)`` column profile (may be a view)
    h_top: np.ndarray
    f_top: np.ndarray
    h_left: np.ndarray
    e_left: np.ndarray
    h_diag: int

    @property
    def rows(self) -> int:
        return int(self.a_codes.size)

    @property
    def cols(self) -> int:
        return int(self.profile.shape[1])

    def validate(self) -> None:
        check_block(self.rows, self.cols, self.h_top, self.f_top,
                    self.h_left, self.e_left)


def sweep_wavefront(
    jobs: Sequence[BlockJob],
    scoring: Scoring,
    *,
    local: bool = True,
    track_best: bool = True,
    workspace: KernelWorkspace | None = None,
    row_sink: BatchRowSink | None = None,
    sink_interval: int = 0,
    dp: DpPolicy | None = None,
) -> list[BlockResult]:
    """Sweep every block of one wavefront in a single stacked row loop.

    Returns one :class:`~repro.sw.kernel.BlockResult` per job, in order,
    bit-identical to calling :func:`~repro.sw.kernel.sweep_block` on each
    job separately (the cross-kernel property the differential suite
    enforces).  ``row_sink(k, i, H, E, F)`` fires for every job ``k``
    whose local row ``i`` satisfies ``(i + 1) % sink_interval == 0`` and
    ``i < R_k`` — the scalar special-row contract, per block.

    With a narrow ``dp`` policy (local sweeps without a row sink only),
    eligible jobs are swept in the narrow dtype with a per-row overflow
    cap per lane; lanes that hit the cap — plus jobs whose entry borders
    already exceed it — are recomputed in one wide stacked sweep and
    spliced back in order, so the returned results are always
    bit-identical to the wide kernel.
    """
    if row_sink is not None and sink_interval <= 0:
        raise ConfigError("row_sink requires a positive sink_interval")
    if not jobs:
        return []
    for job in jobs:
        job.validate()
    ws = workspace if workspace is not None else KernelWorkspace()

    if dp is None or not dp.narrow or not local or row_sink is not None:
        results, _ = _sweep_stack(
            jobs, scoring, ws, local=local, track_best=track_best,
            row_sink=row_sink, sink_interval=sink_interval)
        return results

    max_w = dp.max_width(scoring)
    for job in jobs:
        if job.cols > max_w:
            raise ConfigError(
                f"block width {job.cols} exceeds {dp.name} max sweep width "
                f"{max_w} under this scoring scheme")
    # One cap for the whole wavefront, from the widest job: caps shrink
    # with width, so a shared cap is conservative (never unsound) for
    # the narrower lanes.
    cap = dp.overflow_limit(scoring, max(job.cols for job in jobs))
    narrow_idx = [k for k, job in enumerate(jobs)
                  if narrow_entry_ok(job.h_top, job.f_top, job.h_left,
                                     job.e_left, job.h_diag, cap)]
    narrow_set = set(narrow_idx)
    redo = [k for k in range(len(jobs)) if k not in narrow_set]
    results: list[BlockResult | None] = [None] * len(jobs)
    if narrow_idx:
        sub, over = _sweep_stack(
            [jobs[k] for k in narrow_idx], scoring, ws,
            local=True, track_best=track_best, dp=dp, cap=cap)
        for pos, k in enumerate(narrow_idx):
            if over[pos]:
                redo.append(k)
            else:
                results[k] = sub[pos]
    if redo:
        redo.sort()
        wide, _ = _sweep_stack(
            [jobs[k] for k in redo], scoring, ws, local=True,
            track_best=track_best)
        for pos, k in enumerate(redo):
            result = wide[pos]
            result.escalated = True
            results[k] = result
    return results  # type: ignore[return-value]


def _sweep_stack(
    jobs: Sequence[BlockJob],
    scoring: Scoring,
    ws: KernelWorkspace,
    *,
    local: bool,
    track_best: bool,
    row_sink: BatchRowSink | None = None,
    sink_interval: int = 0,
    dp: DpPolicy | None = None,
    cap: int | None = None,
) -> tuple[list[BlockResult | None], np.ndarray | None]:
    """The stacked row loop, parameterised over the DP dtype.

    Wide mode (``dp is None``) is the PR 2 kernel unchanged.  Narrow mode
    computes in ``dp.kind`` (inputs narrowed while stacking, outputs
    widened while unstacking) and tracks a per-lane sticky overflow flag:
    a lane whose padding-masked row maximum reaches *cap* may have lost
    exactness from the next row on, but its garbage stays inside its own
    axis-0 lane, so the sweep finishes and only that lane's result is
    dropped (returned as ``None`` with its overflow flag set) for the
    caller to recompute wide.
    """
    B = len(jobs)
    R = max(job.rows for job in jobs)
    W = max(job.cols for job in jobs)
    r_of = np.array([job.rows for job in jobs], dtype=np.intp)
    w_of = np.array([job.cols for job in jobs], dtype=np.intp)
    ragged_rows = bool((r_of != R).any())
    ragged_cols = bool((w_of != W).any())

    narrow = dp is not None and dp.narrow
    kind = dp.kind if narrow else DTYPE
    neg = dp.neg_inf if narrow else NEG_INF

    open_ = kind(scoring.gap_open)
    ext = kind(scoring.gap_extend)
    j_ext = ws.ramp(W, int(scoring.gap_extend), dtype=kind)
    idx_b = np.arange(B, dtype=np.intp)
    letters = int(scoring.matrix.shape[0])  # profile rows: 5 DNA, 21 protein

    # -- stack the inputs (pads: sentinel boundaries, zero profile/codes;
    # narrow mode clips the E/F sentinels to the policy's neg_inf while
    # downcasting — exact for the clipped local recurrence) --------------
    prof = ws.take("wf.prof", (B, letters, W), dtype=kind)
    a_stack = ws.take("wf.a", (B, R), dtype=np.intp)
    h_prev = ws.take("wf.h_prev", (B, W), dtype=kind)
    f_prev = ws.take("wf.f_prev", (B, W), dtype=kind)
    h_left = ws.take("wf.h_left", (B, R), dtype=kind)
    e_left = ws.take("wf.e_left", (B, R), dtype=kind)
    corner0 = ws.take("wf.corner0", (B,), dtype=kind)
    for k, job in enumerate(jobs):
        wk, rk = job.cols, job.rows
        prof[k, :, :wk] = job.profile
        prof[k, :, wk:] = 0
        a_stack[k, :rk] = job.a_codes
        a_stack[k, rk:] = 0
        h_prev[k, :wk] = job.h_top
        if narrow:
            f_prev[k, :wk] = np.maximum(job.f_top, neg)
            e_left[k, :rk] = np.maximum(job.e_left, neg)
        else:
            f_prev[k, :wk] = job.f_top
            e_left[k, :rk] = job.e_left
        h_prev[k, wk:] = neg
        f_prev[k, wk:] = neg
        h_left[k, :rk] = job.h_left
        h_left[k, rk:] = neg
        e_left[k, rk:] = neg
        corner0[k] = job.h_diag
    prof2d = prof.reshape(B * letters, W)
    prof_base = idx_b * letters

    # -- scratch reused across rows (and, via the workspace, sweeps) -----
    sub = ws.take("wf.sub", (B, W), dtype=kind)
    diag = ws.take("wf.diag", (B, W), dtype=kind)
    temp = ws.take("wf.temp", (B, W), dtype=kind)
    scan = ws.take("wf.scan", (B, W), dtype=kind)
    e_row = ws.take("wf.e_row", (B, W), dtype=kind)
    f_row = ws.take("wf.f_row", (B, W), dtype=kind)
    gap_tmp = ws.take("wf.gap_tmp", (B, W), dtype=kind)
    e0 = ws.take("wf.e0", (B,), dtype=kind)
    take_idx = ws.take("wf.take_idx", (B,), dtype=np.intp)
    h_right = ws.take("wf.h_right", (B, R), dtype=kind)
    e_right = ws.take("wf.e_right", (B, R), dtype=kind)
    h_bot = ws.take("wf.h_bot", (B, W), dtype=kind)
    f_bot = ws.take("wf.f_bot", (B, W), dtype=kind)
    w_last = w_of - 1

    # Narrow mode needs the masked row maxima even when the caller does
    # not track the best cell: they drive the per-lane overflow gate.
    need_rowmax = track_best or cap is not None
    masked = None
    col_valid = None
    if need_rowmax:
        masked = ws.take("wf.masked", (B, W), dtype=kind)
        if ragged_cols:
            col_valid = ws.take("wf.col_valid", (B, W), dtype=bool)
            np.less(np.arange(W, dtype=np.intp)[None, :], w_of[:, None],
                    out=col_valid)
            masked.fill(neg)  # the padded lanes stay at the sentinel for good

    best_score = ws.take("wf.best_score", (B,), dtype=kind)
    best_row = ws.take("wf.best_row", (B,), dtype=np.intp)
    best_col = ws.take("wf.best_col", (B,), dtype=np.intp)
    best_score.fill(0 if local else NEG_INF)  # local never reports <= 0 cells
    best_row.fill(-1)
    best_col.fill(-1)
    overflow = np.zeros(B, dtype=bool) if cap is not None else None

    corner_prev = corner0  # H at (i-1, -1) per block
    for i in range(R):
        np.add(prof_base, a_stack[:, i], out=take_idx)
        np.take(prof2d, take_idx, axis=0, out=sub)

        # F (vertical gap): depends only on the previous row.
        np.subtract(h_prev, open_, out=gap_tmp)
        np.maximum(f_prev, gap_tmp, out=f_row)
        f_row -= ext

        # Diagonal term H[i-1, j-1] + s (the shift stays inside each
        # block: every block owns a full stack row).
        diag[:, 0] = corner_prev
        diag[:, 1:] = h_prev[:, :-1]
        np.add(diag, sub, out=temp)
        np.maximum(temp, f_row, out=temp)
        if local:
            np.maximum(temp, 0, out=temp)

        # Segmented E-scan along axis 1 (shared helper, sw/scan.py);
        # blocks cannot leak into each other because each owns its own
        # axis-0 lane.
        escan_segmented(temp, h_left[:, i], e_left[:, i], open_, ext,
                        j_ext, scan, e_row, e0)

        np.maximum(temp, e_row, out=temp)  # temp is now the final H row

        if need_rowmax:
            # Single argmax pass per row over the padding-masked stack;
            # strict ">" keeps the scalar kernel's row-major tie-break.
            if ragged_cols:
                np.copyto(masked, temp, where=col_valid)
            else:
                np.copyto(masked, temp)
            if ragged_rows and i > 0:
                masked[r_of <= i] = neg
            am = masked.argmax(axis=1)
            m = masked[idx_b, am]
            if overflow is not None:
                # Sticky per-lane gate: from the row a lane's maximum
                # reaches cap its values may be inexact (though still
                # contained in its own lane) — drop it at unstack time.
                np.logical_or(overflow, m >= cap, out=overflow)
            if track_best:
                upd = m > best_score
                if upd.any():
                    best_score[upd] = m[upd]
                    best_row[upd] = i
                    best_col[upd] = am[upd]

        if row_sink is not None and (i + 1) % sink_interval == 0:
            for k in range(B):
                if i < r_of[k]:
                    wk = int(w_of[k])
                    row_sink(k, i, temp[k, :wk], e_row[k, :wk], f_row[k, :wk])

        h_right[:, i] = temp[idx_b, w_last]
        e_right[:, i] = e_row[idx_b, w_last]
        if ragged_rows:
            fin = np.flatnonzero(r_of == i + 1)
            if fin.size:
                h_bot[fin] = temp[fin]
                f_bot[fin] = f_row[fin]
        elif i == R - 1:
            np.copyto(h_bot, temp)
            np.copyto(f_bot, f_row)
        corner_prev = h_left[:, i]
        h_prev, temp = temp, h_prev  # swap buffers; h_prev now holds row i
        f_prev, f_row = f_row, f_prev

    # -- unstack: fresh per-block borders (the stack is workspace-owned;
    # narrow borders are widened back to int32 — exact, since local
    # clamping plus non-negative H entry borders keep every output
    # sentinel-free, see INTERNALS.md §11) --------------------------------
    results: list[BlockResult | None] = []
    dtype_name = dp.name if narrow else "int32"
    for k, job in enumerate(jobs):
        if overflow is not None and overflow[k]:
            results.append(None)
            continue
        wk, rk = job.cols, job.rows
        if best_row[k] >= 0:
            best = BestCell(int(best_score[k]), int(best_row[k]), int(best_col[k]))
        else:
            best = BestCell.none()
        results.append(BlockResult(
            h_bottom=h_bot[k, :wk].astype(DTYPE) if narrow else h_bot[k, :wk].copy(),
            f_bottom=f_bot[k, :wk].astype(DTYPE) if narrow else f_bot[k, :wk].copy(),
            h_right=h_right[k, :rk].astype(DTYPE) if narrow else h_right[k, :rk].copy(),
            e_right=e_right[k, :rk].astype(DTYPE) if narrow else e_right[k, :rk].copy(),
            corner=int(h_bot[k, wk - 1]),
            best=best,
            dtype=dtype_name,
        ))
    return results, overflow
