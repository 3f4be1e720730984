"""Compiled kernel backend: JIT-fused row sweeps over the Gotoh recurrence.

The NumPy kernels evaluate each DP row as a handful of full-width vector
ops plus one *sequential* E-scan — the scan is the documented Amdahl
floor (INTERNALS.md §11) that caps the narrow-dtype win at ~1.15x.
With numba (``pip install .[compiled]``) this backend removes the
floor: a single ``@njit`` fused cell loop computes E, F, H and the
best-cell candidate in one pass — no NumPy temporaries, no per-row
ufunc launches, and the E dependency is carried in a register, so the
"scan" costs one ``max`` per cell inside the same loop that already
touches the cell.  The loop is dtype-generic; numba lazily specialises
it per DP dtype (int32 / int16), which is where the narrow
kernels finally cash their byte-ratio win: int16 halves the memory
traffic *and* no longer funnels through a dtype-insensitive serial
scan.

Without numba (or when its compilation fails) ``kernel="compiled"`` is
the scalar sweep: :func:`sweep_block_compiled` returns
:func:`repro.sw.kernel.sweep_block` directly, so the library accepts
the name everywhere and the fallback costs nothing over ``scalar``.

Exactness contract: ``sweep_block_compiled`` is bit-identical to
:func:`repro.sw.kernel.sweep_block` for every (dtype, mode, pruning,
escalation) combination.  Both run one narrow-DP protocol
(:func:`repro.sw.kernel.sweep_protocol`: entry gate, per-row overflow
cap, wide recompute) and differ only in the row engine they hand it;
the jitted engine keeps the same row-major best-cell tie-break.  The
cross-engine differential suite pins this.

JIT warmup: the first call per compiled specialisation pays the numba
compile (hundreds of ms).  Engines must call :func:`warmup` once per
process *before* the first timed block (pool workers do it at spawn or
inside their first compiled task's tracer ``warmup`` span) so latency
histograms and GCUPS figures never fold compile time into row 0.
``MGSW_WARMUP_DELAY=<seconds>`` injects an artificial warmup cost — the
telemetry tests use it to prove the exclusion holds even where numba
itself is absent.
"""

from __future__ import annotations

import os
import time
from functools import partial

import numpy as np

from ..seq.scoring import Scoring
from . import backend
from .constants import NEG_INF, DpPolicy, get_policy
from .kernel import (TRIM_ROWS, BestCell, BlockResult, LiveWindow, build_profile,
                     local_boundaries, sweep_block, sweep_protocol)

#: Sentinel cap for wide sweeps: no int32 row maximum can reach it, so
#: the jitted overflow gate compiles to a dead branch.
_NO_CAP = np.int64(1) << 62

_JIT = None
_JIT_FAILED = False
_WARMED: set[str] = set()


def reset_jit() -> None:
    """Drop the compiled function and warmup record (test hook — pair
    with monkeypatching :data:`repro.sw.backend.NUMBA`)."""
    global _JIT, _JIT_FAILED
    _JIT = None
    _JIT_FAILED = False
    _WARMED.clear()


def _get_jit():
    """The jitted sweep, building it on first use; ``None`` when numba
    is absent (or its compilation failed — sticky, so a broken install
    degrades to the scalar sweep once instead of retrying per block)."""
    global _JIT, _JIT_FAILED
    if _JIT is not None or _JIT_FAILED:
        return _JIT
    nb = backend.NUMBA
    if nb is None:
        return None
    try:
        _JIT = _build_jit(nb)
    except Exception:
        _JIT_FAILED = True
        _JIT = None
    return _JIT


def jit_available() -> bool:
    """Whether ``kernel="compiled"`` runs the JIT path (vs the scalar sweep)."""
    return _get_jit() is not None


def _build_jit(nb):
    """Compile the fused row sweep (lazily specialised per DP dtype)."""

    @nb.njit(nogil=True, cache=True)
    def _sweep_rows(a_codes, prof, h_row, f_row, h_left, e_left, corner,
                    open_, ext, zero, local, track_best, cap,
                    h_right, e_right, best_out, win, left_open, dead,
                    trim_rows):
        # One fused pass per cell: E carried in a register (the scan is
        # free), F and the diagonal read from the previous row in place.
        # h_row/f_row arrive holding the top borders and leave holding
        # the bottom row.  Returns True when a row maximum reaches cap
        # (narrow overflow — caller recomputes wide).  With win[0] set,
        # each row runs over its live window (LiveWindow, the same rule
        # as the NumPy engine's _window_loop); win[5:8] return the bottom
        # row's live hull and the cells computed.
        R = a_codes.shape[0]
        W = h_row.shape[0]
        best_s = best_out[0]
        windowed = win[0] != 0
        lbest, match = win[1], win[2]
        rows_left, cols_left = win[3], win[4]
        wlo, whi = win[5], win[6]   # the row above's live hull
        dlo, dhi = wlo, whi         # columns holding non-restart values
        need = 0
        if windowed:
            need = -((-lbest) // match) - 1
        step = np.int64(ext)
        cells = 0
        for i in range(R):
            code = a_codes[i]
            lo, hi = 0, W
            if windowed:
                lo, hi = wlo, whi
                if lo < hi:
                    hi = min(W, hi + 1)
                fresh = 0
                if rows_left - i >= need:
                    fresh = min(W, max(0, cols_left - need + 1))
                if fresh > 0 or left_open[i]:
                    lo, hi = 0, max(hi, fresh, 1)
                if lo >= hi:
                    lo, hi = 0, 0
            hl = zero               # final H[i, j-1]; starts at the left border
            e = dead                # E[i, j-1]
            d = zero                # H[i-1, j-1]
            if lo == 0:
                hl = h_left[i]
                e = e_left[i]
                d = corner
            elif lo < hi:
                d = h_row[lo - 1]
            row_best = np.int64(-_NO_CAP)
            row_j = -1
            for j in range(lo, hi):
                hp = h_row[j]       # H[i-1, j]
                a = hl - open_
                if e < a:
                    e = a
                e = e - ext         # E[i, j]
                b = hp - open_
                f = f_row[j]
                if f < b:
                    f = b
                f = f - ext         # F[i, j]
                h = d + prof[code, j]
                if h < f:
                    h = f
                if h < e:
                    h = e
                if local and h < zero:
                    h = zero
                d = hp
                h_row[j] = h
                f_row[j] = f
                hl = h
                v = np.int64(h)
                if v > row_best:
                    row_best = v
                    row_j = j
            if windowed:
                if lo < hi and hi < W:
                    # Widen while the E leaving the window stays live.
                    e_out = np.int64(hl) - open_
                    if e_out < e:
                        e_out = np.int64(e)
                    e_out -= step
                    spare_r = e_out + match * (rows_left - i) - lbest
                    spare_c = e_out + match * (cols_left - hi) - lbest
                    count = 0
                    if spare_r >= 0 and spare_c >= 0:
                        count = min(W - hi, spare_r // step + 1,
                                    spare_c // (step + match) + 1)
                    for t in range(count):
                        h_row[hi + t] = e_out - t * step
                        f_row[hi + t] = dead
                    if count > 0:
                        hl = h_row[hi + count - 1]
                        e = hl
                        hi += count
                # Row i-1's values outside [lo, hi) are stale for row i.
                for j in range(dlo, min(dhi, lo)):
                    h_row[j] = zero
                    f_row[j] = dead
                for j in range(max(dlo, hi), dhi):
                    h_row[j] = zero
                    f_row[j] = dead
                dlo, dhi = lo, hi
                cells += hi - lo
            if hi == W:
                h_right[i] = hl
                e_right[i] = e
            else:
                h_right[i] = zero
                e_right[i] = dead
            corner = h_left[i]
            if row_best >= cap:
                return True
            if track_best and row_best > best_s:
                best_s = row_best
                best_out[0] = row_best
                best_out[1] = i
                best_out[2] = row_j
            if windowed:
                if row_best > lbest:
                    lbest = row_best
                    need = -((-lbest) // match) - 1
                if lo < hi and ((i + 1) % trim_rows == 0 or i == R - 1):
                    # Trim right of the next row's fresh-start prefix.
                    keep = 0
                    if rows_left - i > need and cols_left >= need:
                        keep = min(hi, cols_left - need + 1)
                    steps = rows_left - i
                    first, last = -1, -1
                    for j in range(max(lo, keep), hi):
                        left = cols_left - j
                        if left > steps:
                            left = steps
                        if np.int64(h_row[j]) + match * left >= lbest:
                            if first < 0:
                                first = j
                            last = j
                    if keep > lo:
                        if first >= 0:
                            hi = last + 1
                        else:
                            hi = keep
                    elif first >= 0:
                        lo, hi = first, last + 1
                    else:
                        lo, hi = 0, 0
                if lo < hi:
                    wlo, whi = lo, hi
                else:
                    wlo, whi = 0, 0
        if windowed:
            # The bottom row's dead cells outside its live hull restart.
            for j in range(dlo, min(dhi, wlo)):
                h_row[j] = zero
                f_row[j] = dead
            for j in range(max(dlo, whi), dhi):
                h_row[j] = zero
                f_row[j] = dead
            win[5] = wlo
            win[6] = whi
            win[7] = cells
        return False

    return _sweep_rows


def _run_jit(sweep, a_codes, profile, h_top, f_top, h_left, e_left, h_diag,
             scoring: Scoring, cap: int | None, *, local: bool,
             track_best: bool,
             window: LiveWindow | None = None) -> BlockResult | None:
    """The jitted row engine of :func:`~repro.sw.kernel.sweep_protocol`:
    one fused sweep in the borders' dtype; ``None`` on overflow."""
    kind = h_top.dtype.type
    R = int(a_codes.size)
    h_right = np.empty(R, dtype=kind)
    e_right = np.empty(R, dtype=kind)
    best_out = np.empty(3, dtype=np.int64)
    best_out[0] = 0 if local else NEG_INF   # the NumPy kernels' tie-break base
    best_out[1] = -1
    best_out[2] = -1
    win = np.zeros(8, dtype=np.int64)
    if window is None:
        left_open = np.zeros(R, dtype=np.bool_)
        dead = 0  # unused: every row starts at the left border
    else:
        win[:7] = (1, window.best, window.match, window.rows_left,
                   window.cols_left, window.lo, window.hi)
        left_open = window.left_open(h_left, e_left, h_diag)
        dead = window.dead
    overflow = sweep(
        np.ascontiguousarray(a_codes, dtype=np.int64),
        np.ascontiguousarray(profile), h_top, f_top,
        np.ascontiguousarray(h_left), np.ascontiguousarray(e_left),
        kind(h_diag), kind(scoring.gap_open), kind(scoring.gap_extend),
        kind(0), bool(local), bool(track_best),
        np.int64(cap) if cap is not None else _NO_CAP,
        h_right, e_right, best_out, win, left_open, kind(dead), TRIM_ROWS)
    if overflow:
        return None
    if best_out[1] >= 0:
        best = BestCell(int(best_out[0]), int(best_out[1]), int(best_out[2]))
    else:
        best = BestCell.none()
    if window is None:
        return BlockResult(h_bottom=h_top, f_bottom=f_top, h_right=h_right,
                           e_right=e_right, corner=int(h_top[-1]), best=best)
    return BlockResult(h_bottom=h_top, f_bottom=f_top, h_right=h_right,
                       e_right=e_right, corner=int(h_top[-1]), best=best,
                       cells=int(win[7]), live=(int(win[5]), int(win[6])))


def sweep_block_compiled(
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
    dp: DpPolicy | None = None,
    window: LiveWindow | None = None,
) -> BlockResult:
    """:func:`repro.sw.kernel.sweep_block` semantics on the compiled path.

    Same contract minus the row sink (the traceback stages that need
    special rows call the NumPy kernels directly).  The jitted sweep is
    the row engine of the same :func:`~repro.sw.kernel.sweep_protocol`,
    so results are bit-identical across every dtype and escalation
    outcome.  Without a JIT this is ``sweep_block`` itself.
    """
    sweep = _get_jit()
    if sweep is None:
        return sweep_block(
            a_codes, profile, h_top, f_top, h_left, e_left, h_diag,
            scoring, local=local, track_best=track_best, dp=dp,
            window=window)
    return sweep_protocol(
        partial(_run_jit, sweep), a_codes, profile, h_top, f_top, h_left,
        e_left, h_diag, scoring, local=local, track_best=track_best, dp=dp,
        window=window)


def warmup(dp_dtypes: tuple[str, ...] = ("int32", "int16"),
           *, force: bool = False) -> float:
    """Compile the jitted sweep's dtype specialisations; returns seconds.

    Idempotent per process (per dtype) unless *force*.  Each dtype is
    warmed through the full ``sweep_block_compiled`` protocol on a tiny
    block — narrow dtypes compile both their narrow specialisation and
    the wide escalation target.  A no-op (0.0 s) without numba, except
    for the ``MGSW_WARMUP_DELAY`` hook: a float number of seconds slept
    unconditionally so tests can simulate compile cost on any machine.

    Engines call this once per process before the first timed block so
    compile time lands in an explicit ``warmup`` tracer span instead of
    polluting ``block_sweep_seconds`` and the ProgressBoard rates.
    """
    t0 = time.perf_counter()
    delay = float(os.environ.get("MGSW_WARMUP_DELAY", "0") or 0.0)
    if delay > 0:
        time.sleep(delay)
    if _get_jit() is not None:
        from ..seq import DNA_DEFAULT

        todo = [n for n in dp_dtypes if force or n not in _WARMED]
        if todo:
            n = 8
            rng = np.random.default_rng(0)
            a = rng.integers(0, 4, size=n).astype(np.int8)
            b = rng.integers(0, 4, size=n).astype(np.int8)
            profile = build_profile(b, DNA_DEFAULT)
            h_top, f_top, h_left, e_left, corner = local_boundaries(n, n)
            for name in todo:
                dp = get_policy(name)
                sweep_block_compiled(a, profile, h_top, f_top, h_left,
                                     e_left, corner, DNA_DEFAULT, dp=dp)
                if dp.narrow:
                    # Compile the wide escalation target too: hot blocks
                    # must not pay a mid-run compile on first overflow.
                    sweep_block_compiled(a, profile, h_top, f_top, h_left,
                                         e_left, corner, DNA_DEFAULT)
                _WARMED.add(name)
    return time.perf_counter() - t0
