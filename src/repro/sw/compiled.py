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
it per DP dtype (int32 / int16 / int8), which is where the narrow
kernels finally cash their byte-ratio win: int16 halves the memory
traffic *and* no longer funnels through a dtype-insensitive serial
scan.

Without numba (or when its compilation fails) ``kernel="compiled"`` is
the scalar sweep: :func:`sweep_block_compiled` returns
:func:`repro.sw.kernel.sweep_block` directly, so the library accepts
the name everywhere and the fallback costs nothing over ``scalar``.

Exactness contract: ``sweep_block_compiled`` is bit-identical to
:func:`repro.sw.kernel.sweep_block` for every (dtype, mode, pruning,
escalation) combination — the same narrow entry gate, the same per-row
overflow cap with wide recompute, the same row-major best-cell
tie-break.  The cross-engine differential suite pins this.

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

import numpy as np

from ..errors import ConfigError
from ..seq.scoring import Scoring
from . import backend
from .constants import DTYPE, MAX_SWEEP_WIDTH, NEG_INF, DpPolicy, get_policy
from .kernel import BestCell, BlockResult, build_profile, local_boundaries, narrow_entry_ok, sweep_block

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
                    h_right, e_right, best_out):
        # One fused pass per cell: E carried in a register (the scan is
        # free), F and the diagonal read from the previous row in place.
        # h_row/f_row arrive holding the top borders and leave holding
        # the bottom row.  Returns True when a row maximum reaches cap
        # (narrow overflow — caller recomputes wide).
        R = a_codes.shape[0]
        W = h_row.shape[0]
        best_s = best_out[0]
        for i in range(R):
            code = a_codes[i]
            hl = h_left[i]          # final H[i, j-1]; starts at the left border
            e = e_left[i]           # E[i, j-1]
            d = corner              # H[i-1, j-1]
            row_best = np.int64(-_NO_CAP)
            row_j = -1
            for j in range(W):
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
            h_right[i] = hl
            e_right[i] = e
            corner = h_left[i]
            if row_best >= cap:
                return True
            if track_best and row_best > best_s:
                best_s = row_best
                best_out[0] = row_best
                best_out[1] = i
                best_out[2] = row_j
        return False

    return _sweep_rows


def _run_jit(sweep, a_codes, profile, h_top, f_top, h_left, e_left, h_diag,
             scoring: Scoring, *, local: bool, track_best: bool,
             dp: DpPolicy | None = None, cap: int | None = None):
    """One jitted sweep in ``dp.kind`` (or int32); ``None`` on overflow.

    Border narrowing matches ``_sweep_block_narrow`` exactly: H borders
    plain-cast (the entry gate certified them), E/F sentinels clipped to
    the policy's ``neg_inf``; outputs are widened with a plain
    ``astype``, exact under the local-clamp invariant (INTERNALS.md §11).
    """
    narrow = dp is not None
    kind = dp.kind if narrow else DTYPE
    R = int(a_codes.size)
    prof = np.ascontiguousarray(profile, dtype=kind)
    h_row = h_top.astype(kind, copy=True)
    if narrow:
        f_row = np.maximum(f_top, dp.neg_inf).astype(kind)
        h_l = h_left.astype(kind)
        e_l = np.maximum(e_left, dp.neg_inf).astype(kind)
    else:
        f_row = f_top.astype(kind, copy=True)
        h_l = np.ascontiguousarray(h_left, dtype=kind)
        e_l = np.ascontiguousarray(e_left, dtype=kind)
    h_right = np.empty(R, dtype=kind)
    e_right = np.empty(R, dtype=kind)
    best_out = np.empty(3, dtype=np.int64)
    best_out[0] = 0 if local else NEG_INF   # the NumPy kernels' tie-break base
    best_out[1] = -1
    best_out[2] = -1
    overflow = sweep(
        np.ascontiguousarray(a_codes, dtype=np.int64), prof, h_row, f_row,
        h_l, e_l, kind(h_diag), kind(scoring.gap_open),
        kind(scoring.gap_extend), kind(0), bool(local), bool(track_best),
        np.int64(cap) if cap is not None else _NO_CAP,
        h_right, e_right, best_out)
    if overflow:
        return None
    if best_out[1] >= 0:
        best = BestCell(int(best_out[0]), int(best_out[1]), int(best_out[2]))
    else:
        best = BestCell.none()
    return BlockResult(
        h_bottom=h_row.astype(DTYPE) if narrow else h_row,
        f_bottom=f_row.astype(DTYPE) if narrow else f_row,
        h_right=h_right.astype(DTYPE) if narrow else h_right,
        e_right=e_right.astype(DTYPE) if narrow else e_right,
        corner=int(h_row[-1]),
        best=best,
        dtype=dp.name if narrow else "int32",
    )


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
) -> BlockResult:
    """:func:`repro.sw.kernel.sweep_block` semantics on the compiled path.

    Same contract minus the row sink (the traceback stages that need
    special rows call the NumPy kernels directly).  Narrow policies run
    the same entry gate / per-row cap / wide-escalation protocol as the
    scalar kernel, so results are bit-identical across every dtype and
    escalation outcome.  Without a JIT this is ``sweep_block`` itself.
    """
    sweep = _get_jit()
    if sweep is None:
        return sweep_block(
            a_codes, profile, h_top, f_top, h_left, e_left, h_diag,
            scoring, local=local, track_best=track_best, dp=dp)
    R = int(a_codes.size)
    W = int(profile.shape[1])
    if W == 0 or R == 0:
        raise ConfigError("sweep_block requires a non-empty block")
    if W > MAX_SWEEP_WIDTH:
        raise ConfigError(f"block width {W} exceeds MAX_SWEEP_WIDTH={MAX_SWEEP_WIDTH}")
    if h_top.shape != (W,) or f_top.shape != (W,):
        raise ConfigError("h_top/f_top must have one entry per block column")
    if h_left.shape != (R,) or e_left.shape != (R,):
        raise ConfigError("h_left/e_left must have one entry per block row")

    escalated = False
    if dp is not None and dp.narrow and local:
        max_w = dp.max_width(scoring)
        if W > max_w:
            raise ConfigError(
                f"block width {W} exceeds {dp.name} max sweep width {max_w} "
                f"under this scoring scheme")
        cap = dp.overflow_limit(scoring, W)
        if narrow_entry_ok(h_top, f_top, h_left, e_left, h_diag, cap):
            result = _run_jit(
                sweep, a_codes, profile, h_top, f_top, h_left, e_left,
                h_diag, scoring, local=True, track_best=track_best,
                dp=dp, cap=cap)
            if result is not None:
                return result
        escalated = True

    result = _run_jit(
        sweep, a_codes, profile, h_top, f_top, h_left, e_left, h_diag,
        scoring, local=local, track_best=track_best)
    result.escalated = escalated
    return result


def warmup(dp_dtypes: tuple[str, ...] = ("int32", "int16", "int8"),
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
                pol = get_policy(name)
                dp = pol if pol.narrow and n <= pol.max_width(DNA_DEFAULT) else None
                sweep_block_compiled(a, profile, h_top, f_top, h_left,
                                     e_left, corner, DNA_DEFAULT, dp=dp)
                if dp is not None:
                    # Compile the wide escalation target too: hot blocks
                    # must not pay a mid-run compile on first overflow.
                    sweep_block_compiled(a, profile, h_top, f_top, h_left,
                                         e_left, corner, DNA_DEFAULT)
                _WARMED.add(name)
    return time.perf_counter() - t0
