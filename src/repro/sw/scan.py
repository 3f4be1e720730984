"""Shared E-scan helpers: one recurrence, two layouts, two scan engines.

Every kernel in the library resolves Gotoh's horizontal-gap state the
same way (see ``sw/kernel.py``'s module docstring for the derivation):
with ``Q[j] = tempH[j] - open + j*ext`` and ``e[j] = E[j] + j*ext`` the
row recurrence ``E[j] = max(E[j-1], tempH[j-1] - open) - ext`` becomes a
plain running maximum

    e[j] = max(e[j-1], Q[j-1]),      e[0] = max(E_left, H_left - open) - ext + 0,

i.e. an inclusive prefix-max over the shifted domain.  Before this
module, that recurrence lived as three hand-expanded copies (scalar
narrow, scalar wide, batched segmented); they are deduplicated here so
the transform is written — and tested — exactly once.

Two interchangeable *scan engines* evaluate the prefix-max:

``sequential``
    ``np.maximum.accumulate`` — one C loop over the row.  This is the
    library's documented Amdahl floor (INTERNALS.md §11): the loop is
    dtype-insensitive (~3 ns/element) and strictly serial, so narrow-int
    kernels cannot cash their byte-ratio win through it.

``kogge_stone``
    The log-step parallel prefix-max: ``ceil(log2 n)`` rounds of

        x[d:] = max(x[d:], x[:-d]),      d = 1, 2, 4, ...

    Each round is one fully vectorised (SIMD-friendly) ``np.maximum``
    over contiguous memory, so the scan's critical path drops from
    ``n`` dependent steps to ``log2 n`` vector ops — the same shape a
    GPU warp evaluates with ``__shfl_up_sync`` lane shuffles.  Because
    ``max`` is associative, commutative and idempotent, the result is
    bit-identical to the sequential engine on integer inputs (the
    hypothesis property in ``tests/test_compiled_kernel.py`` pins
    this).  It is the reference formulation the compiled backend's
    oracle runs, and the segmented (axis-1) variant is what makes the
    batched wavefront's E-scan parallel across *and along* lanes.

NumPy ufuncs guarantee copy-on-overlap semantics for aliased operands
(since 1.13), so the in-place ``np.maximum(x[d:], x[:-d], out=x[d:])``
rounds read the pre-round values as the recurrence requires.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from ..errors import ConfigError

#: Prefix-max evaluation strategies accepted by :func:`use_scan_engine`.
SCAN_ENGINES = ("sequential", "kogge_stone")

_ENGINE = "sequential"


def scan_engine() -> str:
    """The scan engine currently used by the NumPy kernels."""
    return _ENGINE


@contextmanager
def use_scan_engine(name: str):
    """Run the enclosed sweeps with *name* as the prefix-max engine.

    Process-local and not thread-safe (like the kernels themselves);
    the compiled backend's oracle wraps its fallback sweeps in
    ``use_scan_engine("kogge_stone")`` so the parallel formulation is
    exercised even without numba.
    """
    global _ENGINE
    if name not in SCAN_ENGINES:
        raise ConfigError(
            f"unknown scan engine {name!r}; expected one of {SCAN_ENGINES}")
    prev = _ENGINE
    _ENGINE = name
    try:
        yield
    finally:
        _ENGINE = prev


def kogge_stone_max(x: np.ndarray, *, axis: int = -1) -> np.ndarray:
    """In-place inclusive prefix-max along *axis* in ``ceil(log2 n)`` rounds.

    Bit-identical to ``np.maximum.accumulate(x, axis=axis, out=x)`` for
    any dtype where ``max`` is exact (all integers); returns *x*.
    """
    if x.ndim == 0:
        return x
    axis = axis % x.ndim
    n = x.shape[axis]
    d = 1
    while d < n:
        lead = [slice(None)] * x.ndim
        lag = [slice(None)] * x.ndim
        lead[axis] = slice(d, None)
        lag[axis] = slice(None, -d)
        np.maximum(x[tuple(lead)], x[tuple(lag)], out=x[tuple(lead)])
        d <<= 1
    return x


def prefix_max(x: np.ndarray, *, axis: int = -1, engine: str | None = None) -> np.ndarray:
    """In-place inclusive prefix-max along *axis* with the chosen engine."""
    name = _ENGINE if engine is None else engine
    if name == "sequential":
        np.maximum.accumulate(x, axis=axis, out=x)
        return x
    if name == "kogge_stone":
        return kogge_stone_max(x, axis=axis)
    raise ConfigError(
        f"unknown scan engine {name!r}; expected one of {SCAN_ENGINES}")


def escan_row(
    temp: np.ndarray,
    h_left_i,
    e_left_i,
    open_,
    ext,
    j_ext: np.ndarray,
    scan: np.ndarray,
    e_row: np.ndarray,
) -> None:
    """One row's E-scan, 1-D layout (the scalar kernels' shared copy).

    ``temp`` is the row's H *before* the E contribution; ``h_left_i`` /
    ``e_left_i`` are the row's left-border H and E (scalars of the DP
    dtype); ``j_ext`` is the ``j * gap_extend`` ramp.  ``scan`` is
    scratch; ``e_row`` receives ``E[i, :]``.  Q is written pre-shifted
    (``scan[k] = Q[k-1]``) to avoid a full-width copy per row.
    """
    scan[0] = max(e_left_i, h_left_i - open_) - ext
    np.subtract(temp[:-1], open_, out=scan[1:])
    scan[1:] += j_ext[:-1]
    prefix_max(scan, axis=-1)
    np.subtract(scan, j_ext, out=e_row)


def escan_segmented(
    temp: np.ndarray,
    h_left_col: np.ndarray,
    e_left_col: np.ndarray,
    open_,
    ext,
    j_ext: np.ndarray,
    scan: np.ndarray,
    e_row: np.ndarray,
    e0: np.ndarray,
) -> None:
    """One wavefront row's E-scan, segmented ``(B, W)`` layout.

    Identical recurrence per axis-0 lane; the scan runs along axis 1
    and cannot leak across lanes because each block owns one stack row.
    ``h_left_col`` / ``e_left_col`` are the ``(B,)`` left-border values
    of the current row; ``e0`` is ``(B,)`` scratch for the scan seeds.
    """
    np.subtract(h_left_col, open_, out=e0)
    np.maximum(e_left_col, e0, out=e0)
    e0 -= ext
    np.subtract(temp[:, :-1], open_, out=scan[:, 1:])
    scan[:, 1:] += j_ext[:-1]
    scan[:, 0] = e0
    prefix_max(scan, axis=1)
    np.subtract(scan, j_ext, out=e_row)
