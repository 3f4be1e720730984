"""Shared E-scan helpers: one recurrence, two layouts.

Every kernel in the library resolves Gotoh's horizontal-gap state the
same way (see ``sw/kernel.py``'s module docstring for the derivation):
with ``Q[j] = tempH[j] - open + j*ext`` and ``e[j] = E[j] + j*ext`` the
row recurrence ``E[j] = max(E[j-1], tempH[j-1] - open) - ext`` becomes a
plain running maximum

    e[j] = max(e[j-1], Q[j-1]),      e[0] = max(E_left, H_left - open) - ext + 0,

i.e. an inclusive prefix-max over the shifted domain, evaluated by
``np.maximum.accumulate`` — one C loop over the row.  That loop is the
library's documented Amdahl floor (INTERNALS.md §11): it is
dtype-insensitive (~3 ns/element) and strictly serial, so narrow-int
NumPy kernels cannot cash their byte-ratio win through it; the compiled
backend removes it by carrying E in a register.  The two NumPy layouts
(the scalar row loop, in any dtype, and the batched segmented stack)
share this module, so the transform is written — and tested — exactly
once.
"""

from __future__ import annotations

import numpy as np


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
    np.maximum.accumulate(scan, out=scan)
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
    np.maximum.accumulate(scan, axis=1, out=scan)
    np.subtract(scan, j_ext, out=e_row)
