"""Conversion between text sequences and ``uint8`` code arrays.

Encoding is vectorised through a 256-entry lookup table (one fused take per
megabase — this is the idiom the whole library uses for hot paths: no Python
loops over bases).  Two policies exist:

* ``strict=False`` (default): any unrecognised byte becomes ``N``, the way
  chromosome aligners treat masked/ambiguous regions.
* ``strict=True``: unrecognised bytes raise :class:`~repro.errors.SequenceError`.
"""

from __future__ import annotations

import numpy as np

from ..errors import SequenceError
from . import alphabet


def encode(text: str | bytes | bytearray | np.ndarray, *, strict: bool = False) -> np.ndarray:
    """Encode a DNA string into a ``uint8`` code array.

    Parameters
    ----------
    text:
        ASCII sequence (``str``/``bytes``) or an already-encoded ``uint8``
        code array (returned unchanged after validation).
    strict:
        When True, raise on bytes outside ``ACGTN``/IUPAC instead of mapping
        them to ``N``.

    Returns
    -------
    numpy.ndarray
        1-D ``uint8`` array of base codes (see :mod:`repro.seq.alphabet`).
    """
    if isinstance(text, np.ndarray):
        if not alphabet.is_valid_code_array(text):
            raise SequenceError("array input must be a 1-D uint8 code array with values < 5")
        return text
    if isinstance(text, str):
        raw = np.frombuffer(text.encode("ascii", errors="replace"), dtype=np.uint8)
    elif isinstance(text, (bytes, bytearray)):
        raw = np.frombuffer(bytes(text), dtype=np.uint8)
    else:
        raise SequenceError(f"cannot encode object of type {type(text).__name__}")

    if strict:
        codes = alphabet.STRICT_LUT[raw]
        if codes.size and int(codes.max(initial=0)) == 255:
            bad = int(raw[codes == 255][0])
            raise SequenceError(
                f"invalid base {chr(bad)!r} (byte {bad}): not a DNA or "
                "IUPAC letter")
        return codes
    return alphabet.LENIENT_LUT[raw]


def decode(codes: np.ndarray) -> str:
    """Decode a ``uint8`` code array back into an ASCII string."""
    if not alphabet.is_valid_code_array(codes):
        raise SequenceError("decode expects a 1-D uint8 code array with values < 5")
    return alphabet.CODE_TO_ASCII[codes].tobytes().decode("ascii")


def reverse_complement(codes: np.ndarray) -> np.ndarray:
    """Return the reverse complement of an encoded sequence (new array)."""
    if not alphabet.is_valid_code_array(codes):
        raise SequenceError("reverse_complement expects a code array")
    return alphabet.COMPLEMENT[codes[::-1]]


def pack_2bit(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Pack a code array into 2 bits/base plus an N-mask bitmap.

    This mirrors the memory layout GPU aligners use to fit megabase
    sequences in device memory; the simulator's footprint model charges
    bytes according to this packing.

    Returns ``(packed, n_mask, length)`` where *packed* holds 4 bases per
    byte (A..T only; N is stored as A and flagged in *n_mask*), and
    *n_mask* is a bit-per-base bitmap of ambiguous positions.
    """
    if not alphabet.is_valid_code_array(codes):
        raise SequenceError("pack_2bit expects a code array")
    n = codes.size
    is_n = codes == alphabet.N
    two_bit = np.where(is_n, np.uint8(0), codes).astype(np.uint8)
    pad = (-n) % 4
    if pad:
        two_bit = np.concatenate([two_bit, np.zeros(pad, dtype=np.uint8)])
    two_bit = two_bit.reshape(-1, 4)
    packed = (
        two_bit[:, 0]
        | (two_bit[:, 1] << 2)
        | (two_bit[:, 2] << 4)
        | (two_bit[:, 3] << 6)
    ).astype(np.uint8)
    n_mask = np.packbits(is_n)
    return packed, n_mask, n


def unpack_2bit(packed: np.ndarray, n_mask: np.ndarray, length: int) -> np.ndarray:
    """Inverse of :func:`pack_2bit`."""
    if length < 0:
        raise SequenceError("length must be non-negative")
    b = packed.astype(np.uint8)
    out = np.empty((b.size, 4), dtype=np.uint8)
    out[:, 0] = b & 3
    out[:, 1] = (b >> 2) & 3
    out[:, 2] = (b >> 4) & 3
    out[:, 3] = (b >> 6) & 3
    codes = out.reshape(-1)[:length].copy()
    if length:
        is_n = np.unpackbits(n_mask)[:length].astype(bool)
        codes[is_n] = alphabet.N
    return codes
