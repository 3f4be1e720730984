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


def require_base(codes: np.ndarray, what: str) -> np.ndarray:
    """*codes*, unless none of them is A, C, G or T: an all-N sequence
    (ambiguity codes read as N) has nothing to align, so the front doors
    refuse it with :class:`~repro.errors.SequenceError` naming *what*."""
    if not (codes != alphabet.N).any():
        raise SequenceError(f"{what} is all N: no base to align")
    return codes


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

