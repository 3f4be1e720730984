"""Minimal, robust FASTA reading and writing for chromosome-scale files.

Reading is streaming and memory-lean: lines are accumulated as bytes and
encoded to a single ``uint8`` code array per record.  Only what megabase
comparison needs is supported — no quality scores, no alignments.
"""

from __future__ import annotations

import io
import os
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ..errors import FastaError, SequenceError
from . import encoding


@dataclass(frozen=True)
class FastaRecord:
    """One FASTA record: ``name`` (first word of the header), full
    ``description`` (header minus ``>``), and encoded ``codes``."""

    name: str
    description: str
    codes: np.ndarray

    def __len__(self) -> int:
        return int(self.codes.size)

    @property
    def text(self) -> str:
        """The sequence as an ASCII string (materialises the whole thing)."""
        return encoding.decode(self.codes)


def iter_fasta(source: str | os.PathLike | io.TextIOBase, *, strict: bool = False) -> Iterator[FastaRecord]:
    """Yield :class:`FastaRecord` objects from a path or open text handle.

    Raises :class:`~repro.errors.FastaError` on structural problems
    (sequence data before any header, empty record, empty file) and,
    with *strict*, :class:`~repro.errors.SequenceError` on a letter that
    is neither DNA nor IUPAC; read from a path, the message names the
    file.
    """
    own = False
    if isinstance(source, (str, os.PathLike)):
        handle: io.TextIOBase = open(source, "r", encoding="ascii", errors="replace")
        own = True
    else:
        handle = source
    try:
        header: str | None = None
        chunks: list[bytes] = []
        saw_any = False
        for line in handle:
            line = line.rstrip("\r\n")
            if not line:
                continue
            if line.startswith(">"):
                if header is not None:
                    yield _make_record(header, chunks, strict)
                elif chunks:
                    raise FastaError("sequence data before first FASTA header")
                header = line[1:].strip()
                chunks = []
                saw_any = True
            elif line.startswith(";"):
                continue  # old-style comment line
            else:
                if header is None:
                    raise FastaError("sequence data before first FASTA header")
                chunks.append(line.encode("ascii", errors="replace"))
        if header is not None:
            yield _make_record(header, chunks, strict)
        elif not saw_any:
            raise FastaError("empty FASTA input")
    except SequenceError as exc:
        if not own:
            raise
        raise type(exc)(f"{os.fspath(source)}: {exc}") from None
    finally:
        if own:
            handle.close()


def _make_record(header: str, chunks: list[bytes], strict: bool) -> FastaRecord:
    if not chunks:
        raise FastaError(f"record {header!r} has no sequence data")
    codes = encoding.encode(b"".join(chunks), strict=strict)
    name = header.split()[0] if header else ""
    return FastaRecord(name=name, description=header, codes=codes)


def read_fasta(source: str | os.PathLike | io.TextIOBase, *, strict: bool = False) -> list[FastaRecord]:
    """Read every record of a FASTA file into a list."""
    return list(iter_fasta(source, strict=strict))


def read_single(source: str | os.PathLike | io.TextIOBase, *, strict: bool = False) -> FastaRecord:
    """Read a FASTA file that must contain exactly one record."""
    records = read_fasta(source, strict=strict)
    if len(records) != 1:
        raise FastaError(f"expected exactly one record, found {len(records)}")
    return records[0]


def write_fasta(
    target: str | os.PathLike | io.TextIOBase,
    records: FastaRecord | list[FastaRecord],
    *,
    width: int = 70,
) -> None:
    """Write one or more records, wrapping sequence lines at *width*."""
    if width <= 0:
        raise FastaError("line width must be positive")
    if isinstance(records, FastaRecord):
        records = [records]
    own = False
    if isinstance(target, (str, os.PathLike)):
        handle: io.TextIOBase = open(target, "w", encoding="ascii")
        own = True
    else:
        handle = target
    try:
        for rec in records:
            handle.write(f">{rec.description or rec.name}\n")
            text = rec.text
            for start in range(0, len(text), width):
                handle.write(text[start : start + width])
                handle.write("\n")
    finally:
        if own:
            handle.close()
