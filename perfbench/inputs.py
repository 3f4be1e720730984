"""Seeded workload inputs and their cached exact reference answers.

Real human-chimp chromosome FASTA is not in the repository, so every
pair comes from the synthetic homolog generator in ``repro.workloads``
(chromosome-like DNA plus the calibrated 1.2% SNP + indel profile).
The same seed always yields the same sequences.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .common import WORK

#: Rows x cols of the square pair (square-exact and square-auto share it).
SQUARE = (16_000, 16_000)
#: Query x reference of the megabase strip.
STRIP = (1_000, 500_000)
#: Short and long job shapes of the serve cycle.
SHORT = (2_000, 2_000)
LONG = (4_000, 2_000)


@dataclass(frozen=True)
class Pair:
    a: np.ndarray   #: rows (the CLI's first FASTA, the vertical sequence)
    b: np.ndarray   #: columns (partitioned into worker slabs)

    @property
    def cells(self) -> int:
        return int(self.a.size) * int(self.b.size)

    def digest(self) -> str:
        h = hashlib.sha256()
        for codes in (self.a, self.b):
            h.update(str(codes.size).encode())
            h.update(np.ascontiguousarray(codes).tobytes())
        return h.hexdigest()


def rng_for(seed: int, tag: str) -> np.random.Generator:
    """Independent stream per (seed, tag) so workloads never share draws
    unless they are meant to (square-exact and square-auto use one tag)."""
    key = int.from_bytes(hashlib.sha256(tag.encode()).digest()[:4], "little")
    return np.random.default_rng([int(seed), key])


def homolog_pair(rng: np.random.Generator, rows: int, cols: int) -> Pair:
    """A (rows x cols) homolog pair.

    Unless the query is much shorter than the reference, the pair is the
    first *rows* bases of a chromosome-like sequence and the first *cols*
    of its mutated copy.  Strip shapes (rows * 4 <= cols) mutate a random
    window of the long reference into the short query, so the optimum
    sits somewhere along the megabase axis.
    """
    from repro import seq, workloads

    slack = max(rows, cols) // 20 + 64
    if rows * 4 > cols:
        base = workloads.chromosome_like(max(rows, cols) + slack, rng=rng)
        other = workloads.mutate(base, workloads.HUMAN_CHIMP, rng=rng)
        return Pair(base[:rows].copy(), other[:cols].copy())
    ref = workloads.chromosome_like(cols, rng=rng)
    # A query is sequenced DNA: a window lying mostly in an assembly gap
    # (an N run of the chromosome-like reference) is drawn again.
    while True:
        start = int(rng.integers(0, cols - rows - slack))
        if np.count_nonzero(ref[start:start + rows] == seq.N) * 2 < rows:
            break
    query = workloads.mutate(ref[start:start + rows + slack],
                             workloads.HUMAN_CHIMP, rng=rng)
    return Pair(query[:rows].copy(), ref)


def tiny_pair() -> Pair:
    """The 10 bp pair whose align wall is the front door's set-up cost."""
    from repro import seq

    return Pair(seq.encode("ACGTTGCAAC"), seq.encode("ACGTAGCAAC"))


def write_pair(pair: Pair, directory: Path) -> tuple[Path, Path]:
    from repro import seq

    directory.mkdir(parents=True, exist_ok=True)
    paths = (directory / "a.fa", directory / "b.fa")
    for path, name, codes in zip(paths, ("a", "b"), (pair.a, pair.b)):
        seq.write_fasta(path, seq.FastaRecord(name, name, codes))
    return paths


def reference(pair: Pair) -> tuple[int, int, int]:
    """``(score, row, col)`` from the in-process single-engine exact sweep
    (scalar kernel, int32, full-width blocks), cached by input digest."""
    cache = WORK / "refcache" / f"{pair.digest()}.json"
    if cache.exists():
        return tuple(json.loads(cache.read_text()))
    from repro import seq
    from repro.sw.blocks import compute_blocked

    best = compute_blocked(pair.a, pair.b, seq.DNA_DEFAULT, kernel="scalar",
                           dp_dtype="int32", block_rows=512,
                           block_cols=int(pair.b.size)).best
    answer = (int(best.score), int(best.row), int(best.col))
    cache.parent.mkdir(parents=True, exist_ok=True)
    cache.write_text(json.dumps(answer))
    return answer
