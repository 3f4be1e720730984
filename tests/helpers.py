"""Shared non-fixture helpers for the test suite."""

from __future__ import annotations

import numpy as np

from repro.seq.scoring import Scoring


#: DNA_DEFAULT scaled by 256: under it int16 sweeps at most 48 columns
#: and overflows after about 70 matches, so similar pairs escalate some
#: blocks while unrelated pairs stay narrow.
DNA_X256 = Scoring(match=256, mismatch=-768, gap_open=768, gap_extend=512)


def random_codes(rng: np.random.Generator, n: int, *, with_n: bool = False) -> np.ndarray:
    """Random encoded DNA of length *n* (optionally including N)."""
    hi = 5 if with_n else 4
    return rng.integers(0, hi, n).astype(np.uint8)


def random_scoring(rng: np.random.Generator) -> Scoring:
    """A random but valid affine scheme (exercises non-default penalties)."""
    return Scoring(
        match=int(rng.integers(1, 5)),
        mismatch=-int(rng.integers(0, 5)),
        gap_open=int(rng.integers(0, 6)),
        gap_extend=int(rng.integers(1, 4)),
    )


def mutated_copy(rng: np.random.Generator, codes: np.ndarray, snp_rate: float) -> np.ndarray:
    """SNP-mutated copy (guaranteed base changes at mutated sites)."""
    out = codes.copy()
    mask = rng.random(codes.size) < snp_rate
    shift = rng.integers(1, 4, int(mask.sum()), dtype=np.uint8)
    out[mask] = (out[mask] + shift) % 4
    return out


def count_calls(monkeypatch, module, name: str) -> list:
    """Wrap ``module.name`` so each call appends to the returned list."""
    calls: list = []
    real = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls
