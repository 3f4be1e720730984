"""X12 — compiled kernel backend: JIT row sweeps.

Wall-clock comparison of the three block-sweep kernels (scalar, batched,
compiled) at int32 and int16 on the paper-style geometry.  X11 measured
the Amdahl floor: the sequential per-row ``np.maximum.accumulate``
E-scan is dtype-insensitive, so narrow-int kernels cap near 1.15x over
int32 no matter how many bytes they save.  The numba-jitted fused row
sweep (``sw/compiled.py``) breaks that floor: it removes the NumPy
temporaries entirely, computing H/E/F and the best cell in one
dtype-specialised pass with E carried in a register.

JIT compile time is excluded: ``compiled_warmup()`` runs before any
timed sweep, exactly as the engines warm their workers once per process.
Scores must stay bit-identical across every kernel x dtype cell (the
cross-engine differential suite holds exactness; this holds speed).

The headline bound — compiled int16 >= 1.5x batched int32 — only
applies where numba is importable; without it ``compiled`` is the
scalar sweep, so the run degrades to a parity-check (bit-identical
scores, no speed claim).  Set
``MGSW_X12_TINY=1`` for the CI smoke configuration.  Results land in
``benchmarks/BENCH_compiled.json`` for regression tracking.
"""

from __future__ import annotations

import json
import os
import pathlib
import time

import numpy as np

from repro.perf import format_table
from repro.seq import DNA_DEFAULT
from repro.sw import (
    KernelWorkspace,
    compiled_warmup,
    compute_blocked,
    numba_available,
)
from repro.workloads import random_dna

from bench_helpers import print_header

TINY = bool(os.environ.get("MGSW_X12_TINY"))
N = 2_048 if TINY else 16_384
MEGA_M = 512 if TINY else 1_024
MEGA_N = 65_536 if TINY else 1_048_576
BLOCK_ROWS = 256
BLOCK_COLS = 2_048
REPEATS = 2 if TINY else 3          # best-of to shed scheduler noise
KERNELS = ("scalar", "batched", "compiled")
#: Headline bound: the fused JIT sweep at int16 over the batched NumPy
#: sweep at int32 — the cross-kernel *and* cross-dtype win the paper's
#: CUDA kernel banks on.  Only asserted where numba actually compiles
#: (the scalar fallback is a correctness lane, not a speed lane) and at
#: full scale (the tiny matrix can't amortise anything).
MIN_SPEEDUP = 1.5
OUT_PATH = pathlib.Path(__file__).parent / "BENCH_compiled.json"


def _best_run(a, b, kernel, dp_dtype, *, repeats=REPEATS):
    workspace = KernelWorkspace()   # shared across repeats, like the engines
    best_s, out = None, None
    for _ in range(repeats):
        t0 = time.perf_counter()
        run = compute_blocked(a, b, DNA_DEFAULT, block_rows=BLOCK_ROWS,
                              block_cols=BLOCK_COLS, kernel=kernel,
                              workspace=workspace, dp_dtype=dp_dtype)
        elapsed = time.perf_counter() - t0
        if best_s is None or elapsed < best_s:
            best_s, out = elapsed, run
    return best_s, out


def _section(title, a, b, cases, *, repeats=REPEATS):
    """Run (kernel, dp_dtype) cases, assert one best cell, print a table."""
    cells = int(a.size) * int(b.size)
    runs = {c: _best_run(a, b, *c, repeats=repeats) for c in cases}
    outcomes = {(r.best.score, r.best.row, r.best.col) for _, r in runs.values()}
    assert len(outcomes) == 1, f"{title}: kernels disagree on the best cell"
    gcups = {c: cells / s / 1e9 for c, (s, _) in runs.items()}
    rows = [[k, d, runs[c][1].dp_dtype, f"{gcups[c]:.4f}",
             f"{runs[c][0]:.3f}s", str(runs[c][1].dtype_escalations)]
            for c in cases for k, d in [c]]
    print(f"\n{title}: {a.size:,} x {b.size:,} "
          f"({cells / 1e6:.0f} Mcells, best-of-{repeats})")
    print(format_table(
        ["kernel", "dp_dtype", "resolved", "GCUPS (wall)", "wall time",
         "escalations"], rows))
    return runs, gcups


def test_x12_compiled_throughput(benchmark):
    jit = numba_available()
    print_header("X12 compiled kernel backend",
                 f"compiled int16 vs batched int32 >= {MIN_SPEEDUP}x "
                 "(wall clock, warmup excluded), bit-identical scores; "
                 f"numba {'present' if jit else 'ABSENT -> scalar parity run'}")
    warm_s = compiled_warmup()
    print(f"jit warmup: {warm_s:.3f}s (excluded from every timed sweep)")
    rng = np.random.default_rng(54)

    cases = [(k, d) for k in KERNELS for d in ("int32", "int16")]

    # -- square section ------------------------------------------------------
    a = random_dna(N, rng=rng)
    b = random_dna(N, rng=rng)
    sq_runs, sq_gcups = _section("square", a, b, cases)
    speedup = sq_gcups[("compiled", "int16")] / sq_gcups[("batched", "int32")]
    print(f"compiled-int16 / batched-int32 speedup: {speedup:.2f}x")

    # -- megabase strip ------------------------------------------------------
    ma = random_dna(MEGA_M, rng=rng)
    mb = random_dna(MEGA_N, rng=rng)
    mega_runs, mega_gcups = _section("megabase strip", ma, mb, cases,
                                     repeats=1)
    mega_speedup = (mega_gcups[("compiled", "int16")]
                    / mega_gcups[("batched", "int32")])
    print(f"megabase compiled-int16 / batched-int32 speedup: "
          f"{mega_speedup:.2f}x")

    best = sq_runs[("batched", "int32")][1].best
    record = {
        "experiment": "x12_compiled",
        "tiny": TINY,
        "numba": jit,
        "matrix": {"rows": int(a.size), "cols": int(b.size)},
        "block": {"rows": BLOCK_ROWS, "cols": BLOCK_COLS},
        "repeats": REPEATS,
        "warmup_s": warm_s,
        "score": best.score,
        "end": [best.row, best.col],
        "gcups": {f"{k}_{d}": sq_gcups[(k, d)] for k, d in cases},
        "wall_time_s": {f"{k}_{d}": sq_runs[(k, d)][0] for k, d in cases},
        "speedup_compiled_int16": speedup,
        "megabase": {
            "matrix": {"rows": int(ma.size), "cols": int(mb.size)},
            "gcups": {f"{k}_{d}": mega_gcups[(k, d)] for k, d in cases},
            "speedup_compiled_int16": mega_speedup,
        },
        "recorded_unix": time.time(),
    }
    OUT_PATH.write_text(json.dumps(record, indent=2) + "\n")

    if jit and not TINY:
        assert speedup >= MIN_SPEEDUP, (
            f"compiled int16 only {speedup:.2f}x over batched int32 "
            f"(need {MIN_SPEEDUP}x)")
    elif jit:
        # Tiny matrices can't amortise the row loop; just hold parity.
        assert speedup >= 0.5, f"compiled collapsed under TINY: {speedup:.2f}x"

    benchmark(compute_blocked, a, b, DNA_DEFAULT, block_rows=BLOCK_ROWS,
              block_cols=BLOCK_COLS, kernel="compiled", dp_dtype="int16")
