"""X11 — narrow-int DP kernels: int16 throughput vs the int32 baseline.

Wall-clock numbers from the single-device blocked executor with the
batched kernel at the paper-style geometry (256-row block rows, 2048-col
slab-width blocks).  The int16 kernel moves half the bytes per cell
through every vectorised ufunc of the row sweep — but the per-row ``np.maximum.accumulate`` E-scan is a sequential
C loop whose cost is dtype-*insensitive* (~3 ns/element regardless of
width) and claims roughly 40% of the row budget, so Amdahl caps the
realisable narrow speedup well below the 2x byte ratio.  The bound
asserted here (>= 1.08x, typical 1.12-1.17x on commodity hosts) is the
honest executor-level figure for that mechanism; scores stay
bit-identical throughout (the cross-engine differential suite holds the
exactness; this experiment holds the speed).  The dtypes run
interleaved, one run each per round, and the gate reads the median of
the per-round int32/int16 wall-time ratios: a best-of over separate
blocks of runs read anywhere from 1.01x to 1.43x on a shared 2-core
host, because load shifted between the blocks.

Two sections:

* square — a 16k x 16k random pair, int32 vs int16 vs auto (auto must
  resolve narrow here and match int16's throughput class);
* megabase — a 1k x 1M strip, the shape the multi-GPU slabs actually
  sweep, int32 vs int16.

Set ``MGSW_X11_TINY=1`` for the CI smoke configuration.  Results land in
``benchmarks/BENCH_dtype.json`` for regression tracking.
"""

from __future__ import annotations

import json
import os
import pathlib
import time

import numpy as np

from repro.perf import format_table
from repro.seq import DNA_DEFAULT
from repro.sw import KernelWorkspace, compute_blocked
from repro.workloads import random_dna

from bench_helpers import print_header

TINY = bool(os.environ.get("MGSW_X11_TINY"))
N = 2_048 if TINY else 16_384
MEGA_M = 512 if TINY else 1_024
MEGA_N = 65_536 if TINY else 1_048_576
BLOCK_ROWS = 256
BLOCK_COLS = 2_048
#: Rounds of interleaved runs, one run of every dtype per round: each
#: round's int32/int16 ratio compares two runs taken back to back, so a
#: load change on a shared host moves both, and the gate reads the
#: median ratio over the rounds.
ROUNDS = 5
#: Acceptance bound for int16 over int32 on the square workload: the
#: dtype-insensitive E-scan (sequential ``maximum.accumulate``) caps the
#: narrow win near 1.15x, so the assert leaves noise margin under that.
#: The tiny matrix has too few wavefront lanes to amortise the row loop
#: at all, so CI only checks the narrow path doesn't regress below
#: parity.
MIN_SPEEDUP = 0.9 if TINY else 1.08
OUT_PATH = pathlib.Path(__file__).parent / "BENCH_dtype.json"


def _rounds(a, b, dtypes, *, rounds=ROUNDS):
    """Wall times of *rounds* rounds, each one run of every dtype in
    *dtypes*, the order rotated every round; returns ``{dtype: [seconds
    per round]}`` and each dtype's last outcome."""
    workspace = KernelWorkspace()   # shared across runs, like the engines
    times = {d: [] for d in dtypes}
    outs = {}
    for r in range(rounds):
        for d in dtypes[r % len(dtypes):] + dtypes[:r % len(dtypes)]:
            t0 = time.perf_counter()
            outs[d] = compute_blocked(a, b, DNA_DEFAULT, block_rows=BLOCK_ROWS,
                                      block_cols=BLOCK_COLS, kernel="batched",
                                      workspace=workspace, dp_dtype=d)
            times[d].append(time.perf_counter() - t0)
    return times, outs


def _section(title, a, b, dtypes, **kwargs):
    """One section's interleaved rounds and table; returns ``(times,
    outcomes, GCUPS at the median wall time)``."""
    cells = int(a.size) * int(b.size)
    times, outs = _rounds(a, b, dtypes, **kwargs)
    best = {(r.best.score, r.best.row, r.best.col) for r in outs.values()}
    assert len(best) == 1, f"{title}: dtypes disagree on the best cell"
    wall = {d: float(np.median(times[d])) for d in dtypes}
    gcups = {d: cells / wall[d] / 1e9 for d in dtypes}
    rows = [[d, outs[d].dp_dtype, f"{gcups[d]:.4f}", f"{wall[d]:.3f}s",
             str(outs[d].tally.blocks_narrow),
             str(outs[d].tally.dtype_escalations)]
            for d in dtypes]
    print(f"\n{title}: {a.size:,} x {b.size:,} ({cells / 1e6:.0f} Mcells, "
          f"median of {kwargs.get('rounds', ROUNDS)} interleaved rounds)")
    print(format_table(
        ["dp_dtype", "resolved", "GCUPS (wall)", "median wall",
         "narrow blocks", "escalations"], rows))
    return times, outs, gcups


def _ratio(times, slow, fast) -> float:
    """Median over rounds of ``slow / fast`` wall time within a round."""
    return float(np.median([s / f for s, f in zip(times[slow], times[fast])]))


def test_x11_dtype_throughput(benchmark):
    print_header("X11 narrow-int DP kernels",
                 f"int16 sweeps vs int32 >= {MIN_SPEEDUP}x (wall clock), "
                 "bit-identical scores")
    rng = np.random.default_rng(53)

    # -- square section ------------------------------------------------------
    a = random_dna(N, rng=rng)
    b = random_dna(N, rng=rng)
    sq_times, sq_outs, sq_gcups = _section("square", a, b,
                                           ("int32", "int16", "auto"))
    auto_resolved = sq_outs["auto"].dp_dtype
    assert auto_resolved != "int32", "auto failed to go narrow on this pair"
    assert sq_outs["int16"].tally.dtype_escalations == 0  # random pair: no risk
    speedup = _ratio(sq_times, "int32", "int16")
    print(f"int16/int32 speedup: {speedup:.2f}x  (auto -> {auto_resolved})")

    # -- megabase strip ------------------------------------------------------
    ma = random_dna(MEGA_M, rng=rng)
    mb = random_dna(MEGA_N, rng=rng)
    mega_times, _, mega_gcups = _section("megabase strip", ma, mb,
                                         ("int32", "int16"), rounds=1)
    mega_speedup = _ratio(mega_times, "int32", "int16")
    print(f"megabase int16/int32 speedup: {mega_speedup:.2f}x")

    best = sq_outs["int32"].best
    record = {
        "experiment": "x11_dtype",
        "tiny": TINY,
        "matrix": {"rows": int(a.size), "cols": int(b.size)},
        "block": {"rows": BLOCK_ROWS, "cols": BLOCK_COLS},
        "rounds": ROUNDS,
        "score": best.score,
        "end": [best.row, best.col],
        "gcups": {d: sq_gcups[d] for d in sq_gcups},
        "wall_time_s": {d: float(np.median(sq_times[d])) for d in sq_times},
        "round_ratios_int16": [s / f for s, f in zip(sq_times["int32"],
                                                     sq_times["int16"])],
        "auto_resolved": auto_resolved,
        "speedup_int16": speedup,
        "megabase": {
            "matrix": {"rows": int(ma.size), "cols": int(mb.size)},
            "gcups": mega_gcups,
            "speedup_int16": mega_speedup,
        },
        "recorded_unix": time.time(),
    }
    OUT_PATH.write_text(json.dumps(record, indent=2) + "\n")

    assert speedup >= MIN_SPEEDUP, (
        f"int16 kernel only {speedup:.2f}x over int32 (need {MIN_SPEEDUP}x)")

    benchmark(compute_blocked, a, b, DNA_DEFAULT, block_rows=BLOCK_ROWS,
              block_cols=BLOCK_COLS, kernel="batched", dp_dtype="int16")
