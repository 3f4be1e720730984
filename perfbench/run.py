"""End-to-end, layer-attributed benchmark of ``mgsw align`` and ``mgsw serve``.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload square-exact --seed 1 --seconds 20 --trace 0

``--workload all`` runs every workload in turn.  ``--trace 0`` prints
every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` runs the separate traced pass and prints every per-layer
metric plus the layer table that sums to ``wall_s``.  The last line of
standard output is the JSON result; a full record with the host stamp is
written under ``.bench_work/records/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from perfbench.common import (ROOT, WORK, adopt_orphans,  # noqa: E402
                              cpu_ticks, describe, format_layer_table,
                              host_stamp, layer_table, median, steal_share,
                              stop_children, trace_overhead)

ALIGN_WORKLOADS = {
    # name: (pair tag, shape attribute in perfbench.inputs, extra flags, tier)
    "square-exact": ("square", "SQUARE", (), None),
    "megabase-strip": ("strip", "STRIP", (), None),
    "square-auto": ("square", "SQUARE", ("--mode", "auto"), "banded"),
}
WORKLOADS = tuple(ALIGN_WORKLOADS)
#: Length of the open-loop ``mgsw serve`` cycle in every traced pass.
SERVE_MIX_S = 6.0
#: Untraced front-door runs the traced pass attributes its layers against.
UNTRACED_RUNS = 3


def align_bench(name: str, seed: int):
    from perfbench import inputs
    from perfbench.align_bench import AlignBench

    tag, shape, args, tier = ALIGN_WORKLOADS[name]
    pair = inputs.homolog_pair(inputs.rng_for(seed, tag),
                               *getattr(inputs, shape))
    return AlignBench(name, pair, args, tier)


def align_layers(bench, seed: int, walls) -> tuple[dict, list]:
    """The traced pass's align-side layers for *bench*, against the
    untraced median of *walls*; returns (metrics, layer table rows)."""
    from perfbench import layers
    from perfbench.serve_bench import short_pair

    wall = median(walls)
    traced = bench.traced()
    spans = layers.span_layers(traced)
    m, n = int(bench.pair.a.size), int(bench.pair.b.size)
    out = {
        "seq.read_s": traced["read_s"],
        "sw.assess_s": traced["assess_s"],
        "sw.band_useful_ratio": layers.band_useful_ratio(m, n, traced),
        # The cold assess probe runs inside the traced process; it is not
        # part of the front door's wall.
        "bench.trace_overhead_s": trace_overhead(
            traced["process_wall_s"] - traced["assess_s"], walls),
        **{k: v for k, v in spans.items() if not k.startswith("critical")},
    }
    out["multigpu.speedup"] = bench.run(("--workers", "1")).wall_s / wall
    tel = bench.run(("--telemetry", str(bench.dir / "telemetry")))
    out["obs.telemetry_frac"] = (tel.wall_s - wall) / wall
    out.update(layers.kernel_probes(bench.pair.a, bench.pair.b, traced))
    out.update(layers.comm_probes(traced, m, len(traced["slabs"])))
    out.update(layers.pool_probes(short_pair(seed)))
    out["serve.cache_key_s"] = layers.cache_key_s(bench.pair)
    crit = spans["critical"]
    parts = [
        ("interpreter start", traced["start_s"]),
        ("imports", traced["import_s"]),
        ("seq.read_s", traced["read_s"]),
        (f"{crit} compute", spans["critical.compute_s"]),
        (f"{crit} send (d2h)", spans["critical.send_s"]),
        (f"{crit} wait", spans["critical.wait_s"]),
        (f"{crit} other spans", spans["critical.other_s"]),
        ("multigpu.overhead_s", spans["multigpu.overhead_s"]),
        ("after workers (tier dispatch)",
         traced["call_s"] - traced["result_wall_s"]),
    ]
    if traced["mode"] in ("banded", "auto"):
        # The stand-in warmed the confidence check before aligning; the
        # CLI pays it cold inside the auto tier dispatch.
        parts.append(("sw.assess_s (cold)", traced["assess_s"]))
    parts.append(("interpreter exit", traced["exit_s"]))
    rows = layer_table(wall, parts)
    out["multigpu.unaccounted_s"] = rows[-1][1]
    return out, rows


def run_align(name: str, seed: int, seconds: float, trace: bool):
    bench = align_bench(name, seed)
    if not trace:
        metrics, walls = bench.e2e(seconds)
        print(f"[{name}] wall_s over runs: {describe(walls)}")
        return metrics, bench.tally, {}
    walls = [bench.run().wall_s for _ in range(UNTRACED_RUNS)]
    metrics, rows = align_layers(bench, seed, walls)
    metrics.update(serve_cycle(seed, bench))
    print(f"[{name}] layer table (sums to untraced wall_s "
          f"{median(walls):.4f} s):")
    print(format_layer_table(median(walls), rows))
    return metrics, bench.tally, {"layer_table": rows}


def serve_cycle(seed: int, bench) -> dict:
    """The serve layer: one ``mgsw serve`` cycle under the open-loop mix."""
    from perfbench.common import Tally
    from perfbench.serve_bench import (SERVE_ARGS, SHORT_LIMIT_S, run_mix,
                                       serve_layers)

    mix, _, stats = run_mix(seed, SERVE_MIX_S, bench.dir / "serve", bench.tally)
    short = [j for j in mix.jobs if j.lane == "short"]
    lat = [j.latency for j in short if j.error is None]
    print(f"[serve] mgsw {' '.join(SERVE_ARGS)}: {len(short)} short jobs, "
          f"{len(mix.jobs) - len(short)} long; short latency {describe(lat)}")
    short_tally = Tally(attempted=len(short),
                        failures=[j.error for j in short if j.error])
    print(f"[serve] short jobs within {SHORT_LIMIT_S:g} s: "
          f"{short_tally.within_limit(lat, SHORT_LIMIT_S):.1%} of attempted")
    return serve_layers(mix, stats)


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 declared) -> dict:
    """Run one workload, print its report and record; returns the result."""
    stamp = host_stamp()
    print(f"[{workload}] host: " + json.dumps(stamp, sort_keys=True))
    ticks = cpu_ticks()
    values, tally, extra = run_align(workload, seed, seconds, trace)
    steal = steal_share(ticks, cpu_ticks())
    print(f"[{workload}] cpu steal during the run: {steal:.1%}")
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise RuntimeError(f"benchmark produced no value for {missing}")
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in declared}
    for name, doc in metrics.items():
        print(f"{name:<28} {doc['value']:>14.6g} {doc['unit']}")
    print(f"failed_frac {tally.failed_frac:.4f} ({tally.failed} of "
          f"{tally.attempted} operations)")
    for reason in tally.failures:
        print(f"  failed: {reason}")
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "host": stamp, "cpu_steal": steal,
              "metrics": metrics, "attempted": tally.attempted,
              "failed": tally.failed, "failures": tally.failures, **extra}
    out = WORK / "records" / f"{workload}-seed{seed}-trace{trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")
    return {"correct": tally.correct, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"),
                    help="one workload, or all of them in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}; run from a "
              "full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    sys.path.insert(0, str(ROOT / "src"))
    adopt_orphans()
    try:
        result = run_all(args, declared)
    finally:
        stop_children()
    print(json.dumps(result))
    return 0


def run_all(args, declared) -> dict:
    if args.workload != "all":
        return run_workload(args.workload, args.seed, args.seconds,
                            args.trace, declared)
    results = {w: run_workload(w, args.seed, args.seconds, args.trace,
                               declared) for w in WORKLOADS}
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{name}": doc for w, r in results.items()
                    for name, doc in r["metrics"].items()}}


if __name__ == "__main__":
    sys.exit(main())
