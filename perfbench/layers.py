"""Per-layer probes: time calls into each layer's public functions.

Two halves:

* ``python -m perfbench.layers A.fa B.fa ALIGN-ARGS...`` is the traced
  stand-in for ``mgsw align --backend process``: it parses the same
  arguments with the CLI's own parser (so every default is the CLI's),
  times ``seq.read_single`` and ``align_multi_process`` around the calls,
  times one cold ``assess_heuristic`` and prints the result's per-worker
  spans (``ProcessChainResult.tracer``) as one JSON line.
* :func:`kernel_probes`, :func:`comm_probes` and :func:`pool_probes` run
  in the benchmark process at a workload's own block shape.
"""

from __future__ import annotations

import time

#: Interpreter entry time of the traced stand-in (``perf_counter`` is
#: CLOCK_MONOTONIC, so the launching process can subtract its own launch
#: time from it).
T_ENTRY = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

from .common import median


def _timed(fn, reps: int) -> float:
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return median(samples)


# -- traced align (subprocess) ------------------------------------------------
def traced_align(argv) -> dict:
    from repro import seq
    from repro.cli import build_parser
    from repro.multigpu import align_multi_process
    from repro.sw import resolve_kernel
    from repro.sw.kernel import BestCell
    from repro.sw.xdrop import assess_heuristic

    import_s = time.perf_counter() - T_ENTRY
    # Cold confidence check (its Karlin-Altschul fit is cached per
    # process), timed before the align so auto mode finds it warm there.
    t0 = time.perf_counter()
    assess_heuristic(BestCell.none(), 1, 1, seq.DNA_DEFAULT)
    assess_s = time.perf_counter() - t0
    args = build_parser().parse_args(["align", *argv])
    t0 = time.perf_counter()
    a = seq.read_single(args.seq_a).codes
    b = seq.read_single(args.seq_b).codes
    read_s = time.perf_counter() - t0
    kernel = resolve_kernel(args.kernel)
    t0 = time.perf_counter()
    res = align_multi_process(
        a, b, seq.DNA_DEFAULT, workers=args.workers,
        block_rows=args.block_rows, capacity=args.buffer,
        transport=args.transport, start_method=args.start_method,
        kernel=kernel, pruning=args.pruning, mode=args.mode,
        band_width=args.band_width, xdrop_x=args.xdrop_x,
        dp_dtype=args.dp_dtype, max_restarts=args.max_restarts,
        restart_backoff_s=args.restart_backoff_s)
    call_s = time.perf_counter() - t0
    spans: dict = {}
    for iv in res.tracer.intervals:
        kinds = spans.setdefault(iv.actor, {})
        kinds[iv.kind] = kinds.get(iv.kind, 0.0) + iv.duration
    return {
        "best": [res.score, res.best.row, res.best.col],
        "tier": res.tier,
        "entry": T_ENTRY,
        "import_s": import_s,
        "read_s": read_s,
        "call_s": call_s,
        "result_wall_s": res.wall_time_s,
        "assess_s": assess_s,
        "spans": spans,
        "slabs": [[s.col0, s.col1] for s in res.partition],
        "block_rows": args.block_rows,
        "dp_dtype": res.dp_dtype,
        "kernel": kernel,
        "transport": args.transport,
        "capacity": args.buffer,
        "mode": args.mode,
        "band_width": args.band_width,
        "blocks_skipped_band": res.blocks_skipped_band,
    }


def span_layers(traced: dict) -> dict:
    """Layer metrics from one traced run's worker spans.

    The critical worker is the one with the largest span total: its
    compute, send, wait and other spans plus ``multigpu.overhead_s``
    (spawn, partition, collect, teardown) make up the result wall.
    """
    workers = traced["spans"]
    totals = {w: sum(k.values()) for w, k in workers.items()}
    critical = max(totals, key=totals.get)
    crit = workers[critical]
    busy = [t - k.get("wait", 0.0) for t, k in
            ((totals[w], workers[w]) for w in workers)]
    other = totals[critical] - sum(crit.get(k, 0.0)
                                   for k in ("compute", "d2h", "wait"))
    return {
        "critical": critical,
        "critical.compute_s": crit.get("compute", 0.0),
        "critical.send_s": crit.get("d2h", 0.0),
        "critical.wait_s": crit.get("wait", 0.0),
        "critical.other_s": other,
        "multigpu.compute_s": max(k.get("compute", 0.0)
                                  for k in workers.values()),
        "multigpu.imbalance": max(busy) / min(busy) if min(busy) > 0 else 1.0,
        "multigpu.overhead_s": traced["result_wall_s"] - totals[critical],
        "comm.send_s": sum(k.get("d2h", 0.0) for k in workers.values()),
        "comm.wait_s": sum(k.get("wait", 0.0) for k in workers.values()),
    }


def band_useful_ratio(rows: int, cols: int, traced: dict) -> float:
    """In-band cells ``m * min(n, 2 * band_width + 1)`` over cells swept."""
    from repro.sw.blocks import BlockSpec
    from repro.sw.xdrop import band_intersects

    bw = traced["band_width"]
    br = traced["block_rows"]
    swept = 0
    for col0, col1 in traced["slabs"]:
        for r0 in range(0, rows, br):
            spec = BlockSpec(r0, min(rows, r0 + br), col0, col1)
            if traced["tier"] == "exact" or band_intersects(spec, bw):
                swept += (spec.row1 - spec.row0) * (col1 - col0)
    return rows * min(cols, 2 * bw + 1) / swept


# -- in-process probes --------------------------------------------------------
KERNELS = ("scalar", "batched", "compiled")


def kernel_probes(a: np.ndarray, b: np.ndarray, traced: dict) -> dict:
    """Profile build over every slab, one block call per kernel and the
    E-scan share, all at the run's own block shape and DP dtype."""
    from repro import seq
    from repro.sw.batched import BlockJob, KernelWorkspace, sweep_wavefront
    from repro.sw.compiled import sweep_block_compiled
    from repro.sw.constants import DTYPE, NEG_INF, resolve_dp_dtype
    from repro.sw.kernel import build_profile, sweep_block
    from repro.sw.scan import escan_row

    scoring = seq.DNA_DEFAULT
    slabs = traced["slabs"]
    rows = min(traced["block_rows"], int(a.size))
    width = max(c1 - c0 for c0, c1 in slabs)
    cells = rows * width
    reps = max(1, min(5, int(2e7 // cells)))
    out = {"sw.profile_s": _timed(
        lambda: [build_profile(b[c0:c1], scoring) for c0, c1 in slabs], 3)}

    policy = resolve_dp_dtype(traced["dp_dtype"], scoring, block_cols=width,
                              m=int(a.size), n=int(b.size), local=True)
    dp = policy if policy.narrow else None
    c0, c1 = slabs[0][0], slabs[0][0] + width
    profile = build_profile(b[c0:c1], scoring)
    a_blk = a[:rows]
    h_top = np.zeros(width, dtype=DTYPE)
    f_top = np.full(width, NEG_INF, dtype=DTYPE)
    h_left = np.zeros(rows, dtype=DTYPE)
    e_left = np.full(rows, NEG_INF, dtype=DTYPE)
    workspace = KernelWorkspace()
    calls = {
        "scalar": lambda: sweep_block(a_blk, profile, h_top, f_top, h_left,
                                      e_left, 0, scoring, dp=dp),
        "batched": lambda: sweep_wavefront(
            [BlockJob(a_blk, profile, h_top, f_top, h_left, e_left, 0)],
            scoring, local=True, workspace=workspace, dp=dp),
        "compiled": lambda: sweep_block_compiled(
            a_blk, profile, h_top, f_top, h_left, e_left, 0, scoring,
            local=True, dp=dp),
    }
    for name in KERNELS:
        calls[name]()  # first call pays lazy set-up (ramps, JIT)
        out[f"sw.block_s.{name}"] = _timed(calls[name], reps)
    block_s = out[f"sw.block_s.{traced['kernel']}"]
    out["sw.block_s"] = block_s
    out["sw.block_gcups"] = cells / block_s / 1e9

    kind = policy.kind
    open_, ext = kind(scoring.gap_open), kind(scoring.gap_extend)
    j_ext = (np.arange(width, dtype=kind) * ext).astype(kind)
    # A plausible pre-E H row: the substitution scores of the first base.
    temp = np.asarray(profile[int(a[0])], dtype=kind).clip(0)
    scan = np.empty(width, dtype=kind)
    e_row = np.empty(width, dtype=kind)
    h0, e0 = kind(0), kind(policy.neg_inf)

    def escan_block():
        for _ in range(rows):
            escan_row(temp, h0, e0, open_, ext, j_ext, scan, e_row)

    out["sw.escan_share"] = _timed(escan_block, reps) / block_s
    return out


def comm_probes(traced: dict, rows: int, workers: int) -> dict:
    """Computed border traffic plus one in-process round trip per
    transport at the run's block height."""
    from repro.comm.shmring import HEADER_BYTES, ShmRing
    from repro.multigpu.procchain import PipeLink, pick_context

    br = traced["block_rows"]
    heights = [min(br, rows - r0) for r0 in range(0, rows, br)]
    links = workers - 1
    out = {
        "comm.borders": float(links * len(heights)),
        "comm.border_bytes": float(links * sum(8 * h + HEADER_BYTES
                                               for h in heights)),
    }
    ctx = pick_context()
    h = np.arange(heights[0], dtype=np.int32)
    e = -h

    def roundtrips(link):
        def once():
            link.send_border(h, e, 7, timeout=5.0)
            link.recv_border(timeout=5.0)
        once()
        return _timed(once, 200)

    ring = ShmRing(ctx, traced["capacity"], br, label="bench-ring")
    try:
        out["comm.roundtrip_s.shm"] = roundtrips(ring)
    finally:
        ring.close()
        ring.unlink()
    recv_conn, send_conn = ctx.Pipe(duplex=False)
    try:
        out["comm.roundtrip_s.pipe"] = roundtrips(PipeLink(recv_conn, send_conn))
    finally:
        recv_conn.close()
        send_conn.close()
    out["comm.roundtrip_s"] = out[f"comm.roundtrip_s.{traced['transport']}"]
    return out


def pool_probes(short) -> dict:
    """``WorkerPool(workers=2)`` spawn and one warm align of a short pair
    at the serve daemon's default job block height."""
    from repro import seq
    from repro.multigpu import WorkerPool
    from repro.serve.jobs import JobSpec

    block_rows = JobSpec.__dataclass_fields__["block_rows"].default
    spawns = []
    for _ in range(3):
        t0 = time.perf_counter()
        pool = WorkerPool(2)
        spawns.append(time.perf_counter() - t0)
        pool.close()
    pool = WorkerPool(2)
    try:
        def align():
            pool.align(short.a, short.b, seq.DNA_DEFAULT,
                       block_rows=block_rows)
        align()
        pool_align = _timed(align, 3)
    finally:
        pool.close()
    return {"multigpu.spawn_s": median(spawns),
            "multigpu.pool_align_s": pool_align}


def cache_key_s(pair) -> float:
    from repro import seq
    from repro.serve.jobs import JobSpec

    spec = JobSpec(a_codes=pair.a, b_codes=pair.b, scoring=seq.DNA_DEFAULT)
    return _timed(spec.cache_key, 5)


if __name__ == "__main__":
    doc = traced_align(sys.argv[1:])
    doc["done"] = time.perf_counter()
    print(json.dumps(doc))
