"""Command-line interface: the ``mgsw`` tool.

Subcommands:

* ``mgsw generate`` — write a synthetic homologous chromosome pair as FASTA;
* ``mgsw align A.fa B.fa`` — exact multi-GPU comparison (score, end point,
  virtual GCUPS; ``--trace`` also reconstructs the alignment).
  ``--backend sim`` (default) runs the simulated device chain;
  ``--backend process`` runs the same dataflow on real OS processes with
  shared-memory border rings (``--workers``, ``--transport``,
  ``--start-method``) and reports wall-clock GCUPS;
* ``mgsw time ROWS COLS`` — timing-mode run at arbitrary (paper) scale;
* ``mgsw tune ROWS COLS`` — autotune block height + buffer capacity;
* ``mgsw campaign`` — the 4-pair paper campaign, both strategies;
* ``mgsw stats`` — Karlin-Altschul significance thresholds;
* ``mgsw dotplot A.fa B.fa`` — coarse text dotplot;
* ``mgsw devices`` — list the built-in device presets and environments;
* ``mgsw perf trace-export`` — run a comparison and export its timeline
  as Chrome trace-event JSON (loadable in Perfetto / ``chrome://tracing``);
* ``mgsw perf diff OLD NEW`` — regression diff between two telemetry /
  benchmark JSON documents (report-only unless ``--fail-on-regression``);
* ``mgsw top DIR`` — live per-worker progress table rendered from a
  running ``mgsw align --telemetry DIR`` (follows until ``run_end``);
* ``mgsw serve`` — long-lived alignment service: admission-controlled
  fair-share job queue over persistent worker pools, digest-keyed
  result cache, live ``/jobs`` + ``/metrics`` status endpoint
  (INTERNALS.md section 14);
* ``mgsw submit A.fa B.fa`` — send one job to a running daemon and
  (by default) wait for its result;
* ``mgsw jobs`` — list a running daemon's jobs, queue and cache stats.

``mgsw align --telemetry DIR`` additionally writes the full telemetry
bundle for the run — ``manifest.json``, ``metrics.json``,
``metrics.prom``, ``trace.json``, plus the live ``events.jsonl`` event
journal and ``timeline.jsonl`` progress frames — and, on the process
backend, arms the live heartbeat watchdog (``--heartbeat-s``).
``mgsw align --serve-metrics PORT`` streams the same live state over
HTTP while the run goes: ``/metrics`` is Prometheus text, ``/status``
JSON progress + ETA + recent events (INTERNALS.md section 13).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict
from typing import Sequence

from . import seq, workloads
from .device import spec as device_spec
from .device.spec import DeviceSpec
from .errors import ReproError
from .multigpu import (
    TRANSPORTS,
    ChainConfig,
    align_multi_gpu,
    align_multi_process,
    autotune,
    run_campaign_chained,
    run_campaign_split,
    time_multi_gpu,
)
from .perf import format_table, humanize_cells, humanize_time
from .sw import DP_DTYPE_CHOICES, KERNEL_CHOICES, align_local, resolve_kernel
from .sw.config import CONFIG_FIELDS, AlignConfig
from .sw.xdrop import MODES

#: Name -> preset mapping for --gpu flags.
PRESETS: dict[str, DeviceSpec] = {
    "gtx560ti": device_spec.GTX_560_TI,
    "gtx580": device_spec.GTX_580,
    "gtx680": device_spec.GTX_680,
    "k20": device_spec.TESLA_K20,
    "m2090": device_spec.TESLA_M2090,
}

ENVIRONMENTS: dict[str, tuple[DeviceSpec, ...]] = {
    "env1": device_spec.ENV1_HETEROGENEOUS,
    "env2": device_spec.ENV2_HOMOGENEOUS,
}


def _devices_from_args(args: argparse.Namespace) -> tuple[DeviceSpec, ...]:
    if args.env:
        return ENVIRONMENTS[args.env]
    if args.gpu:
        return tuple(PRESETS[name] for name in args.gpu)
    return ENVIRONMENTS["env1"]


def _add_device_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--env", choices=sorted(ENVIRONMENTS), default=None,
                   help="named GPU environment (default: env1)")
    p.add_argument("--gpu", action="append", choices=sorted(PRESETS), default=None,
                   help="add one device by preset name (repeatable)")


def _add_buffer_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--buffer", type=int, default=4,
                   help="border ring (circular buffer) capacity in segments")


def _add_sim_args(p: argparse.ArgumentParser) -> None:
    """The timing-mode subcommands' flags: devices, block height, ring."""
    _add_device_args(p)
    _add_config_args(p, "block_rows")
    _add_buffer_arg(p)


#: argparse keywords and help for each AlignConfig field's flag.
_CONFIG_FLAGS: dict[str, dict] = {
    "block_rows": dict(
        type=int, help="block row height (border segment granularity)"),
    "kernel": dict(
        choices=KERNEL_CHOICES,
        help="block sweep kernel: scalar (one block at a time), batched "
             "(one NumPy sweep per row across all resident blocks), "
             "compiled (numba-jitted fused row sweeps; needs the optional "
             "'.[compiled]' extra), or auto (compiled where numba "
             "imports, else scalar); scores are bit-identical"),
    "pruning": dict(
        action=argparse.BooleanOptionalAction,
        help="distributed block pruning against a chain-wide best-score "
             "scoreboard (exact: same score and end cell; pays off on "
             "similar sequences)"),
    "mode": dict(
        choices=MODES,
        help="alignment tier: exact, banded (static diagonal "
             "band, heuristic lower bound), xdrop (origin-anchored X-drop "
             "extension), or auto (heuristic first, exact re-run only "
             "when the confidence check fails)"),
    "band_width": dict(
        type=int, help="band half-width for --mode banded/auto"),
    "xdrop_x": dict(
        type=int, help="X-drop termination threshold for --mode xdrop"),
    "dp_dtype": dict(
        choices=DP_DTYPE_CHOICES,
        help="DP cell dtype: auto (narrowest type whose headroom "
             "guarantees no escalation), int32, or a saturating narrow "
             "type (int16/int8) with per-block escalation back to int32 "
             "on overflow — final scores are bit-identical either way"),
}


def _add_config_args(p: argparse.ArgumentParser, *names: str,
                     **defaults) -> None:
    """Add the flags of the AlignConfig fields *names* (default: all
    seven), defaulted from AlignConfig unless *defaults* overrides one."""
    for name in names or CONFIG_FIELDS:
        flag = dict(_CONFIG_FLAGS[name])
        default = defaults.get(name, getattr(AlignConfig, name))
        if name != "pruning":  # BooleanOptionalAction adds its own
            flag["help"] += (" (default %(default)s)" if default is not None
                             else " (default: the serve job default)")
        p.add_argument("--" + name.replace("_", "-"), default=default, **flag)


def _add_process_args(p: argparse.ArgumentParser, *,
                      start_method: bool = True) -> None:
    """Add the real-process engine's flags: worker count, border
    transport, ring depth and (optionally) the start method."""
    p.add_argument("--workers", type=int, default=2,
                   help="slab worker count for the process engine")
    p.add_argument("--transport", choices=TRANSPORTS, default="shm",
                   help="border transport for the process engine")
    _add_buffer_arg(p)
    if start_method:
        p.add_argument("--start-method",
                       choices=("fork", "spawn", "forkserver"), default=None,
                       help="multiprocessing start method (default: fork "
                            "if available, else spawn)")


def _config_from_args(args: argparse.Namespace, **resolved) -> AlignConfig:
    """The AlignConfig the parsed config flags name; *resolved* replaces
    fields a front door resolved (the kernel) or that a subcommand left
    to its own default."""
    return AlignConfig(**{**{n: getattr(args, n) for n in CONFIG_FIELDS
                             if hasattr(args, n)}, **resolved})


def _write_telemetry(outdir, *, backend, config, res, registry, tracer,
                     a, b, wall_time_s, command=None):
    """Write the full telemetry bundle for one run into *outdir*."""
    from pathlib import Path

    from .obs import (
        build_manifest,
        sequence_digest,
        tracer_to_chrome,
        write_chrome_trace,
        write_manifest,
    )
    from .perf.report import result_dict

    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    manifest = build_manifest(
        backend=backend,
        config=config,
        result=result_dict(res),
        sequences={"a": sequence_digest(a), "b": sequence_digest(b)},
        metrics=registry.snapshot(),
        command=command,
        wall_time_s=wall_time_s,
    )
    write_manifest(outdir / "manifest.json", manifest)
    (outdir / "metrics.json").write_text(registry.to_json(indent=2) + "\n")
    (outdir / "metrics.prom").write_text(registry.to_prometheus())
    write_chrome_trace(outdir / "trace.json", tracer_to_chrome(tracer))
    bundle = "manifest.json, metrics.json, metrics.prom, trace.json"
    if (outdir / "events.jsonl").exists():
        bundle += ", events.jsonl, timeline.jsonl"
    print(f"telemetry written to {outdir}/ ({bundle})")


def cmd_align(args: argparse.Namespace) -> int:
    import time as time_mod
    from pathlib import Path

    a = seq.read_single(args.seq_a).codes
    b = seq.read_single(args.seq_b).codes
    title = f"{args.seq_a} vs {args.seq_b}"
    telemetry = args.telemetry is not None
    serve = getattr(args, "serve_metrics", None) is not None
    live = telemetry or serve
    registry = tracer = None
    journal = sampler = server = None
    if telemetry:
        from .device.trace import Tracer

        tracer = Tracer()
    if live:
        # Live telemetry (INTERNALS.md section 13): the journal and
        # sampler always run when any telemetry consumer is armed; the
        # spill files land next to the post-hoc bundle under --telemetry,
        # and --serve-metrics streams them over HTTP while the run goes.
        from .obs import EventJournal, MetricsRegistry, TimeSeriesSampler

        registry = MetricsRegistry()
        outdir = Path(args.telemetry) if telemetry else None
        journal = EventJournal(
            outdir / "events.jsonl" if outdir is not None else None)
        sampler = TimeSeriesSampler(
            spill=outdir / "timeline.jsonl" if outdir is not None else None,
            registry=registry)
        if serve:
            from .obs import StatusServer

            server = StatusServer(registry=registry, sampler=sampler,
                                  journal=journal, port=args.serve_metrics)
            server.start()
            print(f"[mgsw] serving {server.url}/metrics (Prometheus) and "
                  f"{server.url}/status (JSON)", file=sys.stderr)
    try:
        return _run_align(args, a, b, title, telemetry=telemetry,
                          registry=registry, tracer=tracer,
                          journal=journal, sampler=sampler,
                          time_mod=time_mod)
    finally:
        # Stop the HTTP server *first*: a scrape landing after the
        # sampler/journal close would otherwise render from closed
        # sources (the sampler's final frame is taken by close(), but
        # the journal's spill handle would already be gone).
        if server is not None:
            server.stop()
        if sampler is not None:
            sampler.close()
        if journal is not None:
            journal.close()


def _run_align(args, a, b, title, *, telemetry, registry, tracer,
               journal, sampler, time_mod) -> int:
    from .perf.report import chain_report, process_report, timeline_report

    # Resolve before spawning: an explicit --kernel compiled without
    # numba fails here with a clean ConfigError; --kernel auto is the
    # one static rule on both backends.
    config = _config_from_args(args, kernel=resolve_kernel(args.kernel))
    if args.backend == "process":
        heartbeat_s = args.heartbeat_s
        if heartbeat_s is None and telemetry:
            from .obs import DEFAULT_STALL_AFTER_S

            heartbeat_s = DEFAULT_STALL_AFTER_S
        if heartbeat_s is not None and heartbeat_s <= 0:
            heartbeat_s = None  # --heartbeat-s 0 disables the watchdog

        def on_stall(report):
            print(f"[mgsw] {report.describe()}", file=sys.stderr)

        t0 = time_mod.perf_counter()
        res = align_multi_process(
            a, b, seq.DNA_DEFAULT, config=config, workers=args.workers,
            capacity=args.buffer, transport=args.transport,
            start_method=args.start_method, tracer=tracer, metrics=registry,
            heartbeat_s=heartbeat_s,
            on_stall=on_stall if heartbeat_s is not None else None,
            max_restarts=args.max_restarts,
            restart_backoff_s=args.restart_backoff_s, events=journal,
            timeline=sampler)
        backend_keys = dict(
            workers=args.workers, transport=args.transport,
            start_method=res.start_method, heartbeat_s=heartbeat_s,
            max_restarts=args.max_restarts,
            restart_backoff_s=args.restart_backoff_s)
    else:
        devices = _devices_from_args(args)
        t0 = time_mod.perf_counter()
        res = align_multi_gpu(
            a, b, seq.DNA_DEFAULT, devices,
            config=ChainConfig(**asdict(config), channel_capacity=args.buffer),
            tracer=tracer, metrics=registry, events=journal)
        backend_keys = dict(devices=[d.name for d in devices])
    wall = time_mod.perf_counter() - t0
    report = process_report if args.backend == "process" else chain_report
    print(report(res, title=title))
    section = timeline_report(sampler.frames()) if sampler is not None else ""
    if section:
        print()
        print(section)
    if telemetry:
        # One config block for both backends: the AlignConfig fields as
        # run, the ring depth and the kernel as requested, then the
        # backend's own keys.
        manifest = {"backend": args.backend, **asdict(config),
                    "capacity": args.buffer, "kernel_requested": args.kernel,
                    **backend_keys}
        _write_telemetry(args.telemetry, backend=args.backend,
                         config=manifest, res=res, registry=registry,
                         tracer=tracer, a=a, b=b, wall_time_s=wall,
                         command=getattr(args, "_argv", None))
    if args.trace and res.score > 0:
        aln = align_local(a, b, seq.DNA_DEFAULT)
        print(aln.pretty(a, b))
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    pair = workloads.get_pair(args.pair)
    human, chimp = workloads.synthesize_pair(pair, scale=args.scale, seed=args.seed)
    seq.write_fasta(args.out_a, seq.FastaRecord(
        name=f"human_{pair.name}", description=f"synthetic {pair.human_label} scale={args.scale}",
        codes=human))
    seq.write_fasta(args.out_b, seq.FastaRecord(
        name=f"chimp_{pair.name}", description=f"synthetic {pair.chimp_label} scale={args.scale}",
        codes=chimp))
    print(f"wrote {args.out_a} ({len(human)} bp) and {args.out_b} ({len(chimp)} bp)")
    return 0


def cmd_time(args: argparse.Namespace) -> int:
    devices = _devices_from_args(args)
    cfg = ChainConfig(block_rows=args.block_rows, channel_capacity=args.buffer)
    res = time_multi_gpu(args.rows, args.cols, devices, config=cfg)
    print(f"matrix: {args.rows} x {args.cols} = {humanize_cells(args.rows * args.cols)}")
    print(f"virtual time: {humanize_time(res.total_time_s)}  ->  {res.gcups:.2f} GCUPS")
    for g, bd in zip(res.gpus, res.breakdown()):
        print(f"  {g.name}: {g.slab.cols} cols  compute={bd['compute']:.1%} "
              f"wait={bd['wait']:.1%} idle={bd['idle']:.1%}")
    return 0


def cmd_tune(args: argparse.Namespace) -> int:
    devices = _devices_from_args(args)
    result = autotune(devices, args.rows, args.cols, measured=args.measured)
    print(f"devices: {', '.join(d.name for d in devices)}")
    print(f"matrix : {args.rows:,} x {args.cols:,}")
    print(f"choice : block_rows={result.config.block_rows} "
          f"buffer={result.config.channel_capacity}")
    mode = "measured (event simulator)" if result.measured else "analytic model"
    print(f"model  : {result.predicted_gcups:.2f} GCUPS predicted by the "
          f"{mode} ({humanize_time(result.predicted_total_s)}), "
          f"{result.evaluated} candidates evaluated")
    if args.measured:
        analytic = autotune(devices, args.rows, args.cols, measured=False)
        print(f"analytic pick for comparison: "
              f"block_rows={analytic.config.block_rows} "
              f"buffer={analytic.config.channel_capacity} "
              f"({analytic.predicted_gcups:.2f} GCUPS predicted)")
    if args.verify:
        sim = time_multi_gpu(args.rows, args.cols, devices, config=result.config)
        print(f"simulated: {sim.gcups:.2f} GCUPS ({humanize_time(sim.total_time_s)})")
    return 0


def cmd_campaign(args: argparse.Namespace) -> int:
    devices = _devices_from_args(args)
    cfg = ChainConfig(block_rows=args.block_rows, channel_capacity=args.buffer)
    pairs = list(workloads.PAPER_PAIRS)
    for strategy, runner in (("chained", run_campaign_chained),
                             ("split", run_campaign_split)):
        res = runner(pairs, devices, config=cfg)
        print(f"\n{strategy}: makespan {humanize_time(res.makespan_s)}, "
              f"aggregate {res.aggregate_gcups:.2f} GCUPS, "
              f"mean latency {humanize_time(res.mean_latency_s)}")
        rows = [
            [item.pair.name, humanize_time(item.start_s), humanize_time(item.end_s),
             f"{item.gcups:.2f}"]
            for item in res.items
        ]
        print(format_table(["pair", "start", "end", "GCUPS"], rows))
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    from .stats import dna_statistics

    st = dna_statistics(seq.DNA_DEFAULT, k_samples=args.samples, seed=args.seed)
    print(f"scheme: match={seq.DNA_DEFAULT.match} mismatch={seq.DNA_DEFAULT.mismatch} "
          f"gap {seq.DNA_DEFAULT.gap_open}/{seq.DNA_DEFAULT.gap_extend}")
    print(f"lambda = {st.lam:.4f} (exact)   K = {st.k:.3f} (Monte-Carlo, "
          f"{args.samples} samples)")
    m, n = args.rows, args.cols
    print(f"\nfor an {m:,} x {n:,} comparison:")
    rows = []
    for e in (10.0, 1.0, 1e-3, 1e-10):
        s = st.score_for_evalue(e, m, n)
        rows.append([f"{e:g}", str(s), f"{st.bit_score(s):.1f}"])
    print(format_table(["E-value", "min score", "bits"], rows))
    return 0


def cmd_dotplot(args: argparse.Namespace) -> int:
    from .perf.dotplot import dotplot as make_dotplot

    a = seq.read_single(args.seq_a).codes
    b = seq.read_single(args.seq_b).codes
    plot = make_dotplot(a, b, seq.DNA_DEFAULT, tiles=args.tiles)
    print(f"dotplot of {len(a):,} bp vs {len(b):,} bp "
          f"({plot.tile_rows} x {plot.tile_cols} bp tiles)")
    print(plot.render(threshold=args.threshold))
    print(f"diagonal fraction: {plot.diagonal_fraction():.1%}")
    return 0


def cmd_perf_trace_export(args: argparse.Namespace) -> int:
    from .device.trace import Tracer
    from .obs import tracer_to_chrome, write_chrome_trace

    a = seq.read_single(args.seq_a).codes
    b = seq.read_single(args.seq_b).codes
    tracer = Tracer()
    config = _config_from_args(args, kernel=resolve_kernel(args.kernel))
    if args.backend == "process":
        res = align_multi_process(
            a, b, seq.DNA_DEFAULT, config=config, workers=args.workers,
            capacity=args.buffer, transport=args.transport, tracer=tracer)
    else:
        devices = _devices_from_args(args)
        cfg = ChainConfig(**asdict(config), channel_capacity=args.buffer)
        res = align_multi_gpu(a, b, seq.DNA_DEFAULT, devices, config=cfg,
                              tracer=tracer)
    doc = tracer_to_chrome(tracer)
    write_chrome_trace(args.out, doc)
    print(f"score {res.score}; wrote {len(doc['traceEvents'])} trace events "
          f"for {len(tracer.actors())} actor(s) to {args.out} "
          "(load in Perfetto or chrome://tracing)")
    return 0


def cmd_perf_diff(args: argparse.Namespace) -> int:
    import json

    from .obs import diff_documents, format_diff

    with open(args.old) as fh:
        old = json.load(fh)
    with open(args.new) as fh:
        new = json.load(fh)
    entries = diff_documents(old, new, threshold=args.threshold)
    print(f"diff: {args.old} -> {args.new}")
    print(format_diff(entries, threshold=args.threshold))
    if args.fail_on_regression and any(
            e.regressed(args.threshold) for e in entries):
        return 1
    return 0


def cmd_top(args: argparse.Namespace) -> int:
    """Render the live per-worker progress table from a telemetry dir.

    Follows ``timeline.jsonl``/``events.jsonl`` (re-reading them every
    ``--interval``) until the journal carries a ``run_end`` event, then
    exits; ``--once`` renders a single snapshot and exits immediately
    (what CI and the tests use).
    """
    import time as time_mod
    from pathlib import Path

    from .obs import read_events, read_timeline
    from .perf.report import top_table

    outdir = Path(args.telemetry_dir)
    timeline_path = outdir / "timeline.jsonl"
    events_path = outdir / "events.jsonl"
    while True:
        frames = read_timeline(timeline_path)
        events = read_events(events_path)
        print(top_table(frames[-1] if frames else None, events=events))
        ended = any(e.get("event") == "run_end" for e in events)
        if args.once or ended:
            if ended and not args.once:
                print("run ended")
            return 0
        time_mod.sleep(args.interval)
        print()


def cmd_devices(_args: argparse.Namespace) -> int:
    rows = [
        [name, d.name, f"{d.gcups:.1f}", f"{d.pcie_gbps:.1f}", str(d.copy_engines)]
        for name, d in sorted(PRESETS.items())
    ]
    print(format_table(["preset", "device", "GCUPS", "PCIe GB/s", "copy engines"], rows))
    print()
    for name, env in ENVIRONMENTS.items():
        total = sum(d.gcups for d in env)
        print(f"{name}: {', '.join(d.name for d in env)}  (aggregate {total:.1f} GCUPS)")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the alignment service until a shutdown request or Ctrl-C."""
    from .serve import ServeConfig, ServeDaemon

    config = ServeConfig(
        pools=args.pools, workers=args.workers,
        max_block_rows=args.max_block_rows, capacity=args.buffer,
        transport=args.transport, start_method=args.start_method,
        queue_depth=args.queue_depth, tenant_cap=args.tenant_cap,
        short_cells=args.short_cells, cache_entries=args.cache_entries,
        short_weight=args.short_weight, job_timeout_s=args.job_timeout_s,
        max_restarts=args.max_restarts)
    status_port = args.status_port if args.status_port >= 0 else None
    daemon = ServeDaemon(config, host=args.host, port=args.port,
                         status_port=status_port,
                         telemetry_dir=args.telemetry)
    print(f"[mgsw] serve listening on {args.host}:{daemon.port} "
          f"({config.pools} pool(s) x {config.workers} workers, "
          f"queue depth {config.queue_depth}, "
          f"cache {config.cache_entries} entries)", file=sys.stderr)
    if daemon.status_url is not None:
        print(f"[mgsw] status at {daemon.status_url}/jobs, "
              f"{daemon.status_url}/metrics, {daemon.status_url}/status",
              file=sys.stderr)
    try:
        daemon.serve_until_shutdown()
    except KeyboardInterrupt:
        daemon.stop()
    print("[mgsw] serve drained and stopped", file=sys.stderr)
    return 0


def cmd_submit(args: argparse.Namespace) -> int:
    """Submit one job to a running daemon; wait for the result by default."""
    import json

    from .serve import JobSpec, ServeClient

    # --block-rows left unset takes the serve default from JobSpec.
    block_rows = (args.block_rows if args.block_rows is not None
                  else JobSpec.block_rows)
    fields: dict = {
        "path_a": args.seq_a, "path_b": args.seq_b, "tenant": args.tenant,
        **asdict(_config_from_args(args, block_rows=block_rows)),
        "use_cache": not args.no_cache,
    }
    if args.lane is not None:
        fields["lane"] = args.lane
    with ServeClient(args.host, args.port) as client:
        resp = client.submit(**fields)
        if not resp.get("ok"):
            print(f"error: daemon refused the job ({resp.get('code')}): "
                  f"{resp.get('error')}", file=sys.stderr)
            return 1
        job = resp["job"]
        if not args.no_wait and job["state"] not in ("done", "failed",
                                                     "cancelled"):
            resp = client.check(client.wait(
                job["id"], timeout_s=args.timeout_s))
            job = resp["job"]
    if args.json:
        print(json.dumps(job, indent=2))
        return 0 if job["state"] in ("done", "queued", "running") else 1
    cached = " (cache hit)" if job.get("cached") else ""
    print(f"{job['id']}: {job['state']}{cached}  lane={job['lane']} "
          f"tenant={job['tenant']}  {job['rows']:,} x {job['cols']:,}")
    result = job.get("result")
    if result is not None:
        print(f"  score {result['score']} at "
              f"({result['row']}, {result['col']})  tier={result['tier']} "
              f"dp={result['dp_dtype']}  {result['wall_time_s']:.3f}s "
              f"({result['gcups']:.2f} GCUPS)")
    if job.get("error"):
        print(f"  error: {job['error']}", file=sys.stderr)
    return 0 if job["state"] in ("done", "queued", "running") else 1


def cmd_jobs(args: argparse.Namespace) -> int:
    """List a running daemon's jobs plus queue/cache statistics."""
    import json

    from .serve import ServeClient

    with ServeClient(args.host, args.port) as client:
        listing = client.check(client.jobs(limit=args.limit))
        stats = client.stats()
    if args.json:
        print(json.dumps({"jobs": listing["jobs"], "queue": stats["queue"],
                          "cache": stats["cache"]}, indent=2))
        return 0
    rows = []
    for job in listing["jobs"]:
        result = job.get("result") or {}
        rows.append([
            job["id"], job["tenant"], job["lane"], job["state"],
            "hit" if job.get("cached") else "",
            f"{job['rows']:,}x{job['cols']:,}",
            str(result.get("score", "")),
            f"{job.get('wait_s', 0):.3f}",
            f"{job['run_s']:.3f}" if "run_s" in job else "",
        ])
    print(format_table(
        ["job", "tenant", "lane", "state", "cache", "size", "score",
         "wait s", "run s"], rows))
    q, cache = stats["queue"], stats["cache"]
    print(f"\nqueue: {q['queued']} queued ({q['queued_by_lane']['short']} "
          f"short / {q['queued_by_lane']['long']} long), "
          f"{q['running']} running, {q['total']} total"
          + (" [draining]" if q["closed"] else ""))
    print(f"cache: {cache['entries']}/{cache['max_entries']} entries, "
          f"{cache['hits']} hits / {cache['misses']} misses "
          f"({cache['hit_rate']:.1%} hit rate)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mgsw", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("align", help="exact multi-GPU comparison of two FASTA files")
    p.add_argument("seq_a")
    p.add_argument("seq_b")
    p.add_argument("--trace", action="store_true", help="also reconstruct the alignment")
    p.add_argument("--backend", choices=("sim", "process"), default="sim",
                   help="sim: simulated device chain on the virtual clock; "
                        "process: real OS processes with shared-memory borders")
    _add_process_args(p)
    _add_config_args(p)
    p.add_argument("--telemetry", metavar="DIR", default=None,
                   help="write the telemetry bundle (manifest.json, "
                        "metrics.json, metrics.prom, trace.json, plus the "
                        "live events.jsonl and timeline.jsonl) into DIR")
    p.add_argument("--serve-metrics", metavar="PORT", type=int, default=None,
                   help="serve live run status over HTTP while the "
                        "comparison runs: /metrics (Prometheus text) and "
                        "/status (JSON: progress frames, ETA, recent "
                        "events); 0 picks an ephemeral port")
    p.add_argument("--heartbeat-s", type=float, default=None,
                   help="stall threshold for the process-backend heartbeat "
                        "watchdog (default: on with --telemetry; 0 disables)")
    p.add_argument("--max-restarts", type=int, default=0,
                   help="process backend: resume up to this many times after "
                        "a worker failure from the shared-memory checkpoints "
                        "instead of aborting (0 = fail fast)")
    p.add_argument("--restart-backoff-s", type=float, default=0.5,
                   help="initial backoff before a recovery restart "
                        "(doubles per restart, capped at 30s)")
    _add_device_args(p)
    p.set_defaults(func=cmd_align)

    p = sub.add_parser("generate", help="write a synthetic homolog pair as FASTA")
    p.add_argument("pair", choices=[c.name for c in workloads.PAPER_PAIRS])
    p.add_argument("out_a")
    p.add_argument("out_b")
    p.add_argument("--scale", type=float, default=1e-3,
                   help="fraction of the real chromosome length (default 1e-3)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("time", help="timing-mode run at arbitrary scale")
    p.add_argument("rows", type=int)
    p.add_argument("cols", type=int)
    _add_sim_args(p)
    p.set_defaults(func=cmd_time)

    p = sub.add_parser("tune", help="autotune block height and buffer capacity")
    p.add_argument("rows", type=int)
    p.add_argument("cols", type=int)
    p.add_argument("--verify", action="store_true",
                   help="also run the event simulator on the chosen config")
    p.add_argument("--measured", action="store_true",
                   help="score candidates with full event-simulator runs "
                        "instead of the analytic pipeline model (slower, "
                        "never worse on the simulated workload)")
    _add_sim_args(p)
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("campaign", help="run the 4-pair paper campaign, both strategies")
    _add_sim_args(p)
    p.set_defaults(func=cmd_campaign)

    p = sub.add_parser("stats", help="Karlin-Altschul significance thresholds")
    p.add_argument("rows", type=int, nargs="?", default=35_194_566)
    p.add_argument("cols", type=int, nargs="?", default=35_083_970)
    p.add_argument("--samples", type=int, default=120)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("dotplot", help="coarse text dotplot of two FASTA files")
    p.add_argument("seq_a")
    p.add_argument("seq_b")
    p.add_argument("--tiles", type=int, default=24)
    p.add_argument("--threshold", type=float, default=0.15)
    p.set_defaults(func=cmd_dotplot)

    p = sub.add_parser(
        "top",
        help="live per-worker progress table from a --telemetry directory")
    p.add_argument("telemetry_dir",
                   help="directory holding timeline.jsonl / events.jsonl "
                        "(the --telemetry DIR of a running mgsw align)")
    p.add_argument("--once", action="store_true",
                   help="render one snapshot and exit (default: follow "
                        "until the journal records run_end)")
    p.add_argument("--interval", type=float, default=1.0,
                   help="refresh period in seconds while following")
    p.set_defaults(func=cmd_top)

    p = sub.add_parser("devices", help="list device presets and environments")
    p.set_defaults(func=cmd_devices)

    p = sub.add_parser(
        "serve",
        help="run the long-lived alignment service (INTERNALS.md section 14)")
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address for the job listener")
    p.add_argument("--port", type=int, default=7741,
                   help="job listener TCP port (0 picks an ephemeral port)")
    p.add_argument("--status-port", type=int, default=0,
                   help="HTTP status/metrics port (0 = ephemeral; "
                        "-1 disables the endpoint)")
    p.add_argument("--pools", type=int, default=1,
                   help="concurrent worker pools (jobs running in parallel)")
    _add_process_args(p)
    p.add_argument("--max-block-rows", type=int, default=2048,
                   help="largest per-job block height the pools accept")
    p.add_argument("--queue-depth", type=int, default=64,
                   help="admission cap: most jobs queued at once (excess "
                        "submissions are refused with 429 semantics)")
    p.add_argument("--tenant-cap", type=int, default=16,
                   help="most queued+running jobs per tenant")
    p.add_argument("--short-cells", type=int, default=4_000_000,
                   help="effective-cell threshold below which a job rides "
                        "the short (priority) lane")
    p.add_argument("--short-weight", type=float, default=4.0,
                   help="short-lane picks per long-lane pick when both "
                        "lanes have work")
    p.add_argument("--cache-entries", type=int, default=1024,
                   help="result cache capacity (0 disables caching)")
    p.add_argument("--job-timeout-s", type=float, default=300.0,
                   help="per-job wall-clock limit on the pools")
    p.add_argument("--max-restarts", type=int, default=0,
                   help="per-job checkpoint-recovery budget")
    p.add_argument("--telemetry", metavar="DIR", default=None,
                   help="spill the daemon's events.jsonl into DIR")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "submit", help="submit one alignment job to a running mgsw serve")
    p.add_argument("seq_a")
    p.add_argument("seq_b")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7741,
                   help="daemon job listener port")
    p.add_argument("--tenant", default="default",
                   help="tenant identity for fair-share accounting")
    # block_rows=None: the daemon's JobSpec default (serve runs shorter
    # blocks), filled in by cmd_submit.
    _add_config_args(p, block_rows=None)
    p.add_argument("--lane", choices=("short", "long"), default=None,
                   help="force a scheduling lane (default: classified by "
                        "estimated cost)")
    p.add_argument("--no-cache", action="store_true",
                   help="bypass the digest-keyed result cache")
    p.add_argument("--no-wait", action="store_true",
                   help="return the job id immediately instead of waiting")
    p.add_argument("--timeout-s", type=float, default=600.0,
                   help="how long to wait for the result")
    p.add_argument("--json", action="store_true",
                   help="print the raw job record as JSON")
    p.set_defaults(func=cmd_submit)

    p = sub.add_parser(
        "jobs", help="list a running mgsw serve's jobs and stats")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7741,
                   help="daemon job listener port")
    p.add_argument("--limit", type=int, default=20,
                   help="newest jobs to list")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_jobs)

    p = sub.add_parser("perf", help="telemetry tooling: trace export and run diffs")
    perf_sub = p.add_subparsers(dest="perf_command", required=True)

    q = perf_sub.add_parser(
        "trace-export",
        help="run a comparison and export its timeline as Chrome trace JSON")
    q.add_argument("seq_a")
    q.add_argument("seq_b")
    q.add_argument("--out", default="trace.json",
                   help="output path for the Chrome trace-event JSON")
    q.add_argument("--backend", choices=("sim", "process"), default="process")
    _add_process_args(q, start_method=False)
    _add_config_args(q, "block_rows", "kernel", "pruning")
    _add_device_args(q)
    q.set_defaults(func=cmd_perf_trace_export)

    q = perf_sub.add_parser(
        "diff",
        help="regression diff between two telemetry/benchmark JSON files")
    q.add_argument("old")
    q.add_argument("new")
    q.add_argument("--threshold", type=float, default=0.05,
                   help="relative-change tolerance (default 5%%)")
    q.add_argument("--fail-on-regression", action="store_true",
                   help="exit non-zero when any key regresses (default: "
                        "report only)")
    q.set_defaults(func=cmd_perf_diff)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args._argv = list(argv) if argv is not None else sys.argv[1:]
    try:
        return args.func(args)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
