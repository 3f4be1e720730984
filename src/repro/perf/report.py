"""Formatted run reports: one text block summarising a chain result.

Turns a :class:`~repro.multigpu.chain.ChainResult` (simulated) or a
:class:`~repro.multigpu.front.ProcessChainResult` (real processes)
into the multi-section report the CLI prints and the examples embed —
configuration, partition, throughput, per-device breakdown, and channel
statistics — so every front-end renders runs identically.  The two
report forms share their table shape: the real backend's breakdown rows
come from wall-clock :class:`~repro.device.trace.Tracer` intervals
instead of virtual-clock counters, and read the same way.
"""

from __future__ import annotations

from dataclasses import asdict

from .metrics import format_table, humanize_cells, humanize_time


def chain_result_dict(result) -> dict:
    """JSON-serialisable summary of a ChainResult (for tooling/dashboards)."""
    return {
        "cells": result.cells,
        "total_time_s": result.total_time_s,
        "gcups": result.gcups,
        **_answer_dict(result),
        "config": {
            "block_rows": result.config.block_rows,
            "channel_capacity": result.config.channel_capacity,
            "device_slots": result.config.device_slots,
            "async_transfers": result.config.async_transfers,
            "kernel": result.config.kernel,
            "pruning": result.config.pruning,
        },
        "pruning": _pruning_dict(result, cells_swept=result.cells_swept)
        if result.config.pruning else None,
        **_stamp_dicts(result),
        "devices": [
            {
                "name": gpu.name,
                "slab_cols": gpu.slab.cols,
                "compute_s": gpu.counters.compute_s,
                "transfer_s": gpu.counters.transfer_s,
                "wait_s": gpu.counters.wait_s,
                "cells": gpu.counters.cells,
                "bytes_in": gpu.counters.bytes_in,
                "bytes_out": gpu.counters.bytes_out,
                "blocks_checked": gpu.tally.blocks_checked,
                "blocks_pruned": gpu.tally.blocks_pruned,
            }
            for gpu in result.gpus
        ],
        "channels": [
            {
                "puts": st.puts,
                "gets": st.gets,
                "peak_occupancy": st.peak_occupancy,
                "producer_blocked_s": st.producer_blocked_s,
                "consumer_blocked_s": st.consumer_blocked_s,
            }
            for st in result.channels
        ],
    }


def process_result_dict(result) -> dict:
    """JSON-serialisable summary of a ProcessChainResult (mirrors
    :func:`chain_result_dict` for the real-process backend)."""
    return {
        "cells": result.cells,
        "wall_time_s": result.wall_time_s,
        "gcups": result.gcups,
        **_answer_dict(result),
        "config": {
            "workers": result.workers,
            "transport": result.transport,
            "start_method": result.start_method,
            "kernel": result.kernel,
            "pruning": result.pruning,
            "block_rows": result.config.block_rows,
        },
        "pruning": _pruning_dict(
            result, cells_swept=result.cells_swept,
            per_worker=[list(wb) for wb in result.worker_blocks])
        if result.pruning else None,
        "recovery": {
            "restarts": result.restarts,
            "rows_recomputed": result.rows_recomputed,
        } if result.restarts else None,
        **_stamp_dicts(result),
        # Cross-process clock-skew spans clamped during trace merging —
        # nonzero values flag workers whose perf_counter drifted.
        "clamped_records": result.tracer.clamped_records if result.tracer else 0,
        # One-time engine load (kernel="compiled"), kept out of the
        # compute totals by construction; 0.0 on the other kernels.
        "warmup_s": _warmup_seconds(result.tracer),
        # A tier answered inline (workers == 0) swept its one slab in the
        # parent.
        "workers": [_actor_dict(result.tracer,
                                "parent" if result.workers == 0
                                else f"worker{g}", slab)
                    for g, slab in enumerate(result.partition)],
    }


def _actor_dict(tracer, actor: str, slab) -> dict:
    """One ``workers`` entry of :func:`process_result_dict`: the actor's
    span totals (``None`` without a tracer)."""
    def total(*kinds):
        return sum(tracer.total(actor, k) for k in kinds) if tracer else None

    return {
        "name": actor,
        "slab_cols": slab.cols,
        "compute_s": total("compute"),
        "transfer_s": total("d2h", "h2d"),
        "wait_s": total("wait"),
        "warmup_s": total("warmup"),
    }


def single_result_dict(result) -> dict:
    """JSON-serialisable summary of a
    :class:`~repro.baselines.single_gpu.SingleGpuResult` — including the
    :class:`~repro.sw.pruning.BlockPruner` statistics that used to be
    dropped on the single-engine path."""
    return {
        "kernel": result.kernel,
        "cells": result.cells,
        "cells_computed": result.cells_computed,
        "total_time_s": result.total_time_s,
        "gcups": result.gcups,
        **_answer_dict(result),
        "pruning": _pruning_dict(result,
                                 pruned_fraction=result.pruned_fraction)
        if result.blocks_checked else None,
        **_stamp_dicts(result),
    }


def _answer_dict(result) -> dict:
    """The ``score`` and ``end`` keys of a result dict (``None`` when no
    cell scored)."""
    found = result.best.row >= 0
    return {"score": result.score if found else None,
            "end": [result.best.row, result.best.col] if found else None}


def _pruning_dict(result, **extra) -> dict:
    """The ``pruning`` section of a result dict: the prune decisions,
    then the engine's *extra* keys."""
    return {"blocks_checked": result.blocks_checked,
            "blocks_pruned": result.blocks_pruned,
            "pruned_ratio": result.pruned_ratio, **extra}


def _stamp_dicts(result) -> dict:
    """The ``floor``, ``heuristic`` and ``dtype`` sections of a result
    dict."""
    return {"floor": asdict(result.floor),
            "heuristic": _heuristic_dict(result),
            "dtype": _dtype_dict(result)}


def result_dict(result) -> dict:
    """Dispatch any engine result to its ``*_result_dict`` by shape.

    The manifest builder (:mod:`repro.obs.manifest`) and the CLI call
    this so they never need to know which backend produced the result:
    ``wall_time_s`` marks the real-process engines, a ``config``
    attribute the simulated chain, and anything else
    (``cells_computed``) the single-device baseline.
    """
    if hasattr(result, "wall_time_s"):
        return process_result_dict(result)
    if hasattr(result, "config"):
        return chain_result_dict(result)
    return single_result_dict(result)


def _warmup_seconds(tracer) -> float:
    """Total kernel warmup time recorded across every actor (0.0 without a
    tracer or on kernels that never warm)."""
    if tracer is None:
        return 0.0
    return sum(iv.duration for iv in tracer.intervals if iv.kind == "warmup")


def _heuristic_dict(result) -> dict | None:
    """The tier section of a result dict (``None`` on exact runs)."""
    if result.mode == "exact":
        return None
    return {"mode": result.mode, "tier": result.tier,
            "escalated": result.escalated}


def _dtype_dict(result) -> dict | None:
    """The DP-dtype section of a result dict (``None`` on plain int32
    runs, matching the ``pruning``/``heuristic`` sections' convention)."""
    if result.dp_dtype == "int32":
        return None
    return {
        "dp_dtype": result.dp_dtype,
        "blocks_narrow": result.blocks_narrow,
        "blocks_wide": result.blocks_wide,
        "dtype_escalations": result.dtype_escalations,
    }


def _dtype_line(result) -> str | None:
    """One report line for a narrow-dtype run: the resolved policy and the
    narrow/wide split (``None`` on plain int32 runs)."""
    if result.dp_dtype == "int32":
        return None
    line = (f"dp dtype: {result.dp_dtype} ({result.blocks_narrow} narrow / "
            f"{result.blocks_wide} wide blocks)")
    if result.dtype_escalations:
        line += f" escalations={result.dtype_escalations}"
    return line


def _floor_line(result) -> str | None:
    """One report line for a seeded exact sweep: where its pruning
    scoreboard started (``None`` when it started at nothing)."""
    floor = result.floor
    if floor.source == "none":
        return None
    return (f"floor: {floor.score} from {floor.source} "
            f"({floor.anchors} anchors, {humanize_time(floor.seconds)})")


def _heuristic_line(result) -> str | None:
    """One report line for a non-exact run: which tier answered."""
    if result.mode == "exact":
        return None
    return (f"tier: mode={result.mode} answered_by={result.tier}"
            f" escalated={'yes' if result.escalated else 'no'}")


def _best_line(result) -> str:
    """The ``best score`` line of every alignment report.  The positive
    form is parsed by the benchmark harness, so its text is fixed."""
    if result.best.row < 0:
        return "best score: 0 (no positive-scoring cell)"
    return (f"best score: {result.score} ending at "
            f"({result.best.row}, {result.best.col})")


def _prune_line(result) -> str | None:
    """The cells a pruned exact sweep computed out of m x n, and the
    slab rows it skipped whole; ``None`` when no pruned sweep ran
    (pruning off, or a heuristic tier answered)."""
    if not (result.config.pruning and result.blocks_checked):
        return None
    return (f"pruning: {humanize_cells(result.cells_swept)} of "
            f"{humanize_cells(result.cells)} swept "
            f"({result.cells_swept / result.cells:.1%}), "
            f"{result.blocks_pruned}/{result.blocks_checked} block rows "
            f"pruned whole")


def _report_lines(result, title: str, clock: str, seconds: float,
                  config: str, extra=()) -> list[str]:
    """The lines :func:`chain_report` and :func:`process_report` share:
    the title, the matrix line on the engine's *clock*, the best score,
    the *config* line, then the pruning and floor lines, the engine's
    *extra* lines, and the tier and DP-dtype lines (absent ones
    skipped)."""
    lines = [
        f"== {title} ==",
        f"matrix: {humanize_cells(result.cells)}   "
        f"{clock}: {humanize_time(seconds)}   "
        f"throughput: {result.gcups:.2f} GCUPS",
        _best_line(result),
        f"config: {config}",
        _prune_line(result),
        _floor_line(result),
        *extra,
        _heuristic_line(result),
        _dtype_line(result),
    ]
    return [line for line in lines if line is not None]


def _breakdown_table(label: str, rows) -> str:
    """The per-device (or per-worker) table of a report: one
    ``(name, slab cols, breakdown)`` row each, its compute, transfer,
    wait and idle fractions of the run's time."""
    kinds = ("compute", "transfer", "wait", "idle")
    return format_table(
        [label, "slab cols", *kinds],
        [[name, f"{cols:,}", *(f"{bd[k]:.1%}" for k in kinds)]
         for name, cols, bd in rows])


def process_report(result, *, title: str = "process chain run") -> str:
    """Multi-section text report for a ProcessChainResult — the same
    sections as :func:`chain_report`, on wall-clock time."""
    warmup_s = _warmup_seconds(result.tracer)
    lines = _report_lines(
        result, title, "wall time", result.wall_time_s,
        f"workers={result.workers} transport={result.transport} "
        f"start_method={result.start_method} kernel={result.kernel} "
        f"block_rows={result.config.block_rows} "
        f"pruning={'on' if result.pruning else 'off'}",
        extra=(
            f"recovery: {result.restarts} restart(s), "
            f"{result.rows_recomputed} rows recomputed from checkpoints"
            if result.restarts else None,
            f"kernel warmup: {humanize_time(warmup_s)} total "
            "(excluded from compute spans)" if warmup_s > 0 else None))
    breakdown = result.breakdown()
    if breakdown:
        lines += ["", _breakdown_table("worker", [
            (f"worker{g}", slab.cols, bd)
            for g, (slab, bd) in enumerate(zip(result.partition, breakdown))])]
    return "\n".join(lines)


def chain_report(result, *, title: str = "chain run") -> str:
    """Multi-section text report for a ChainResult."""
    cfg = result.config
    lines = _report_lines(
        result, title, "virtual time", result.total_time_s,
        f"block_rows={cfg.block_rows} buffer={cfg.channel_capacity} "
        f"device_slots={cfg.device_slots} "
        f"transfers={'async' if cfg.async_transfers else 'sync'} "
        f"kernel={cfg.kernel} pruning={'on' if cfg.pruning else 'off'}")
    lines += ["", _breakdown_table("device", [
        (gpu.name, gpu.slab.cols, bd)
        for gpu, bd in zip(result.gpus, result.breakdown())])]

    if result.channels:
        lines.append("")
        rows = []
        for i, st in enumerate(result.channels):
            rows.append([
                f"{i}->{i + 1}",
                str(st.puts),
                f"{st.peak_occupancy}",
                f"{st.producer_blocked_s * 1e3:.2f} ms",
                f"{st.consumer_blocked_s * 1e3:.2f} ms",
            ])
        lines.append(format_table(
            ["channel", "segments", "peak occupancy", "producer blocked",
             "consumer blocked"], rows))
    return "\n".join(lines)


#: Frames sampled into the GCUPS-over-time section (evenly spaced; the
#: full series stays in ``timeline.jsonl``).
TIMELINE_REPORT_ROWS = 12

#: Width of the text GCUPS bar in :func:`timeline_report`.
_BAR_WIDTH = 30


def timeline_report(frames, *, title: str = "GCUPS over time") -> str:
    """Text section for a run's live timeline: evenly spaced frames from
    a :class:`~repro.obs.timeseries.TimeSeriesSampler` ring (or a loaded
    ``timeline.jsonl``), each with a throughput bar scaled to the peak.

    Returns an empty string for an empty timeline so report assemblers
    can append it unconditionally.
    """
    frames = list(frames)
    if not frames:
        return ""
    peak = max(f.gcups for f in frames)
    n = min(TIMELINE_REPORT_ROWS, len(frames))
    # Evenly spaced indices, always ending on the final frame.
    picks = sorted({round(i * (len(frames) - 1) / max(1, n - 1))
                    for i in range(n)})
    rows = []
    for i in picks:
        f = frames[i]
        bar = "#" * (round(_BAR_WIDTH * f.gcups / peak) if peak > 0 else 0)
        done = (f.rows_done / f.rows_target) if f.rows_target else 0.0
        rows.append([
            humanize_time(f.t_s),
            f"{done:.0%}",
            f"{f.gcups:.3f}",
            bar,
        ])
    lines = [f"== {title} ==",
             f"{len(frames)} frames, peak {peak:.3f} GCUPS, "
             f"final attempt {frames[-1].attempt}"
             + (f", {frames[-1].restarts} restart(s)"
                if frames[-1].restarts else "")]
    lines.append(format_table(["t", "rows", "GCUPS", ""], rows))
    return "\n".join(lines)


def top_table(frame, *, events=None, max_events: int = 5) -> str:
    """The ``mgsw top`` screen: one run-level summary line, a per-worker
    rate/phase table off one :class:`~repro.obs.timeseries.TimelineFrame`
    (stalled workers rendered distinctly), and the newest journal events.
    """
    if frame is None:
        return "no timeline frames yet"
    done = (frame.rows_done / frame.rows_target) if frame.rows_target else 0.0
    eta = ("--" if frame.eta_s is None else humanize_time(frame.eta_s))
    lines = [
        f"rows {frame.rows_done:,}/{frame.rows_target:,} ({done:.1%})   "
        f"rate {frame.rows_per_s:,.0f} rows/s   eta {eta}   "
        f"{frame.gcups:.3f} GCUPS   attempt {frame.attempt}"
        + (f"   restarts {frame.restarts}" if frame.restarts else "")
    ]
    rows = []
    for w in frame.workers:
        rows.append([
            f"worker{w.worker}",
            # A stalled worker is the one thing top must make unmissable.
            f"!! STALLED ({w.silent_s:.1f}s) !!" if w.stalled else w.phase,
            f"{w.rows_done:,}",
            f"{w.rows_per_s:,.1f}",
            f"{w.silent_s:.1f}s",
        ])
    lines.append(format_table(
        ["worker", "phase", "rows done", "rows/s", "silent"], rows))
    if events:
        lines.append("recent events:")
        for rec in list(events)[-max_events:]:
            extra = rec.get("detail") or rec.get("tier") or ""
            who = f" worker{rec['worker']}" if "worker" in rec else ""
            lines.append(f"  {rec['event']}{who} {extra}".rstrip())
    return "\n".join(lines)
