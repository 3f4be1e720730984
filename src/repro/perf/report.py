"""Formatted run reports: one text block summarising a chain result.

Turns a :class:`~repro.multigpu.chain.ChainResult` (simulated) or a
:class:`~repro.multigpu.procchain.ProcessChainResult` (real processes)
into the multi-section report the CLI prints and the examples embed —
configuration, partition, throughput, per-device breakdown, and channel
statistics — so every front-end renders runs identically.  The two
report forms share their table shape: the real backend's breakdown rows
come from wall-clock :class:`~repro.device.trace.Tracer` intervals
instead of virtual-clock counters, and read the same way.
"""

from __future__ import annotations

from .metrics import format_table, humanize_cells, humanize_time


def chain_result_dict(result) -> dict:
    """JSON-serialisable summary of a ChainResult (for tooling/dashboards)."""
    return {
        "cells": result.cells,
        "total_time_s": result.total_time_s,
        "gcups": result.gcups,
        "score": result.score if result.best.row >= 0 else None,
        "end": [result.best.row, result.best.col] if result.best.row >= 0 else None,
        "config": {
            "block_rows": result.config.block_rows,
            "channel_capacity": result.config.channel_capacity,
            "device_slots": result.config.device_slots,
            "async_transfers": result.config.async_transfers,
            "kernel": result.config.kernel,
            "pruning": result.config.pruning,
        },
        "pruning": {
            "blocks_checked": result.blocks_checked,
            "blocks_pruned": result.blocks_pruned,
            "pruned_ratio": result.pruned_ratio,
        } if result.config.pruning else None,
        "heuristic": _heuristic_dict(result),
        "dtype": _dtype_dict(result),
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
                "blocks_checked": gpu.blocks_checked,
                "blocks_pruned": gpu.blocks_pruned,
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
        "score": result.score if result.best.row >= 0 else None,
        "end": [result.best.row, result.best.col] if result.best.row >= 0 else None,
        "config": {
            "workers": result.workers,
            "transport": result.transport,
            "start_method": result.start_method,
            "kernel": result.kernel,
            "pruning": result.pruning,
        },
        "pruning": {
            "blocks_checked": result.blocks_checked,
            "blocks_pruned": result.blocks_pruned,
            "pruned_ratio": result.pruned_ratio,
            "per_worker": [list(wb) for wb in result.worker_blocks],
        } if result.pruning else None,
        "recovery": {
            "restarts": result.restarts,
            "rows_recomputed": result.rows_recomputed,
        } if getattr(result, "restarts", 0) else None,
        "heuristic": _heuristic_dict(result),
        "dtype": _dtype_dict(result),
        # Cross-process clock-skew spans clamped during trace merging —
        # nonzero values flag workers whose perf_counter drifted.
        "clamped_records": result.tracer.clamped_records if result.tracer else 0,
        # One-time JIT compile cost (kernel="compiled"), kept out of the
        # compute totals by construction; 0.0 on the other kernels.
        "warmup_s": _warmup_seconds(result.tracer),
        "workers": [
            {
                "name": f"worker{g}",
                "slab_cols": slab.cols,
                "compute_s": result.tracer.total(f"worker{g}", "compute") if result.tracer else None,
                "transfer_s": (result.tracer.total(f"worker{g}", "d2h")
                               + result.tracer.total(f"worker{g}", "h2d")) if result.tracer else None,
                "wait_s": result.tracer.total(f"worker{g}", "wait") if result.tracer else None,
                "warmup_s": result.tracer.total(f"worker{g}", "warmup") if result.tracer else None,
            }
            for g, slab in enumerate(result.partition)
        ],
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
        "score": result.score if result.best.row >= 0 else None,
        "end": [result.best.row, result.best.col] if result.best.row >= 0 else None,
        "pruning": {
            "blocks_checked": result.blocks_checked,
            "blocks_pruned": result.blocks_pruned,
            "pruned_ratio": result.pruned_ratio,
            "pruned_fraction": result.pruned_fraction,
        } if result.blocks_checked else None,
        "heuristic": _heuristic_dict(result),
        "dtype": _dtype_dict(result),
    }


def result_dict(result) -> dict:
    """Dispatch any engine result to its ``*_result_dict`` by shape.

    The manifest builder (:mod:`repro.obs.manifest`) and the CLI call
    this so they never need to know which backend produced the result:
    a ``config`` attribute marks the simulated chain, ``wall_time_s``
    the real-process engines, and anything else (``cells_computed``)
    the single-device baseline.
    """
    if hasattr(result, "config"):
        return chain_result_dict(result)
    if hasattr(result, "wall_time_s"):
        return process_result_dict(result)
    return single_result_dict(result)


def _warmup_seconds(tracer) -> float:
    """Total JIT warmup time recorded across every actor (0.0 without a
    tracer or on kernels that never warm)."""
    if tracer is None:
        return 0.0
    return sum(iv.duration for iv in tracer.intervals if iv.kind == "warmup")


def _heuristic_dict(result) -> dict | None:
    """The tier section of a result dict (``None`` on exact runs)."""
    if getattr(result, "mode", "exact") == "exact":
        return None
    return {"mode": result.mode, "tier": result.tier,
            "escalated": result.escalated}


def _dtype_dict(result) -> dict | None:
    """The DP-dtype section of a result dict (``None`` on plain int32
    runs, matching the ``pruning``/``heuristic`` sections' convention)."""
    name = getattr(result, "dp_dtype", "int32")
    if name == "int32":
        return None
    return {
        "dp_dtype": name,
        "blocks_narrow": result.blocks_narrow,
        "blocks_wide": result.blocks_wide,
        "dtype_escalations": result.dtype_escalations,
    }


def _dtype_line(result) -> str | None:
    """One report line for a narrow-dtype run: the resolved policy and the
    narrow/wide split (``None`` on plain int32 runs)."""
    name = getattr(result, "dp_dtype", "int32")
    if name == "int32":
        return None
    line = (f"dp dtype: {name} ({result.blocks_narrow} narrow / "
            f"{result.blocks_wide} wide blocks)")
    if result.dtype_escalations:
        line += f" escalations={result.dtype_escalations}"
    return line


def _heuristic_line(result) -> str | None:
    """One report line for a non-exact run: which tier answered."""
    mode = getattr(result, "mode", "exact")
    if mode == "exact":
        return None
    return (f"tier: mode={mode} answered_by={result.tier}"
            f" escalated={'yes' if result.escalated else 'no'}")


def _best_line(result) -> str:
    """The ``best score`` line of every alignment report.  The positive
    form is parsed by the benchmark harness, so its text is fixed."""
    if result.best.row < 0:
        return "best score: 0 (no positive-scoring cell)"
    return (f"best score: {result.score} ending at "
            f"({result.best.row}, {result.best.col})")


def single_report(result, *, title: str = "single-GPU run") -> str:
    """Text report for a single-device run (same shape as the chain
    reports, minus partition/channel sections)."""
    lines: list[str] = [f"== {title} =="]
    lines.append(
        f"matrix: {humanize_cells(result.cells)}   "
        f"virtual time: {humanize_time(result.total_time_s)}   "
        f"throughput: {result.gcups:.2f} GCUPS"
    )
    if result.kernel != "scalar":
        lines.append(f"kernel: {result.kernel}")
    lines.append(_best_line(result))
    if result.blocks_checked:
        lines.append(
            f"pruning: {result.blocks_pruned}/{result.blocks_checked} "
            f"blocks pruned ({result.pruned_ratio:.1%}), "
            f"{result.pruned_fraction:.1%} of cells skipped"
        )
    tier_line = _heuristic_line(result)
    if tier_line:
        lines.append(tier_line)
    dtype_line = _dtype_line(result)
    if dtype_line:
        lines.append(dtype_line)
    return "\n".join(lines)


def process_report(result, *, title: str = "process chain run") -> str:
    """Multi-section text report for a ProcessChainResult — the same
    sections as :func:`chain_report`, on wall-clock time."""
    lines: list[str] = [f"== {title} =="]
    lines.append(
        f"matrix: {humanize_cells(result.cells)}   "
        f"wall time: {humanize_time(result.wall_time_s)}   "
        f"throughput: {result.gcups:.2f} GCUPS"
    )
    lines.append(_best_line(result))
    lines.append(
        f"config: workers={result.workers} transport={result.transport} "
        f"start_method={result.start_method} kernel={result.kernel} "
        f"pruning={'on' if result.pruning else 'off'}"
    )
    if result.pruning:
        lines.append(
            f"pruning: {result.blocks_pruned}/{result.blocks_checked} "
            f"blocks pruned ({result.pruned_ratio:.1%})"
        )
    if getattr(result, "restarts", 0):
        lines.append(
            f"recovery: {result.restarts} restart(s), "
            f"{result.rows_recomputed} rows recomputed from checkpoints"
        )
    warmup_s = _warmup_seconds(result.tracer)
    if warmup_s > 0:
        lines.append(f"jit warmup: {humanize_time(warmup_s)} total "
                     "(excluded from compute spans)")
    tier_line = _heuristic_line(result)
    if tier_line:
        lines.append(tier_line)
    dtype_line = _dtype_line(result)
    if dtype_line:
        lines.append(dtype_line)
    breakdown = result.breakdown()
    if breakdown:
        lines.append("")
        rows = []
        for g, (slab, bd) in enumerate(zip(result.partition, breakdown)):
            rows.append([
                f"worker{g}",
                f"{slab.cols:,}",
                f"{bd['compute']:.1%}",
                f"{bd['transfer']:.1%}",
                f"{bd['wait']:.1%}",
                f"{bd['idle']:.1%}",
            ])
        lines.append(format_table(
            ["worker", "slab cols", "compute", "transfer", "wait", "idle"], rows))
    return "\n".join(lines)


def chain_report(result, *, title: str = "chain run") -> str:
    """Multi-section text report for a ChainResult."""
    lines: list[str] = [f"== {title} =="]
    lines.append(
        f"matrix: {humanize_cells(result.cells)}   "
        f"virtual time: {humanize_time(result.total_time_s)}   "
        f"throughput: {result.gcups:.2f} GCUPS"
    )
    lines.append(_best_line(result))
    cfg = result.config
    lines.append(
        f"config: block_rows={cfg.block_rows} buffer={cfg.channel_capacity} "
        f"device_slots={cfg.device_slots} "
        f"transfers={'async' if cfg.async_transfers else 'sync'} "
        f"kernel={cfg.kernel} pruning={'on' if cfg.pruning else 'off'}"
    )
    if cfg.pruning:
        lines.append(
            f"pruning: {result.blocks_pruned}/{result.blocks_checked} "
            f"blocks pruned ({result.pruned_ratio:.1%})"
        )
    tier_line = _heuristic_line(result)
    if tier_line:
        lines.append(tier_line)
    dtype_line = _dtype_line(result)
    if dtype_line:
        lines.append(dtype_line)
    lines.append("")

    rows = []
    for gpu, bd in zip(result.gpus, result.breakdown()):
        rows.append([
            gpu.name,
            f"{gpu.slab.cols:,}",
            f"{bd['compute']:.1%}",
            f"{bd['transfer']:.1%}",
            f"{bd['wait']:.1%}",
            f"{bd['idle']:.1%}",
        ])
    lines.append(format_table(
        ["device", "slab cols", "compute", "transfer", "wait", "idle"], rows))

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
