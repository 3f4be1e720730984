"""Performance metrics and report formatting.

GCUPS (billions of cell updates per second) is the paper's headline
metric; this module computes it from either the virtual clock (simulated
devices) or wall time (the CPU baseline), and renders the small fixed-
width tables the benchmark harnesses print — the same rows the paper's
tables report.
"""

from __future__ import annotations

from typing import Sequence


def gcups(cells: int, seconds: float) -> float:
    """Billions of DP cells per second.

    This is the single library-wide definition: every result type
    (simulated :class:`~repro.multigpu.chain.ChainResult` and
    :class:`~repro.baselines.single_gpu.SingleGpuResult` GCUPS on the
    virtual clock, real-process
    :class:`~repro.multigpu.front.ProcessChainResult` GCUPS on wall
    time) routes through it, and the one documented behaviour for a
    non-positive *seconds* is to raise ``ValueError`` — a zero or
    negative elapsed time is always a caller bug, never a rate.
    """
    if seconds <= 0:
        raise ValueError("seconds must be positive")
    return cells / seconds / 1e9


def speedup(base_seconds: float, seconds: float) -> float:
    """Speedup of *seconds* relative to *base_seconds*."""
    if seconds <= 0 or base_seconds <= 0:
        raise ValueError("times must be positive")
    return base_seconds / seconds


def efficiency(speedup_value: float, workers: int) -> float:
    """Parallel efficiency: speedup / workers."""
    if workers <= 0:
        raise ValueError("workers must be positive")
    return speedup_value / workers


def format_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Fixed-width text table (no external deps, stable output for tests)."""
    columns = [list(col) for col in zip(headers, *rows)] if rows else [[h] for h in headers]
    widths = [max(len(str(cell)) for cell in col) for col in columns]
    def fmt(row: Sequence[str]) -> str:
        return "  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)).rstrip()
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


def humanize_cells(cells: int) -> str:
    """Render a cell count the way the paper's tables do (e.g. '1.23 Tcells')."""
    if cells < 0:
        raise ValueError("cells must be >= 0")
    for unit, scale in (("Pcells", 1e15), ("Tcells", 1e12), ("Gcells", 1e9), ("Mcells", 1e6)):
        if cells >= scale:
            return f"{cells / scale:.2f} {unit}"
    return f"{cells} cells"


def humanize_time(seconds: float) -> str:
    """Seconds → 'h:mm:ss' (or ms below one second)."""
    if seconds < 0:
        raise ValueError("seconds must be >= 0")
    if seconds < 1:
        return f"{seconds * 1e3:.1f} ms"
    s = int(round(seconds))
    h, rem = divmod(s, 3600)
    m, sec = divmod(rem, 60)
    return f"{h}:{m:02d}:{sec:02d}" if h else f"{m}:{sec:02d}"
