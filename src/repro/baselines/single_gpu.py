"""Single-GPU baseline (the CUDAlign-2.1-shaped comparator).

One simulated device sweeps the whole matrix in 2-D blocks — no
partitioning, no border channels.  Optionally applies block pruning,
which the multi-GPU engines now also support through a chain-wide
best-score scoreboard (``pruning=True`` on any engine; see
:mod:`repro.comm.scoreboard`) — this baseline remains the reference
for the single-device pruned fraction.

The tiers (``mode``) come from the shared front door
(:mod:`repro.sw.tiers`): this engine supplies only its exact sweep —
:func:`~repro.sw.blocks.compute_blocked` — and charges an inline band
or X-drop sweep's cells to the device.

Like the chain, it runs in compute mode (real cells, exact score) or
timing mode (virtual clock only, any scale).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..device.engine import Engine
from ..device.gpu import SimulatedGPU
from ..device.spec import DeviceSpec
from ..errors import ConfigError
from ..obs.instruments import (EngineInstruments, finalize_run_metrics,
                               record_dtype)
from ..seq.scoring import Scoring
from ..sw.blocks import BlockedOutcome, compute_blocked
from ..sw.compiled import warmup as compiled_warmup
from ..sw.config import AlignConfig, resolve_config
from ..sw.kernel import BestCell
from ..sw.pruning import BlockPruner
from ..sw.tiers import run_tiers


@dataclass
class SingleGpuResult:
    """Outcome of a single-device run (virtual-clock timing)."""

    best: BestCell
    total_time_s: float
    cells: int
    cells_computed: int
    pruned_fraction: float
    #: Per-block pruning decisions (zeros when pruning was off).
    blocks_checked: int = 0
    blocks_pruned: int = 0
    #: Heuristic-tier fields: the requested *mode*, the tier that produced
    #: the reported score, and whether ``mode="auto"`` fell back to exact.
    mode: str = "exact"
    tier: str = "exact"
    escalated: bool = False
    #: Block-sweep kernel the run used ("scalar"/"batched"/"compiled").
    kernel: str = "scalar"
    #: DP dtype policy the run resolved to and its narrow/wide block split.
    dp_dtype: str = "int32"
    blocks_narrow: int = 0
    blocks_wide: int = 0
    dtype_escalations: int = 0

    @property
    def pruned_ratio(self) -> float:
        """Fraction of checked blocks that were pruned."""
        return self.blocks_pruned / self.blocks_checked if self.blocks_checked else 0.0

    @property
    def gcups(self) -> float:
        """Matrix cells over virtual time — comparable to the chain's
        figure (pruning raises it by skipping cells)."""
        if self.total_time_s <= 0:
            return 0.0
        return self.cells / self.total_time_s / 1e9

    @property
    def score(self) -> int:
        return self.best.score if self.best.row >= 0 else 0


def _device_time(spec: DeviceSpec, cols: int,
                 chunks: list[tuple[int, int | None]],
                 instruments: EngineInstruments | None = None) -> float:
    """Virtual time of one device running a kernel call per ``(cells,
    block_rows)`` chunk over a *cols*-wide matrix."""
    engine = Engine()
    gpu = SimulatedGPU(engine, spec)

    def proc():
        for cells, rows in chunks:
            t0 = engine.now
            yield from gpu.compute(max(1, cells), cols, block_rows=rows)
            if instruments is not None:
                instruments.block_computed(engine.now - t0, cells=cells)

    engine.process(proc(), "single-gpu")
    return engine.run()


def run_single_gpu(
    a_codes: np.ndarray,
    b_codes: np.ndarray,
    scoring: Scoring,
    spec: DeviceSpec,
    *,
    config: AlignConfig | None = None,
    block_cols: int | None = None,
    metrics=None,
    **overrides,
) -> SingleGpuResult:
    """Compute-mode single-GPU run: virtual-clock timing.

    The comparison's knobs are *config* (an
    :class:`~repro.sw.config.AlignConfig`, defaults when ``None``) with
    keyword *overrides* of its fields (``block_rows=``, ``pruning=``,
    ``mode=``, ...).  The exact sweep is
    :func:`~repro.sw.blocks.compute_blocked`; an inline band or X-drop
    sweep's cells are charged to the device.  ``block_cols`` defaults
    to ``block_rows``; pruning operates per block, so 2-D blocking (not
    full-width stripes) is what lets similar-sequence runs skip
    off-diagonal work.  Pass a
    :class:`~repro.obs.registry.MetricsRegistry` as *metrics* for the
    standard instrument set (virtual-clock latencies, no border traffic —
    a single device has no neighbours).
    """
    cfg = resolve_config(config, **overrides)
    block_rows, kernel = cfg.block_rows, cfg.kernel
    m, n = int(a_codes.size), int(b_codes.size)
    if block_cols is None:
        block_cols = block_rows
    instruments = (EngineInstruments(metrics, "single-gpu")
                   if metrics is not None else None)

    def sweep() -> SingleGpuResult:
        if kernel == "compiled":
            compiled_warmup()  # idempotent; keeps compile out of callers' timings
        pruner = BlockPruner(match=scoring.match) if cfg.pruning else None
        outcome: BlockedOutcome = compute_blocked(
            a_codes, b_codes, scoring,
            block_rows=block_rows, block_cols=block_cols, pruner=pruner,
            kernel=kernel, dp_dtype=cfg.dp_dtype,
        )
        computed = outcome.cells_total - outcome.cells_pruned
        # One compute charge per block row over the full width; pruned
        # cells are charged nothing (the device skips them).
        chunks, remaining = [], computed
        for r0 in range(0, m, block_rows):
            rows = min(block_rows, m - r0)
            cells = min(remaining, rows * n)
            if cells > 0:
                chunks.append((cells, rows))
                remaining -= cells
        result = SingleGpuResult(
            best=outcome.best,
            total_time_s=_device_time(spec, n, chunks, instruments),
            cells=m * n,
            cells_computed=computed,
            pruned_fraction=outcome.pruned_fraction,
            blocks_checked=pruner.blocks_checked if pruner is not None else 0,
            blocks_pruned=pruner.blocks_pruned if pruner is not None else 0,
            kernel=kernel,
            dp_dtype=outcome.dp_dtype,
            blocks_narrow=outcome.blocks_narrow,
            blocks_wide=outcome.blocks_wide,
            dtype_escalations=outcome.dtype_escalations,
        )
        if instruments is not None:
            # 2-D-block prune and dtype decisions happen inside
            # compute_blocked, so they are bulk-recorded from its outcome.
            if result.blocks_pruned:
                instruments.block_pruned(result.blocks_pruned)
            if outcome.dp_dtype != "int32":
                record_dtype(metrics, device="single-gpu",
                             narrow=outcome.blocks_narrow,
                             wide=outcome.blocks_wide,
                             escalations=outcome.dtype_escalations)
        return result

    def from_inline(out) -> SingleGpuResult:
        # The heuristic runs on the host; the device is charged its actual
        # cells so the virtual clock stays comparable to the exact sweep.
        cells = out.cells_computed
        return SingleGpuResult(
            best=out.best,
            total_time_s=_device_time(spec, n, [(cells, block_rows)],
                                      instruments),
            cells=m * n, cells_computed=cells, pruned_fraction=0.0,
            kernel=kernel)

    result = run_tiers(a_codes, b_codes, scoring, mode=cfg.mode,
                       band_width=cfg.band_width, xdrop_x=cfg.xdrop_x,
                       sweep=sweep,
                       from_inline=from_inline, elapsed="total_time_s",
                       backend="single", metrics=metrics)
    if metrics is not None:
        finalize_run_metrics(
            metrics, backend="single",
            blocks_checked=result.blocks_checked,
            blocks_pruned=result.blocks_pruned,
            wall_time_s=result.total_time_s, gcups=result.gcups)
    return result


def time_single_gpu(
    rows: int,
    cols: int,
    spec: DeviceSpec,
    *,
    block_rows: int = AlignConfig.block_rows,
    pruned_fraction: float = 0.0,
) -> SingleGpuResult:
    """Timing-mode single-GPU run at arbitrary scale.

    *pruned_fraction* models block pruning's effect without computing
    cells (use a measured fraction from a compute-mode run).
    """
    if not 0.0 <= pruned_fraction < 1.0:
        raise ConfigError("pruned_fraction must be in [0, 1)")
    cells = rows * cols
    computed = int(cells * (1.0 - pruned_fraction))
    return SingleGpuResult(
        best=BestCell.none(),
        total_time_s=_device_time(spec, cols, [(computed, None)]),
        cells=cells,
        cells_computed=computed,
        pruned_fraction=pruned_fraction,
    )
