"""The multi-GPU chain engine — the paper's primary contribution.

One huge Smith-Waterman matrix is computed cooperatively by a **logical
chain of GPUs**: device *g* owns a vertical slab of columns and sweeps it
in block rows of height ``block_rows``; after each block row it ships the
slab's rightmost border column (H and E values, plus the diagonal corner)
to device *g+1* through a :class:`~repro.comm.channel.BorderChannel`
(D2H → host circular buffer → H2D).  Device *g+1* can start its block row
*r* as soon as it has (a) its own block row *r-1* and (b) the border for
*r* from the left — so the devices form a software pipeline of depth
``len(devices)`` over the block rows, and with slabs wide enough the
border transfers hide entirely behind compute (the paper's circular-buffer
overlap claim).

Two execution modes share this engine:

* **compute mode** (``MatrixWorkload``): every block is *really* computed
  by the vectorised kernel; borders carry real arrays; the result's score
  and end point are bit-exact (tested against the single-kernel sweep).
* **timing mode** (``PhantomWorkload``): blocks carry only their sizes;
  the virtual clock advances identically, so paper-scale (megabase)
  configurations can be swept in milliseconds of wall time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from ..comm.channel import BorderChannel, BorderSegment
from ..comm.ringbuf import RingStats
from ..comm.scoreboard import LocalScoreboard
from ..device.engine import Engine
from ..device.gpu import GpuCounters, SimulatedGPU
from ..device.spec import DeviceSpec
from ..errors import ConfigError
from ..obs.instruments import EngineInstruments, finalize_run_metrics
from ..seq.scoring import Scoring
from ..sw.batched import KernelWorkspace, cached_profile
from ..sw.blocks import SlabSweep
from ..sw.compiled import warmup as compiled_warmup
from ..sw.config import AlignConfig
from ..sw.constants import DTYPE, NEG_INF, DpPolicy, resolve_dp_dtype
from ..sw.kernel import BestCell
from ..sw.tiers import run_tiers
from .partition import Slab, proportional_partition

#: Bytes per border row: H (int32) + E (int32).
BORDER_BYTES_PER_ROW = 8
#: Fixed bytes per segment: the diagonal corner value.
BORDER_BYTES_FIXED = 4


@dataclass(frozen=True)
class ChainConfig(AlignConfig):
    """The simulated chain's knobs: the seven comparison knobs of
    :class:`~repro.sw.config.AlignConfig` plus three simulator-only ones.

    The comparison knobs run in compute mode only (phantom runs ignore
    them, except ``block_rows``).  ``mode`` is answered by the shared
    front door :func:`~repro.sw.tiers.run_tiers`: ``xdrop``'s sequential
    frontier runs inline and is charged to the first device, and a
    ``"compiled"`` kernel is JIT-warmed before the event loop starts, so
    compile time never lands inside a virtual compute span.

    Attributes
    ----------
    channel_capacity:
        Slots in each host circular buffer (the paper's mechanism; 1
        degenerates to rendezvous — ablation X1).
    device_slots:
        Device-side staging slots on each end of a channel (double
        buffering by default).
    async_transfers:
        True (default) spawns sender/receiver processes so transfers
        overlap compute; False runs them inline (ablation: no hiding).
    """

    channel_capacity: int = 4
    device_slots: int = 2
    async_transfers: bool = True

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.channel_capacity <= 0:
            raise ConfigError("channel_capacity must be positive")
        if self.device_slots <= 0:
            raise ConfigError("device_slots must be positive")


class MatrixWorkload:
    """Compute-mode workload: real sequences, real DP cells."""

    def __init__(self, a_codes: np.ndarray, b_codes: np.ndarray, scoring: Scoring) -> None:
        if a_codes.size == 0 or b_codes.size == 0:
            raise ConfigError("sequences must be non-empty")
        self.a = a_codes
        self.b = b_codes
        self.scoring = scoring
        self.rows = int(a_codes.size)
        self.cols = int(b_codes.size)
        self.phantom = False


class PhantomWorkload:
    """Timing-mode workload: only the matrix dimensions."""

    def __init__(self, rows: int, cols: int) -> None:
        if rows <= 0 or cols <= 0:
            raise ConfigError("matrix dimensions must be positive")
        self.rows = rows
        self.cols = cols
        self.a = self.b = None  # no sequences: timing-mode exact runs only
        self.scoring: Scoring | None = None
        self.phantom = True


@dataclass
class GpuReport:
    """Per-device outcome."""

    name: str
    slab: Slab
    counters: GpuCounters
    finished_at: float
    #: Distributed-pruning decisions this device made / took (compute
    #: mode with ``ChainConfig.pruning`` only; zero otherwise).
    blocks_checked: int = 0
    blocks_pruned: int = 0
    #: Slab block rows skipped because they miss the static band
    #: (banded sweeps only).
    blocks_skipped_band: int = 0
    #: Narrow/wide split of this device's swept blocks (zeros unless a
    #: narrow DP dtype policy was active).
    blocks_narrow: int = 0
    blocks_wide: int = 0
    dtype_escalations: int = 0


@dataclass
class ChainResult:
    """Outcome of one chain run.

    ``best`` is meaningful only in compute mode (phantom runs report the
    empty cell).  ``gcups`` is measured on the virtual clock — the figure
    the paper reports.
    """

    best: BestCell
    total_time_s: float
    cells: int
    gpus: list[GpuReport]
    channels: list[RingStats]
    config: ChainConfig
    partition: list[Slab]
    #: set when the run stopped early (``stop_row``): resume with
    #: ``chain.run(workload, resume=result.checkpoint)``.
    checkpoint: "object | None" = None
    #: Heuristic-tier fields: the requested mode, the tier that produced
    #: the reported score, and whether ``mode="auto"`` fell back to exact.
    mode: str = "exact"
    tier: str = "exact"
    escalated: bool = False
    #: DP dtype policy the run resolved to (compute mode; phantom runs
    #: and the xdrop tier report the int32 default).
    dp_dtype: str = "int32"

    @property
    def gcups(self) -> float:
        if self.total_time_s <= 0:
            return 0.0
        return self.cells / self.total_time_s / 1e9

    @property
    def score(self) -> int:
        return self.best.score if self.best.row >= 0 else 0

    @property
    def blocks_checked(self) -> int:
        """Distributed-pruning decisions across the chain (0 if disabled)."""
        return sum(g.blocks_checked for g in self.gpus)

    @property
    def blocks_pruned(self) -> int:
        return sum(g.blocks_pruned for g in self.gpus)

    @property
    def blocks_skipped_band(self) -> int:
        """Slab block rows skipped by the static band (0 unless banded)."""
        return sum(g.blocks_skipped_band for g in self.gpus)

    @property
    def blocks_narrow(self) -> int:
        """Blocks the narrow DP kernel answered (0 on int32 runs)."""
        return sum(g.blocks_narrow for g in self.gpus)

    @property
    def blocks_wide(self) -> int:
        """Blocks computed wide despite a narrow policy."""
        return sum(g.blocks_wide for g in self.gpus)

    @property
    def dtype_escalations(self) -> int:
        """Narrow sweeps recomputed in int32 after overflow detection."""
        return sum(g.dtype_escalations for g in self.gpus)

    @property
    def pruned_ratio(self) -> float:
        checked = self.blocks_checked
        return self.blocks_pruned / checked if checked else 0.0

    def breakdown(self) -> list[dict[str, float]]:
        """Per-GPU compute/transfer/wait/idle fractions of the makespan."""
        return [g.counters.breakdown(self.total_time_s) for g in self.gpus]


class MultiGpuChain:
    """Configured chain of simulated devices over one workload."""

    def __init__(
        self,
        devices: Sequence[DeviceSpec],
        *,
        config: ChainConfig | None = None,
        partition: list[Slab] | None = None,
    ) -> None:
        if not devices:
            raise ConfigError("need at least one device")
        self.specs = list(devices)
        self.config = (config or ChainConfig()).concrete()
        self._partition = partition

    def _make_channel(self, engine: Engine, gpus: list[SimulatedGPU], g: int) -> BorderChannel:
        """Channel between devices *g* and *g+1*; cluster variants override
        this to insert network hops at host boundaries."""
        return BorderChannel(
            engine, gpus[g], gpus[g + 1],
            capacity=self.config.channel_capacity,
            device_slots=self.config.device_slots,
        )

    def partition_for(self, n_cols: int) -> list[Slab]:
        """The slab layout used for *n_cols* columns (proportional by
        default, or the explicit partition passed at construction)."""
        if self._partition is not None:
            if self._partition[-1].col1 != n_cols:
                raise ConfigError("explicit partition does not match matrix width")
            return self._partition
        return proportional_partition(n_cols, [s.gcups for s in self.specs])

    # -- the run -------------------------------------------------------------
    def run(
        self,
        workload: MatrixWorkload | PhantomWorkload,
        *,
        tracer=None,
        resume=None,
        stop_row: int | None = None,
        metrics=None,
        events=None,
    ) -> ChainResult:
        """Execute the workload; pass a :class:`repro.device.trace.Tracer`
        to record per-device activity intervals.

        ``resume`` accepts a :class:`~repro.multigpu.checkpoint.ChainCheckpoint`
        to continue a previous run; ``stop_row`` ends this run exactly at
        that matrix row (the block row containing it is truncated, and the
        result carries a ``checkpoint`` to resume from).  Virtual time
        accumulates across segments.

        ``config.mode`` is answered by the shared tier front door
        (:func:`~repro.sw.tiers.run_tiers`) over this chain's
        exact/banded sweep; heuristic modes need a compute-mode workload
        and refuse ``resume``/``stop_row``.

        ``metrics`` accepts a :class:`~repro.obs.registry.MetricsRegistry`
        to collect the standard per-device instrument set (block and
        border counters, sweep latency histograms — on the **virtual**
        clock, matching the rest of this engine's timing).  ``events``
        accepts an :class:`~repro.obs.events.EventJournal`; the simulated
        engine journals ``run_start``/``run_end`` plus the front door's
        ``heuristic_escalation`` and ``dtype_escalation`` records — there
        are no processes to spawn or lose, so the per-worker lifecycle
        events stay with the real-process engine.
        """
        cfg = self.config
        m, n = workload.rows, workload.cols
        if events is not None:
            events.emit("run_start", backend="sim", mode=cfg.mode,
                        rows=m, cols=n, devices=len(self.specs),
                        kernel=cfg.kernel, pruning=cfg.pruning)
        if cfg.mode != "exact":
            if workload.phantom:
                raise ConfigError(
                    "heuristic modes require a compute-mode workload")
            if resume is not None or stop_row is not None:
                raise ConfigError(
                    "heuristic modes do not support resume/stop_row")
        result = run_tiers(
            workload.a, workload.b, workload.scoring, mode=cfg.mode,
            band_width=cfg.band_width, xdrop_x=cfg.xdrop_x,
            sweep=partial(self._sweep, workload, tracer=tracer, resume=resume,
                          stop_row=stop_row, metrics=metrics),
            from_xdrop=partial(self._from_xdrop, workload, tracer=tracer,
                               metrics=metrics),
            elapsed="total_time_s", backend="sim", metrics=metrics,
            events=events)
        if metrics is not None:
            finalize_run_metrics(
                metrics, backend="sim",
                blocks_checked=result.blocks_checked,
                blocks_pruned=result.blocks_pruned,
                wall_time_s=result.total_time_s, gcups=result.gcups)
        if events is not None:
            events.emit("run_end", status="ok", score=int(result.best.score),
                        virtual_time_s=round(result.total_time_s, 6),
                        tier=result.tier, escalated=result.escalated)
        return result

    def _sweep(self, workload: MatrixWorkload | PhantomWorkload,
               band_half_width: int | None, *, tracer, resume, stop_row,
               metrics) -> ChainResult:
        """One exact sweep of the chain, or a banded one: slab block rows
        that miss the static band ``|j - i| <= band_half_width`` are
        skipped outright, compounding with pruning."""
        cfg = self.config
        m, n = workload.rows, workload.cols
        slabs = self.partition_for(n)
        if len(slabs) != len(self.specs):
            raise ConfigError("partition size != device count")

        # DP dtype policy (compute mode): resolved once for the run, with
        # the *widest* slab as the effective sweep width — every device
        # then shares one policy, so borders and escalation semantics are
        # uniform across the chain.
        dp_policy: DpPolicy | None = None
        dp_name = "int32"
        if not workload.phantom:
            eff_cols = max(s.cols for s in slabs)
            policy = resolve_dp_dtype(cfg.dp_dtype, workload.scoring,
                                      block_cols=eff_cols, m=m, n=n,
                                      local=True)
            dp_name = policy.name
            dp_policy = policy if policy.narrow else None

        start_row = 0
        elapsed_before = 0.0
        if resume is not None:
            if resume.row >= m:
                raise ConfigError("checkpoint is at or beyond the matrix end")
            if resume.phantom != workload.phantom:
                raise ConfigError("checkpoint mode does not match workload mode")
            if not resume.phantom and resume.h_row.shape != (n,):
                raise ConfigError("checkpoint width does not match the matrix")
            start_row = resume.row
            elapsed_before = resume.elapsed_s
        end_row = m if stop_row is None else min(m, max(start_row + 1, stop_row))

        engine = Engine()
        gpus = [SimulatedGPU(engine, spec, i, tracer) for i, spec in enumerate(self.specs)]
        channels = [self._make_channel(engine, gpus, g) for g in range(len(gpus) - 1)]
        instruments = ([EngineInstruments(metrics, gpu.name) for gpu in gpus]
                       if metrics is not None else None)

        row_edges = list(range(start_row, end_row, cfg.block_rows)) + [end_row]
        n_block_rows = len(row_edges) - 1
        finished_at = [0.0] * len(gpus)

        # Compute mode: one SlabSweep per device.  Pruning publishes into
        # one in-process scoreboard (the lock-free SharedScoreboard plays
        # this role for the real-process engines), seeded from the resume
        # best so a continued run prunes against everything already found.
        sweepers: list[SlabSweep | None] = [None] * len(gpus)
        if not workload.phantom:
            # LRU-cached: repeated comparisons against the same horizontal
            # sequence (batch campaigns, resumed runs) skip the rebuild.
            profile = cached_profile(workload.b, workload.scoring)
            # Shared across the simulated devices: their sweeps never
            # interleave (each work thunk runs atomically inside the
            # single-threaded event loop).
            workspace = KernelWorkspace() if cfg.kernel == "batched" else None
            if cfg.kernel == "compiled":
                # JIT-warm before the event loop: the simulated clock is
                # virtual, but the host wall time callers measure around
                # run() should not fold numba compiles into block 0.
                compiled_warmup()
            scoreboard = LocalScoreboard() if cfg.pruning else None
            resumed = resume is not None and resume.best.row >= 0
            if resumed and scoreboard is not None:
                scoreboard.publish(0, resume.best.score)
            for g, slab in enumerate(slabs):
                cols = slice(slab.col0, slab.col1)
                sweepers[g] = SlabSweep(
                    cfg, workload.scoring, profile[:, cols], slab.col0,
                    slab.col1, m=m, n_cols=n, band_half_width=band_half_width,
                    dp=dp_policy, scoreboard=scoreboard, slot=g,
                    workspace=workspace,
                    instruments=instruments[g] if instruments else None,
                    h_top=resume.h_row[cols] if resume is not None else None,
                    f_top=resume.f_row[cols] if resume is not None else None,
                    best=resume.best if resumed and g == 0 else BestCell.none())

        def gpu_proc(g: int):
            gpu = gpus[g]
            w = slabs[g].cols
            sweeper = sweepers[g]
            in_ch = channels[g - 1] if g > 0 else None
            out_ch = channels[g] if g < len(gpus) - 1 else None
            # H(r0-1, col1-1): the right neighbour's corner.
            prev_right_last = (int(sweeper.h_top[-1])
                               if sweeper is not None and resume is not None
                               else 0)

            for r in range(n_block_rows):
                r0, r1 = row_edges[r], row_edges[r + 1]
                rows = r1 - r0

                payload_in = None
                if in_ch is not None:
                    t0 = engine.now
                    payload_in = yield in_ch.consume()
                    gpu.record_wait(t0)
                    if instruments is not None:
                        instruments[g].border_received(
                            rows * BORDER_BYTES_PER_ROW + BORDER_BYTES_FIXED)
                if out_ch is not None:
                    t0 = engine.now
                    yield out_ch.reserve_out_slot()
                    gpu.record_wait(t0)

                work = skip = None
                if sweeper is not None:
                    if in_ch is not None:
                        h_left, e_left, corner = payload_in.payload
                    else:
                        h_left = np.zeros(rows, dtype=DTYPE)
                        e_left = np.full(rows, NEG_INF, dtype=DTYPE)
                        corner = 0
                    skip = sweeper.skip(r0, r1, h_left, corner)
                    if skip is not None:
                        # Skip the device sweep entirely: emit restart
                        # borders (legal lower bounds) and charge no
                        # virtual compute time — the pruning/band payoff.
                        result = sweeper.restart(r0, r1)
                        if gpu.tracer is not None:
                            gpu.tracer.record(gpu.name, skip, engine.now,
                                              engine.now)
                    else:
                        work = partial(sweeper.sweep, workload.a[r0:r1],
                                       h_left, e_left, corner)

                if skip is None:
                    t_c0 = engine.now
                    result = yield from gpu.compute(rows * w, w, work, block_rows=rows)
                    if instruments is not None:
                        instruments[g].block_computed(engine.now - t_c0,
                                                      cells=rows * w)
                if sweeper is not None:
                    sweeper.advance(result, r0)

                if out_ch is not None:
                    nbytes = rows * BORDER_BYTES_PER_ROW + BORDER_BYTES_FIXED
                    if instruments is not None:
                        instruments[g].border_sent(nbytes)
                    if workload.phantom:
                        payload = None
                    else:
                        payload = (result.h_right, result.e_right, prev_right_last)
                        prev_right_last = int(result.h_right[-1])
                    segment = BorderSegment(index=r, nbytes=nbytes, payload=payload)
                    if cfg.async_transfers:
                        engine.process(out_ch.sender(segment), f"send{g}:{r}")
                    else:
                        yield from out_ch.send_sync(segment)
            finished_at[g] = engine.now

        for g in range(len(gpus)):
            engine.process(gpu_proc(g), f"gpu{g}")
        for ch in channels:
            engine.process(ch.receiver_pump(n_block_rows), f"pump:{ch.label}")
            for i, aux in enumerate(ch.aux_processes(n_block_rows)):
                engine.process(aux, f"aux{i}:{ch.label}")

        total = elapsed_before + engine.run()

        best = BestCell.none()
        for sweeper in sweepers:
            if sweeper is not None and sweeper.best.better_than(best):
                best = sweeper.best
        reports = [
            GpuReport(name=gpus[g].name, slab=slabs[g], counters=gpus[g].counters,
                      finished_at=finished_at[g],
                      **(sweepers[g].counters() if sweepers[g] else {}))
            for g in range(len(gpus))
        ]
        checkpoint = None
        if end_row < m:
            from .checkpoint import ChainCheckpoint

            if workload.phantom:
                h_row = f_row = None
            else:
                h_row = np.concatenate([sw.h_top for sw in sweepers])
                f_row = np.concatenate([sw.f_top for sw in sweepers])
            checkpoint = ChainCheckpoint(
                row=end_row, h_row=h_row, f_row=f_row, best=best, elapsed_s=total
            )
        return ChainResult(
            best=best,
            total_time_s=total,
            # Cumulative across resumed segments: rows [0, end_row) over the
            # accumulated virtual time, so ``gcups`` stays meaningful.
            cells=end_row * n,
            gpus=reports,
            channels=[ch.host_ring.stats for ch in channels],
            config=cfg,
            partition=slabs,
            checkpoint=checkpoint,
            dp_dtype=dp_name,
        )

    def _from_xdrop(self, workload: MatrixWorkload, xo, *, tracer,
                    metrics) -> ChainResult:
        """An X-drop outcome as a chain result: the extension frontier is
        a sequential anti-diagonal sweep with no block decomposition, so
        its cells are charged to the first device (the rest of the chain
        stays idle — a documented scheduling decision, not a limitation
        of the virtual clock)."""
        cfg = self.config
        n = workload.cols
        slabs = self.partition_for(n)
        engine = Engine()
        gpus = [SimulatedGPU(engine, spec, i, tracer)
                for i, spec in enumerate(self.specs)]
        instruments = (EngineInstruments(metrics, gpus[0].name)
                       if metrics is not None else None)

        def proc():
            t0 = engine.now
            yield from gpus[0].compute(max(1, xo.cells_computed), n,
                                       block_rows=cfg.block_rows)
            if instruments is not None:
                instruments.block_computed(engine.now - t0,
                                           cells=xo.cells_computed)

        engine.process(proc(), "gpu0")
        total = engine.run()
        reports = [
            GpuReport(name=gpus[g].name, slab=slabs[g],
                      counters=gpus[g].counters,
                      finished_at=total if g == 0 else 0.0)
            for g in range(len(gpus))
        ]
        return ChainResult(best=xo.best, total_time_s=total,
                           cells=workload.rows * n, gpus=reports, channels=[],
                           config=cfg, partition=slabs)


def align_multi_gpu(
    a_codes: np.ndarray,
    b_codes: np.ndarray,
    scoring: Scoring,
    devices: Sequence[DeviceSpec],
    *,
    config: ChainConfig | None = None,
    tracer=None,
    metrics=None,
    events=None,
) -> ChainResult:
    """Convenience wrapper: compute-mode chain run over real sequences."""
    chain = MultiGpuChain(devices, config=config)
    return chain.run(MatrixWorkload(a_codes, b_codes, scoring),
                     tracer=tracer, metrics=metrics, events=events)


def time_multi_gpu(
    rows: int,
    cols: int,
    devices: Sequence[DeviceSpec],
    *,
    config: ChainConfig | None = None,
    partition: list[Slab] | None = None,
) -> ChainResult:
    """Convenience wrapper: timing-mode run at arbitrary (paper) scale."""
    chain = MultiGpuChain(devices, config=config, partition=partition)
    return chain.run(PhantomWorkload(rows, cols))
