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

from dataclasses import asdict, dataclass, replace
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
from ..perf.metrics import gcups as _metrics_gcups
from ..seq.scoring import Scoring, check_pair
from ..sw.blocks import RowState, SlabSweep
from ..sw.compiled import warmup as compiled_warmup
from ..sw.config import AlignConfig
from ..sw.constants import DTYPE, NEG_INF, DpPolicy, resolve_dp_dtype
from ..sw.kernel import BestCell, cached_profile
from ..sw.tiers import RunResult, SweepTally, run_tiers
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
    front door :func:`~repro.sw.tiers.run_tiers`: the banded and X-drop
    tiers run inline and are charged to the first device, and a
    ``"compiled"`` kernel's C engine is loaded before the event loop
    starts, so a build never lands inside a virtual compute span.

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
        check_pair(a_codes, b_codes, scoring)
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


@dataclass(frozen=True)
class GpuReport:
    """Per-device outcome: the device's slab, virtual-clock counters and
    finish time, and the :class:`~repro.sw.tiers.SweepTally` of its
    slab's sweep (compute mode; zeros otherwise)."""

    name: str
    slab: Slab
    counters: GpuCounters
    finished_at: float
    tally: SweepTally = SweepTally()


@dataclass(frozen=True, kw_only=True)
class ChainResult(RunResult):
    """Outcome of one chain run: the shared
    :class:`~repro.sw.tiers.RunResult` fields, its counters summed over
    the devices' reports, plus the virtual time, per-device reports,
    channel statistics, config and partition.

    ``best`` is meaningful only in compute mode (phantom runs report the
    empty cell).  ``gcups`` is measured on the virtual clock — the figure
    the paper reports.
    """

    total_time_s: float
    gpus: list[GpuReport]
    channels: list[RingStats]
    config: ChainConfig
    partition: list[Slab]
    #: set when the run stopped early (``stop_row``): resume with
    #: ``chain.run(workload, resume=result.checkpoint)``.
    checkpoint: RowState | None = None

    @property
    def gcups(self) -> float:
        return _metrics_gcups(self.cells, self.total_time_s)

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

        ``resume`` accepts a :class:`~repro.sw.blocks.RowState` (exported
        as :class:`~repro.multigpu.checkpoint.ChainCheckpoint`) to continue
        a previous run; ``stop_row`` ends this run exactly at that matrix
        row (the block row containing it is truncated, and the result
        carries a ``checkpoint`` to resume from).  Virtual time and the
        prune counters accumulate across segments.

        ``config.mode`` is answered by the shared tier front door
        (:func:`~repro.sw.tiers.run_tiers`) over this chain's exact
        sweep; heuristic modes need a compute-mode workload and refuse
        ``resume``/``stop_row``.

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
            workload.a, workload.b, workload.scoring, cfg,
            sweep=partial(self._sweep, workload, tracer=tracer, resume=resume,
                          stop_row=stop_row, metrics=metrics),
            from_inline=partial(self._from_inline, workload, tracer=tracer,
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
               floor: int, *, tracer, resume, stop_row,
               metrics) -> ChainResult:
        """One exact sweep of the chain, pruning from *floor*."""
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

        # Compute mode: one SlabSweep per device, resumed from its slice
        # of the checkpoint.  Pruning publishes into one in-process
        # scoreboard (the lock-free SharedScoreboard plays this role for
        # the real-process engines), started at the floor or the resumed
        # best, whichever is higher, so a continued run prunes against
        # everything already found.
        sweepers: list[SlabSweep | None] = [None] * len(gpus)
        if not workload.phantom:
            # LRU-cached: repeated comparisons against the same horizontal
            # sequence (batch campaigns, resumed runs) skip the rebuild.
            profile = cached_profile(workload.b, workload.scoring)
            if cfg.kernel == "compiled":
                # Load the C engine before the event loop: the simulated
                # clock is virtual, but the host wall time callers measure
                # around run() should not fold a build into block 0.
                compiled_warmup()
            if resume is not None:
                floor = max(floor, resume.best.score)
            scoreboard = LocalScoreboard(floor) if cfg.pruning else None
            for g, slab in enumerate(slabs):
                sweepers[g] = SlabSweep(
                    cfg, workload.scoring, profile[:, slab.col0:slab.col1],
                    slab.col0, slab.col1, m=m, n_cols=n, dp=dp_policy,
                    scoreboard=scoreboard, slot=g,
                    instruments=instruments[g] if instruments else None,
                    resume=(resume.slice(slab.col0, slab.col1)
                            if resume is not None else None))

        def gpu_proc(g: int):
            gpu = gpus[g]
            w = slabs[g].cols
            sweeper = sweepers[g]
            in_ch = channels[g - 1] if g > 0 else None
            out_ch = channels[g] if g < len(gpus) - 1 else None

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

                result, swept = None, (rows * w, 0.0)  # phantom: every cell
                if sweeper is not None:
                    if in_ch is not None:
                        h_left, e_left, corner = payload_in.payload
                    else:
                        h_left = np.zeros(rows, dtype=DTYPE)
                        e_left = np.full(rows, NEG_INF, dtype=DTYPE)
                        corner = 0
                    result, swept = sweeper.step(r0, r1, workload.a[r0:r1],
                                                 h_left, e_left, corner)

                # A swept row's cells run at the slab's rate, so a run that
                # prunes nothing takes the phantom run's time; pruned rows
                # and dead cells charge none, the pruning payoff.
                if swept is not None:
                    t_c0 = engine.now
                    if swept[0]:
                        yield from gpu.compute(swept[0], w, block_rows=rows)
                    if instruments is not None:
                        instruments[g].block_computed(engine.now - t_c0,
                                                      cells=swept[0])
                elif gpu.tracer is not None:
                    gpu.tracer.record(gpu.name, "pruned", engine.now,
                                      engine.now)
                # Phantom runs carry no payload: the right border is None.
                border = (sweeper.advance(result, r0) if sweeper is not None
                          else None)

                if out_ch is not None:
                    nbytes = rows * BORDER_BYTES_PER_ROW + BORDER_BYTES_FIXED
                    if instruments is not None:
                        instruments[g].border_sent(nbytes)
                    segment = BorderSegment(index=r, nbytes=nbytes, payload=border)
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

        best = BestCell.best_of(sw.best for sw in sweepers if sw is not None)
        reports = [
            GpuReport(name=gpus[g].name, slab=slabs[g], counters=gpus[g].counters,
                      finished_at=finished_at[g],
                      tally=sweepers[g].tally() if sweepers[g] else SweepTally())
            for g in range(len(gpus))
        ]
        checkpoint = None
        if end_row < m:
            checkpoint = replace(
                RowState(end_row, None, None, best) if workload.phantom
                else RowState.join([sw.state() for sw in sweepers]),
                elapsed_s=total)
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
            **asdict(sum((r.tally for r in reports), SweepTally())),
        )

    def _from_inline(self, workload: MatrixWorkload, out, *, tracer,
                     metrics) -> ChainResult:
        """An inline X-drop or band outcome as a chain result: neither
        sweep follows the column slabs, so its cells are charged to the
        first device (the rest of the chain stays idle — a documented
        scheduling decision, not a limitation of the virtual clock)."""
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
            yield from gpus[0].compute(max(1, out.cells_computed), n,
                                       block_rows=cfg.block_rows)
            if instruments is not None:
                instruments.block_computed(engine.now - t0,
                                           cells=out.cells_computed)

        engine.process(proc(), "gpu0")
        total = engine.run()
        reports = [
            GpuReport(name=gpus[g].name, slab=slabs[g],
                      counters=gpus[g].counters,
                      finished_at=total if g == 0 else 0.0)
            for g in range(len(gpus))
        ]
        return ChainResult(best=out.best, total_time_s=total,
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
