"""The real-process engine's front door: what a process run answers, and
everything it does before its first worker.

:func:`align_multi_process` checks every argument, journals
``run_start`` and dispatches the tiers (:func:`~repro.sw.tiers.run_tiers`)
itself.  Only the exact sweep (``mode="exact"``, or an ``auto`` that
escalates) builds a :class:`~repro.multigpu.pool.WorkerPool`, so a
comparison the band or X-drop answers inline loads neither
:mod:`multiprocessing` nor :mod:`repro.comm` nor the pool.  The result
type, the argument checks, the retry policy and the inline answer live
here for the same reason, and :meth:`WorkerPool.align
<repro.multigpu.pool.WorkerPool.align>` (warm pools, serve) answers
through the same :func:`answer`.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from ..device.trace import Tracer
from ..errors import ConfigError
from ..perf.metrics import gcups as _metrics_gcups
from ..seq.scoring import Scoring, check_pair
from ..sw.config import (BANDED_MODES, INLINE_MODES, AlignConfig,
                         block_height, resolve_config)
from ..sw.tiers import InlineOutcome, RunResult, run_tiers
from .partition import Slab

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.registry import MetricsRegistry

#: Supported border transports.
TRANSPORTS = ("shm", "pipe")


def default_start_method() -> str:
    """The start method :func:`~repro.multigpu.procchain.pick_context`
    picks by default, named without importing :mod:`multiprocessing`:
    ``fork`` on every platform that has it (all but Windows), else
    ``spawn``."""
    return "spawn" if sys.platform == "win32" else "fork"


@dataclass(frozen=True, kw_only=True)
class ProcessChainResult(RunResult):
    """Outcome of a real-process run (wall-clock, not virtual, time): the
    shared :class:`~repro.sw.tiers.RunResult` fields plus the wall time,
    worker count, partition, transport, trace, recovery accounting and
    config.

    The counters are chain-wide.  ``cells_swept`` and the narrow/wide
    split count every attempt; ``blocks_checked``/``blocks_pruned``
    count the last attempt, whose per-worker ``(checked, pruned)`` pairs
    are ``worker_blocks``, and the checkpointed prefix it resumed from,
    which the first worker's pair carries.

    ``tracer`` holds per-worker wall-clock intervals (actors ``worker0``,
    ``worker1``, ...; ``parent`` for a tier run inline) recorded through the
    :class:`~repro.device.trace.WallClockRecorder` adapter, so the same
    breakdown/utilisation/overlap queries work as for simulated runs.
    """

    wall_time_s: float
    workers: int
    partition: tuple[Slab, ...] = ()
    transport: str = "pipe"
    start_method: str = "fork"
    tracer: Tracer | None = None
    worker_blocks: tuple = ()
    #: Recovery accounting (zeros unless ``max_restarts`` allowed a resume):
    #: attempts resumed after a failure, and matrix rows swept again because
    #: they lay past the newest consistent checkpoint when the failure hit.
    restarts: int = 0
    rows_recomputed: int = 0
    #: Always 0: no engine skips blocks by band any more.
    #: ``perfbench/layers.py`` reads it, so it goes with the next change
    #: to the benchmark.
    blocks_skipped_band: int = 0
    #: The config the run swept, ``block_rows`` resolved by
    #: :func:`~repro.sw.config.block_height`.
    config: AlignConfig = AlignConfig()

    @property
    def kernel(self) -> str:
        return self.config.kernel

    @property
    def pruning(self) -> bool:
        return self.config.pruning

    @property
    def gcups(self) -> float:
        """Wall-clock GCUPS via :func:`repro.perf.metrics.gcups`.

        One behaviour library-wide: a non-positive elapsed time raises
        ``ValueError`` (it can only arise from a corrupted result).
        """
        return _metrics_gcups(self.cells, self.wall_time_s)

    def breakdown(self) -> list[dict[str, float]]:
        """Per-worker compute/transfer/wait/idle fractions of the wall time
        (same shape as :meth:`repro.multigpu.chain.ChainResult.breakdown`)."""
        if self.tracer is None:
            return []
        out = []
        for g in range(self.workers):
            actor = f"worker{g}"
            compute = self.tracer.total(actor, "compute") / self.wall_time_s
            transfer = (self.tracer.total(actor, "d2h")
                        + self.tracer.total(actor, "h2d")) / self.wall_time_s
            wait = self.tracer.total(actor, "wait") / self.wall_time_s
            entry = {
                "compute": compute,
                "transfer": transfer,
                "wait": wait,
                "idle": max(0.0, 1.0 - compute - transfer - wait),
            }
            if self.pruning and g < len(self.worker_blocks):
                checked, pruned = self.worker_blocks[g]
                entry["blocks_checked"] = float(checked)
                entry["blocks_pruned"] = float(pruned)
            out.append(entry)
        return out


#: Worker-raised exception types that re-executing cannot fix: the same
#: inputs would fail the same way, so the supervisor must not retry them.
_PERMANENT_MARKERS = ("ConfigError(", "PartitionError(")


@dataclass(frozen=True)
class RetryPolicy:
    """How the real-process supervisors respond to a failed attempt.

    ``max_restarts`` bounds how many times one comparison may be resumed
    (0 keeps the old fail-fast behaviour); between attempts the
    supervisor sleeps an exponential backoff.  Worker failures whose
    error text names a deterministic configuration error are classified
    *permanent* and never retried — re-dispatching the same bad inputs
    cannot succeed.
    """

    max_restarts: int = 0
    backoff_s: float = 0.5
    backoff_multiplier: float = 2.0
    max_backoff_s: float = 30.0

    def __post_init__(self) -> None:
        if self.max_restarts < 0:
            raise ConfigError("max_restarts must be >= 0")
        if self.backoff_s < 0 or self.max_backoff_s < 0:
            raise ConfigError("backoff times must be >= 0")
        if self.backoff_multiplier < 1.0:
            raise ConfigError("backoff_multiplier must be >= 1")

    def delay_s(self, restarts_done: int) -> float:
        """Backoff before restart number ``restarts_done + 1``."""
        return min(self.max_backoff_s,
                   self.backoff_s * self.backoff_multiplier ** restarts_done)

    @staticmethod
    def is_permanent(failure: str) -> bool:
        """True when *failure* (a worker error description) is one
        re-execution cannot fix (see :data:`_PERMANENT_MARKERS`)."""
        return any(marker in failure for marker in _PERMANENT_MARKERS)


def check_chain(workers: int, *, weights: Sequence[float] | None,
                max_block_rows: int, capacity: int, transport: str) -> None:
    """Refuse a worker chain :class:`~repro.multigpu.pool.WorkerPool`
    cannot build (the start method is checked where the context is
    picked)."""
    if workers <= 0:
        raise ConfigError("workers must be positive")
    if transport not in TRANSPORTS:
        raise ConfigError(f"unknown transport {transport!r}; expected "
                          f"one of {TRANSPORTS}")
    if capacity <= 0:
        raise ConfigError("capacity must be positive")
    if weights is not None and len(weights) != workers:
        raise ConfigError("weights length must equal the worker count")
    if max_block_rows <= 0:
        raise ConfigError("max_block_rows must be positive")


def check_comparison(a_codes: np.ndarray, b_codes: np.ndarray,
                     scoring: Scoring, *, workers: int) -> None:
    """Refuse a pair *scoring* cannot score, or one a *workers*-long
    chain cannot run (the config validated itself on construction)."""
    check_pair(a_codes, b_codes, scoring)
    if b_codes.size < workers:
        raise ConfigError("matrix narrower than the worker count")


#: ``sweep(floor, origin, tracer)``: one exact sweep of the comparison
#: with its scoreboard at *floor*, trace records relative to the
#: ``perf_counter`` *origin*, into *tracer*.
Sweep = Callable[[int, float, Tracer], ProcessChainResult]


def answer(a_codes: np.ndarray, b_codes: np.ndarray, scoring: Scoring,
           cfg: AlignConfig, *, sweep: Sweep, workers: int, transport: str,
           start_method: str, max_restarts: int, backend: str,
           tracer: Tracer | None, metrics: MetricsRegistry | None,
           events) -> ProcessChainResult:
    """Answer one checked comparison in ``cfg.mode``: journal
    ``run_start``, then run the tiers over *sweep*.  An inline tier's
    answer is timed from here and stamped with the chain it did not
    use (*transport*, *start_method*) and the one slab ``[0, n)`` that
    the parent swept, on the ``parent`` actor of *tracer* (a tracer is
    created on the result regardless)."""
    m, n = int(a_codes.size), int(b_codes.size)
    if events is not None:
        events.emit(
            "run_start", backend=backend, mode=cfg.mode, rows=m, cols=n,
            workers=0 if cfg.mode in INLINE_MODES else workers,
            kernel=cfg.kernel, transport=transport, pruning=cfg.pruning,
            max_restarts=max_restarts,
            band_width=(cfg.band_width if cfg.mode in BANDED_MODES
                        else None))
    origin = time.perf_counter()
    if tracer is None:
        tracer = Tracer()

    def from_inline(out: InlineOutcome) -> ProcessChainResult:
        # The parent swept (a band of) the whole width; no worker took
        # part.
        tracer.record("parent", "compute", out.started - origin,
                      out.started - origin + out.wall_s)
        if metrics is not None:
            from ..obs.instruments import EngineInstruments

            EngineInstruments(metrics, "parent").block_computed(
                out.wall_s, cells=out.cells_computed)
        return ProcessChainResult(
            best=out.best, wall_time_s=time.perf_counter() - origin,
            cells=m * n, workers=0, partition=(Slab(0, 0, n),),
            transport=transport, start_method=start_method, tracer=tracer,
            config=cfg)

    return run_tiers(a_codes, b_codes, scoring, cfg,
                     sweep=lambda floor: sweep(floor, origin, tracer),
                     from_inline=from_inline, elapsed="wall_time_s",
                     backend=backend, metrics=metrics, events=events)


def publish_run(result: ProcessChainResult, *, backend: str,
                metrics: MetricsRegistry | None, events) -> None:
    """Close a successful real-process run: the run-level summary metrics
    and the ``run_end`` record."""
    if metrics is not None:
        from ..obs.instruments import finalize_run_metrics

        finalize_run_metrics(
            metrics, backend=backend, blocks_checked=result.blocks_checked,
            blocks_pruned=result.blocks_pruned,
            wall_time_s=result.wall_time_s, gcups=result.gcups)
    if events is not None:
        events.emit("run_end", status="ok", score=int(result.best.score),
                    wall_time_s=round(result.wall_time_s, 6),
                    restarts=result.restarts, tier=result.tier,
                    escalated=result.escalated)


def align_multi_process(
    a_codes: np.ndarray,
    b_codes: np.ndarray,
    scoring: Scoring,
    *,
    config: AlignConfig | None = None,
    workers: int = 2,
    weights: Sequence[float] | None = None,
    capacity: int = 4,
    transport: str = "shm",
    start_method: str | None = None,
    border_timeout_s: float = 60.0,
    timeout_s: float = 300.0,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
    heartbeat_s: float | None = None,
    on_stall=None,
    max_restarts: int = 0,
    restart_backoff_s: float = 0.5,
    timeline=None,
    events=None,
    _fault: tuple[int, int] | None = None,
    **overrides,
) -> ProcessChainResult:
    """One comparison across *workers* real processes.

    A :class:`~repro.multigpu.pool.WorkerPool` with a lifetime of one
    exact sweep: every argument is checked first (each
    :class:`ConfigError` is raised before any process spawns), then the
    tiers run, and only an exact sweep spawns the *workers* slab
    processes, runs once on them and closes the pool on every exit
    path.  ``mode="banded"`` and ``"xdrop"`` run inline in the parent
    and spawn nothing; ``"auto"`` spawns the workers only when it
    escalates.  *weights* sizes slabs proportionally to per-worker
    speed (equal by default), *capacity* is the border ring depth,
    *transport* picks shared memory or pipes, *start_method* overrides
    the fork-else-spawn default.  *config* and keyword *overrides* of
    its fields (``block_rows=``, ``kernel=``, ``mode=``, ...) make the
    comparison's config; every other argument means what it means on
    :meth:`WorkerPool.align <repro.multigpu.pool.WorkerPool.align>`.

    *events* journals ``run_start``, the pool's ``worker_spawn`` and
    recovery records, and ``run_end``.  The result's ``wall_time_s``, the
    ``last_run_*`` gauges and ``run_end`` cover the whole call, worker
    spawn and teardown included; metrics and events carry
    ``backend="process"``.

    Raises :class:`ConfigError` on bad parameters and ``RuntimeError``
    when a worker fails or the run times out.
    """
    t0 = time.perf_counter()
    cfg = resolve_config(config, **overrides)
    check_comparison(a_codes, b_codes, scoring, workers=workers)
    check_chain(workers, weights=weights, max_block_rows=cfg.block_rows,
                capacity=capacity, transport=transport)
    if start_method is None:
        method = default_start_method()
    else:  # an explicit method is checked against this platform's
        from .procchain import pick_context

        method = pick_context(start_method).get_start_method()
    retry = RetryPolicy(max_restarts=max_restarts,
                        backoff_s=restart_backoff_s)
    max_block_rows = cfg.block_rows
    cfg = replace(cfg, block_rows=block_height(
        cfg.block_rows, int(a_codes.size), workers))

    def sweep(floor: int, origin: float, into: Tracer) -> ProcessChainResult:
        from .pool import WorkerPool

        with WorkerPool(workers, weights=weights,
                        max_block_rows=max_block_rows, capacity=capacity,
                        transport=transport, start_method=start_method,
                        border_timeout_s=border_timeout_s, events=events,
                        _backend="process") as pool:
            return pool.sweep(
                a_codes, b_codes, scoring, cfg, floor, origin=origin,
                timeout_s=timeout_s, tracer=into, metrics=metrics,
                heartbeat_s=heartbeat_s, on_stall=on_stall, retry=retry,
                timeline=timeline, fault=_fault)

    result = answer(a_codes, b_codes, scoring, cfg, sweep=sweep,
                    workers=workers, transport=transport, start_method=method,
                    max_restarts=retry.max_restarts, backend="process",
                    tracer=tracer, metrics=metrics, events=events)
    result = replace(result, wall_time_s=time.perf_counter() - t0)
    publish_run(result, backend="process", metrics=metrics, events=events)
    return result
