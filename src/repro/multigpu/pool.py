"""The real-process engine: a live chain of slab workers.

A :class:`WorkerPool` starts one worker process per slab plus the border
transports between them, then serves comparisons over that chain:

* each worker blocks on its private task queue between comparisons and
  answers every :class:`~repro.multigpu.procchain.SlabTask` with one
  :class:`~repro.multigpu.procchain.SlabReport`;
* the border rings (one :class:`~repro.comm.shmring.ShmRing` per slab
  boundary, or a pipe pair under ``transport="pipe"``) are created at
  spawn, sized for the pool's maximum block height, and drain back to
  empty at the end of every successful comparison, so no per-run setup
  or teardown remains on the hot path;
* slab widths are proportional to the pool's *weights* (heterogeneous
  worker speeds), recomputed per comparison for its matrix width; the
  weights change only when recovery drops a dead worker.

The serving daemon keeps one pool for many comparisons;
:func:`~repro.multigpu.front.align_multi_process` is the same engine
with a lifetime of one exact sweep.

Failure semantics: any worker error or death marks the pool **broken**
(the transports' cursors can no longer be trusted) and raises
``RuntimeError``; a broken or closed pool refuses further work, and
closing it terminates its workers at once.  With ``max_restarts > 0`` on
:meth:`WorkerPool.align` the pool instead *recovers*: the comparison's
state is checkpointed into a shared-memory
:class:`~repro.multigpu.checkpoint.CheckpointArea`, the pool tears down
and respawns its workers and transports (dropping the dead, re-splitting
columns across the survivors), and the comparison resumes from the
newest row every slab had checkpointed (INTERNALS.md section 9).  Use
the pool as a context manager — ``close()`` always stops the workers and
unlinks the shared memory.
"""

from __future__ import annotations

import time
from dataclasses import asdict, replace
from typing import Sequence

import numpy as np

from ..comm.progress import ProgressBoard
from ..comm.scoreboard import SharedScoreboard
from ..comm.shmring import ShmRing
from ..device.trace import Tracer, WallClockRecorder, merge_wall_records
from ..errors import ConfigError
from ..obs.instruments import EngineInstruments, record_recovery
from ..obs.registry import MetricsRegistry
from ..seq.scoring import Scoring
from ..sw.blocks import RowState
from ..sw.compiled import warmup as compiled_warmup
from ..sw.config import AlignConfig, block_height, resolve_config
from ..sw.constants import resolve_dp_dtype
from ..sw.kernel import BestCell
from ..sw.tiers import SweepTally
from .checkpoint import CheckpointArea
from .front import (ProcessChainResult, RetryPolicy, answer, check_chain,
                    check_comparison, publish_run)
from .partition import proportional_partition, surviving_partition
from .procchain import (
    PipeLink,
    SlabReport,
    SlabTask,
    collect_results,
    pick_context,
    sweep_slab,
)


def _pool_worker(worker_id, task_queue, result_queue, recv_link, send_link,
                 scoreboard, progress):
    """Long-lived slab worker: one :class:`SlabTask` per comparison,
    ``None`` to exit.

    Every task is answered with one :class:`SlabReport`.  A fresh
    per-comparison registry keeps the metrics snapshots additive — the
    parent merges them, so pool-lifetime totals still accumulate there.
    A task that raises is reported and ends the worker: its transports'
    state is suspect, so the pool must break or re-spawn.

    Kernel warmup runs **once per process**, never per block: the first
    ``kernel="compiled"`` task loads the C engine inside a ``warmup``
    recorder span, so the load cost is visible in the
    merged trace instead of inflating that task's first compute
    interval.
    """
    warmed = False
    while True:
        task = task_queue.get()
        if task is None:
            break
        recorder = WallClockRecorder(task.origin)
        registry = MetricsRegistry() if task.collect_metrics else None
        instruments = (EngineInstruments(registry, f"worker{worker_id}")
                       if registry is not None else None)
        outcome = error = None
        try:
            if task.config.kernel == "compiled" and not warmed:
                progress.beat(worker_id, task.resume.row
                              if task.resume is not None else 0, "warmup")
                with recorder.span("warmup"):
                    compiled_warmup()
                warmed = True
            outcome = sweep_slab(task, recv_link, send_link, recorder,
                                 progress, slot=worker_id,
                                 scoreboard=scoreboard, instruments=instruments)
        except Exception as exc:
            error = repr(exc)
        result_queue.put(SlabReport(
            worker=worker_id, outcome=outcome,
            metrics=registry.snapshot() if registry is not None else None,
            error=error, records=recorder.records))
        if task.checkpoints is not None:
            task.checkpoints.close()
        if error is not None:
            break
    progress.close()


class WorkerPool:
    """A fixed set of live slab workers serving many comparisons.

    Parameters
    ----------
    workers:
        Number of slab processes (chain length).
    weights:
        Relative per-worker speeds for proportional slab widths
        (default: equal), the paper's split by declared device power.
    max_block_rows:
        Largest ``block_rows`` any comparison may use — it sizes the
        shared-memory ring slots once, at spawn.
    capacity:
        Border ring depth (block rows a producer may run ahead).
    transport:
        ``"shm"`` rings or ``"pipe"`` links (see
        :mod:`repro.multigpu.procchain`).
    start_method:
        Overrides the fork-else-spawn default of
        :func:`~repro.multigpu.procchain.pick_context`.
    border_timeout_s:
        Bound on every border send/receive, so a dead neighbour surfaces
        as an error instead of a hang.
    events:
        Optional :class:`~repro.obs.events.EventJournal` shared by the
        pool's whole lifetime: every (re-)spawn journals
        ``worker_spawn``, every :meth:`align` journals its lifecycle
        (``run_start``/``worker_death``/``checkpoint``/
        ``restart_attempt``/``run_end``), and the
        per-run heartbeat watchdog adds ``stall`` events.
    """

    def __init__(
        self,
        workers: int,
        *,
        weights: Sequence[float] | None = None,
        max_block_rows: int = 2048,
        capacity: int = 4,
        transport: str = "shm",
        start_method: str | None = None,
        border_timeout_s: float = 60.0,
        events=None,
        _backend: str = "pool",
    ) -> None:
        check_chain(workers, weights=weights, max_block_rows=max_block_rows,
                    capacity=capacity, transport=transport)
        self.workers = workers
        self.weights = list(weights) if weights is not None else [1.0] * workers
        self.max_block_rows = max_block_rows
        self.capacity = capacity
        self.transport = transport
        self.border_timeout_s = border_timeout_s
        self._ctx = pick_context(start_method)
        self.start_method = self._ctx.get_start_method()
        self.events = events
        # Metric/event label; align_multi_process runs as "process".
        self._backend = _backend
        self._worker_label = "pool worker" if _backend == "pool" else "worker"
        self._broken = False
        self._closed = False

        # What one set of workers holds; _release() returns the pool to
        # this empty state.
        self._procs: list = []
        self._rings: list[ShmRing] = []
        self._parent_conns: list = []
        self._scoreboard: SharedScoreboard | None = None
        self._progress: ProgressBoard | None = None
        self._result_queue = None
        self._task_queues: list = []
        self._spawn_workers()

    def _spawn_workers(self) -> None:
        """Create the transports, boards, queues and worker processes for
        the current ``self.workers`` (construction, and again after a
        recovery re-spawn).  If any step raises, the workers started so
        far are stopped and everything created is released before the
        error propagates."""
        try:
            workers = self.workers
            links: list = []
            for g in range(workers - 1):
                label = f"pool-border{g}->{g + 1}"
                if self.transport == "shm":
                    ring = ShmRing(self._ctx, self.capacity,
                                   self.max_block_rows, label=label)
                    self._rings.append(ring)
                    links.append(ring)
                else:
                    recv_conn, send_conn = self._ctx.Pipe(duplex=False)
                    self._parent_conns += [recv_conn, send_conn]
                    links.append(PipeLink(recv_conn, send_conn, label=label))
            # The pruning scoreboard (reset per pruning run) and the
            # heartbeat board (reset per attempt) live as long as this set
            # of workers; workers always beat — one shared-memory store per
            # phase transition — and align() decides whether anyone watches.
            self._scoreboard = SharedScoreboard(workers,
                                                label="pool-scoreboard")
            self._progress = ProgressBoard(workers, label="pool-progress")

            self._result_queue = self._ctx.Queue()
            self._task_queues = [self._ctx.Queue() for _ in range(workers)]
            for g in range(workers):
                recv_link = links[g - 1] if g > 0 else None
                send_link = links[g] if g < workers - 1 else None
                proc = self._ctx.Process(
                    target=_pool_worker,
                    args=(g, self._task_queues[g], self._result_queue,
                          recv_link, send_link, self._scoreboard,
                          self._progress),
                    name=f"mgsw-pool-{g}",
                )
                proc.daemon = True
                proc.start()
                self._procs.append(proc)
                if self.events is not None:
                    self.events.emit("worker_spawn", worker=g, pid=proc.pid,
                                     pool=True)
        except BaseException:
            self._stop_workers(graceful=False)
            self._release()
            raise

    def _stop_workers(self, *, graceful: bool) -> list[str]:
        """Stop the worker processes: a ``None`` task each and a bounded
        join when *graceful*, otherwise terminate at once (after a failure
        neighbours may be blocked on a border that will never arrive —
        don't wait out their timeouts).  Returns the error strings."""
        errors: list[str] = []
        if graceful:
            for q in self._task_queues:
                try:
                    q.put_nowait(None)
                except Exception:  # pragma: no cover - full/broken queue
                    pass
        for proc in self._procs:
            try:
                if not graceful and proc.is_alive():
                    proc.terminate()
                proc.join(timeout=5.0)
                if proc.is_alive():
                    proc.terminate()
                    proc.join()
            except Exception as exc:  # pragma: no cover - platform noise
                errors.append(f"stopping {proc.name}: {exc!r}")
        return errors

    def _release(self) -> list[str]:
        """Release the stopped workers' queues, transports and boards,
        whichever exist, and forget them (a second call is a no-op).
        Every step is attempted; the error strings are returned."""
        errors: list[str] = []
        for q in filter(None, [*self._task_queues, self._result_queue]):
            try:
                q.close()
            except Exception as exc:  # pragma: no cover - platform noise
                errors.append(f"closing queue: {exc!r}")
        for conn in self._parent_conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
        for segment in filter(None, [*self._rings, self._scoreboard,
                                     self._progress]):
            try:
                segment.unlink()
            except Exception as exc:
                errors.append(f"unlinking {segment.label!r}: {exc!r}")
        self._procs, self._rings, self._parent_conns = [], [], []
        self._scoreboard = self._progress = self._result_queue = None
        self._task_queues = []
        return errors

    # -- lifecycle -----------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def broken(self) -> bool:
        return self._broken

    def worker_pids(self) -> list[int]:
        """PIDs of the live workers (stable across comparisons)."""
        return [proc.pid for proc in self._procs]

    def close(self) -> None:
        """Stop the workers and release the shared memory (idempotent).

        A broken pool's workers are terminated at once; a healthy pool's
        finish their queue and exit.  Exception-safe: every teardown step
        is attempted even when an earlier one raises (a ring whose
        segment is already gone must not leak the scoreboard and progress
        segments behind it); the errors are aggregated into one
        ``RuntimeError`` at the end.  A second call is a no-op regardless
        of how the first one went.
        """
        if self._closed:
            return
        self._closed = True
        errors = self._stop_workers(graceful=not self._broken)
        errors += self._release()
        if errors:
            raise RuntimeError(
                "pool close encountered errors (all teardown steps were "
                "attempted): " + "; ".join(errors))

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- the work ------------------------------------------------------------
    def align(
        self,
        a_codes: np.ndarray,
        b_codes: np.ndarray,
        scoring: Scoring,
        *,
        config: AlignConfig | None = None,
        timeout_s: float = 300.0,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        heartbeat_s: float | None = None,
        on_stall=None,
        max_restarts: int = 0,
        restart_backoff_s: float = 0.5,
        timeline=None,
        _fault: tuple[int, int] | None = None,
        **overrides,
    ) -> ProcessChainResult:
        """Local alignment over the pool's worker chain (exact modes are
        bit-identical to every other engine); raises ``RuntimeError`` on
        worker failure/timeout and :class:`ConfigError` on bad arguments.

        The comparison's knobs are *config* (an
        :class:`~repro.sw.config.AlignConfig`, defaults when ``None``)
        with keyword *overrides* of its fields (``block_rows=``,
        ``kernel=``, ``pruning=``, ``mode=``, ``band_width=``,
        ``xdrop_x=``, ``dp_dtype=``), which the config class documents.
        ``block_rows`` is the largest block height: the sweep runs
        :func:`~repro.sw.config.block_height` rows for this query length
        and worker count, the same in every recovery attempt, and the
        result's ``config`` records it.  The tiers are dispatched by
        :func:`~repro.sw.tiers.run_tiers` over this pool's exact sweep:
        ``banded`` and ``xdrop`` run inline in the parent while the
        workers stay idle, and ``auto`` runs the band inline, then the
        exact sweep over the live workers when the confidence check
        fails.  Pruning runs against the chain's shared scoreboard,
        reset before each comparison.  Pass a
        :class:`~repro.device.trace.Tracer` to collect per-worker
        wall-clock intervals (actors ``worker0``, ..., and ``parent``
        for an inline sweep, whose result reports the one slab
        ``[0, n)`` it swept; a tracer is created on the result
        regardless).

        Telemetry (INTERNALS.md section 8): *metrics* collects per-worker
        counters (spawn-safe snapshot-and-merge into the same registry
        run after run, so pool-lifetime totals accumulate);
        *timeline* accepts a
        :class:`~repro.obs.timeseries.TimeSeriesSampler`: it is attached
        to the progress board for each attempt of this comparison and
        detached with a final frame as the attempt ends, so one ring
        spans every recovery attempt.  *heartbeat_s* arms a
        :class:`~repro.obs.heartbeat.HeartbeatMonitor` on that sampler
        (or on a private one when *timeline* is ``None``) that flags
        workers silent beyond that many seconds — in the frames, and by
        calling *on_stall* per episode — and enriches failure
        diagnostics with each stalled worker's last completed row and
        phase.

        Recovery (INTERNALS.md section 9): with ``max_restarts > 0``
        (*restart_backoff_s* apart) workers checkpoint their block-row
        state every :data:`~repro.multigpu.checkpoint.CHECKPOINT_BLOCKS`
        block rows and a failed attempt
        checkpoint-resumes instead of breaking the pool — the workers and
        transports are re-spawned (dead workers dropped from
        ``self.weights``, so later comparisons inherit the shrunken
        chain), and the comparison restarts from the newest row every
        slab had published.  Each attempt gets the full *timeout_s*
        budget.  The pool is only marked broken when the policy is
        exhausted or the failure is permanent.  When *heartbeat_s* is
        also set, workers silent for twice that long are killed by the
        watchdog so hard stalls enter the same recovery path as crashes.
        Without recovery the first worker death or error fails the
        comparison at once; closing the broken pool stops the survivors.
        ``_fault`` is the test-only ``(worker_id, block_index)`` crash
        hook, first attempt only.

        DP dtype (INTERNALS.md section 11): ``dp_dtype="auto"`` resolves
        per attempt against the widest slab of that attempt's partition.
        """
        if self._closed:
            raise ConfigError("pool is closed")
        if self._broken:
            raise ConfigError("pool is broken by an earlier failure")
        cfg = resolve_config(config, **overrides)
        check_comparison(a_codes, b_codes, scoring, workers=self.workers)
        if cfg.block_rows > self.max_block_rows:
            raise ConfigError(
                f"block_rows {cfg.block_rows} exceeds the pool's "
                f"max_block_rows {self.max_block_rows}")
        # block_rows is a cap; the height is derived once, here, so every
        # recovery attempt resumes at the rows the checkpoints hold.
        cfg = replace(cfg, block_rows=block_height(
            cfg.block_rows, int(a_codes.size), self.workers))
        retry = RetryPolicy(max_restarts=max_restarts,
                            backoff_s=restart_backoff_s)

        def sweep(floor: int, origin: float,
                  into: Tracer) -> ProcessChainResult:
            return self.sweep(
                a_codes, b_codes, scoring, cfg, floor, origin=origin,
                timeout_s=timeout_s, tracer=into, metrics=metrics,
                heartbeat_s=heartbeat_s, on_stall=on_stall, retry=retry,
                timeline=timeline, fault=_fault)

        result = answer(a_codes, b_codes, scoring, cfg, sweep=sweep,
                        workers=self.workers, transport=self.transport,
                        start_method=self.start_method,
                        max_restarts=retry.max_restarts,
                        backend=self._backend, tracer=tracer,
                        metrics=metrics, events=self.events)
        publish_run(result, backend=self._backend, metrics=metrics,
                    events=self.events)
        return result

    def sweep(self, a_codes, b_codes, scoring, cfg, floor, *, origin,
              timeout_s, tracer, metrics, heartbeat_s, on_stall, retry,
              timeline, fault) -> ProcessChainResult:
        """One exact sweep over the chain: one attempt per loop
        iteration; a failed attempt either checkpoint-resumes on the
        re-spawned survivors or raises.  Each attempt resumes from
        *resume*, the newest full :class:`~repro.sw.blocks.RowState` the
        checkpoints hold (``None``: row 0); its best cell and prune
        counters ride into the first worker.  Under pruning every
        attempt starts the scoreboard at *floor*, a resumed one at the
        resumed best cell when that is higher.  Trace records are
        relative to *origin*; the result's wall time covers this sweep
        only.  *cfg* arrives checked, its ``block_rows`` resolved:
        :meth:`align` and
        :func:`~repro.multigpu.front.align_multi_process` hand this sweep
        to :func:`~repro.multigpu.front.answer`."""
        started = time.perf_counter()
        m, n = int(a_codes.size), int(b_codes.size)
        recovery = retry.max_restarts > 0
        restarts = 0
        rows_recomputed_total = 0
        resume: RowState | None = None
        # What the failed attempts add to the last one's tally: their
        # cells and narrow-DP split (the prune decisions of the prefix
        # the last attempt resumed from ride in *resume*).
        base = SweepTally()
        checkpoints: CheckpointArea | None = None

        def fail(detail: str) -> RuntimeError:
            if self.events is not None:
                self.events.emit("run_end", status="failed",
                                 restarts=restarts, detail=detail)
            return RuntimeError(detail)

        try:
            while True:
                # The DP dtype policy is resolved per attempt against the
                # *current* partition's widest slab — recovery can widen
                # the surviving slabs, and "auto" must stay overflow-free.
                slabs = proportional_partition(n, self.weights)
                dp_policy = resolve_dp_dtype(
                    cfg.dp_dtype, scoring,
                    block_cols=max(s.cols for s in slabs), m=m, n=n,
                    local=True)
                dp = dp_policy if dp_policy.narrow else None
                start_row = 0 if resume is None else resume.row
                if cfg.pruning:
                    # Safe: no comparison is in flight here (align is serial
                    # and the previous run's workers have all reported).
                    # The resumed best is a real cell, so a resumed
                    # attempt may start from it.
                    self._scoreboard.reset(
                        floor if resume is None
                        else max(floor, resume.best.score))
                self._progress.reset()  # same serial-point argument
                if recovery:
                    checkpoints = CheckpointArea(
                        [s.cols for s in slabs], capacity=self.capacity,
                        label="pool-ckpt")
                for g, slab in enumerate(slabs):
                    self._task_queues[g].put(SlabTask(
                        a_codes=a_codes,
                        b_slab=b_codes[slab.col0:slab.col1].copy(),
                        slab=slab, scoring=scoring, config=cfg,
                        origin=origin, border_timeout_s=self.border_timeout_s,
                        n_cols=n, collect_metrics=metrics is not None,
                        resume=(resume.slice(slab.col0, slab.col1)
                                if resume is not None else None),
                        checkpoints=checkpoints,
                        fault_block=(fault[1] if fault is not None
                                     and fault[0] == g and restarts == 0
                                     else None),
                        dp=dp))

                reports, failures = self._collect(
                    timeout_s, heartbeat_s=heartbeat_s, on_stall=on_stall,
                    recovery=recovery, metrics=metrics, timeline=timeline,
                    rows=m, slabs=slabs, attempt=restarts)
                wall = time.perf_counter() - started

                # Fold whatever this attempt reported — survivors of a
                # failed attempt still deliver honest trace records and
                # counters.
                attempt = SweepTally()
                worker_blocks = []
                for g in sorted(reports):
                    report = reports[g]
                    outcome = report.outcome
                    merge_wall_records(tracer, f"worker{g}",
                                       report.records)
                    if metrics is not None and report.metrics is not None:
                        metrics.merge_snapshot(report.metrics)
                    worker_blocks.append((outcome.tally.blocks_checked,
                                          outcome.tally.blocks_pruned))
                    attempt += outcome.tally

                if not failures:
                    return ProcessChainResult(
                        best=BestCell.best_of(
                            r.outcome.best for r in reports.values()),
                        wall_time_s=wall, cells=m * n,
                        workers=self.workers,
                        partition=tuple(slabs), transport=self.transport,
                        start_method=self.start_method, tracer=tracer,
                        config=cfg,
                        worker_blocks=tuple(worker_blocks),
                        restarts=restarts,
                        rows_recomputed=rows_recomputed_total,
                        dp_dtype=dp_policy.name,
                        **asdict(base + attempt),
                    )

                # -- failed attempt --------------------------------------------
                base += replace(attempt, blocks_checked=0, blocks_pruned=0)
                if self.events is not None:
                    for key, desc, kind in failures:
                        self.events.emit("worker_death", worker=key,
                                         attempt=restarts, kind=kind,
                                         detail=desc)
                detail = "; ".join(desc for _key, desc, _kind in failures)
                if (not recovery or restarts >= retry.max_restarts
                        or any(retry.is_permanent(desc)
                               for _key, desc, _kind in failures)):
                    raise fail(detail)

                fail_t = time.perf_counter() - origin
                # Checkpoints and the progress board are only read once
                # every worker of the failed attempt is gone.
                self._stop_workers(graceful=False)
                # The board still holds this attempt's final beats — the
                # honest "how far did each slab get" record.
                progress_rows = [s.rows_done
                                 for s in self._progress.snapshot()]
                self._release()
                died = [key for key, _desc, kind in failures if kind == "died"]
                try:
                    # Ring cursors of a failed attempt can never be
                    # trusted: every survivor gets fresh transports.
                    _, self.weights = surviving_partition(n, self.weights,
                                                          died)
                    self.workers = len(self.weights)
                    self._spawn_workers()
                except Exception as exc:
                    raise fail(detail + f"; recovery impossible: {exc!r}") from None

                r_new = checkpoints.consistent_row()
                if self.events is not None:
                    self.events.emit("checkpoint", attempt=restarts,
                                     consistent_row=r_new)
                if r_new > start_row:
                    resume = checkpoints.assemble(r_new)
                resume_row = max(r_new, start_row)
                checkpoints.unlink()
                checkpoints = None

                rows_recomputed = sum(
                    max(0, rows_done - resume_row)
                    for rows_done in progress_rows)
                rows_recomputed_total += rows_recomputed
                restarts += 1
                if metrics is not None:
                    record_recovery(metrics, backend=self._backend,
                                    rows_recomputed=rows_recomputed)
                if self.events is not None:
                    self.events.emit("restart_attempt", attempt=restarts,
                                     resume_row=resume_row,
                                     workers_left=self.workers,
                                     rows_recomputed=rows_recomputed)
                time.sleep(retry.delay_s(restarts - 1))
                tracer.record("supervisor", "recovery", fail_t,
                              time.perf_counter() - origin)
        except BaseException:
            # Whatever ended the comparison early (worker failure, timeout,
            # KeyboardInterrupt), the transports' state is now unknown.
            self._broken = True
            raise
        finally:
            if checkpoints is not None:
                checkpoints.unlink()

    def _collect(self, timeout_s, *, heartbeat_s, on_stall, recovery,
                 metrics, timeline, rows, slabs, attempt):
        """Gather one attempt's reports under its deadline, with the
        time-series sampler — the one reader of the progress board —
        riding along: the caller's *timeline*, or a private ring-only
        one when only *heartbeat_s* arms the stall watchdog.

        With *recovery* armed, a worker wedged for twice the stall
        threshold is killed so the ordinary death path — and recovery —
        takes over; without it the first failure ends the wait.  Returns
        ``(reports, failures)`` (see
        :func:`~repro.multigpu.procchain.collect_results`)."""
        label = self._worker_label
        describe = lambda g: f"{label} {g}"  # noqa: E731
        watchdog = None
        if heartbeat_s is not None:
            from ..obs.heartbeat import HeartbeatMonitor

            on_hard = None
            if recovery:
                def on_hard(report, _procs=self._procs):
                    proc = _procs[report.worker]
                    if proc.is_alive():
                        proc.kill()

            watchdog = HeartbeatMonitor(
                self._progress, stall_after_s=heartbeat_s,
                on_stall=on_stall,
                hard_stall_s=2.0 * heartbeat_s if recovery else None,
                on_hard_stall=on_hard, metrics=metrics, events=self.events)
            describe = lambda g: f"{label} {g} ({watchdog.describe(g)})"  # noqa: E731
        sampler = timeline
        if sampler is None and watchdog is not None:
            from ..obs.timeseries import TimeSeriesSampler

            sampler = TimeSeriesSampler(ring=1)
        if sampler is not None:
            sampler.attach(self._progress, rows=rows,
                           cols_per_worker=[s.cols for s in slabs],
                           attempt=attempt, watchdog=watchdog)
        try:
            return collect_results(
                self._result_queue, self._procs, set(range(self.workers)),
                time.monotonic() + timeout_s, describe=describe,
                fail_fast=not recovery)
        finally:
            if sampler is not None:
                # Final sample before the next attempt resets the board:
                # the last frame records how far this attempt got.
                sampler.detach()
