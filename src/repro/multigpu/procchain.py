"""Real-process chain: the paper's dataflow on actual parallel workers.

Everything else in :mod:`repro.multigpu` runs on a simulated clock; the
real-process engine executes the same column-slab / border-column
dataflow across **real OS processes**, one per slab.  This module holds
the pieces of that dataflow; :class:`repro.multigpu.pool.WorkerPool` is
the engine that runs them, and :func:`align_multi_process` is a pool with
a lifetime of one comparison.  Two border transports implement the
paper's host circular buffer:

* ``"shm"`` (default) — a :class:`~repro.comm.shmring.ShmRing` per slab
  boundary: a bounded circular buffer in POSIX shared memory that carries
  H/E border columns without pickling or pipe copies, the real-world
  analogue of the simulated :class:`~repro.comm.ringbuf.SimRingBuffer`.
* ``"pipe"`` — one OS pipe per boundary with raw-byte framed messages
  (:class:`PipeLink`, MPI point-to-point style), kept as the baseline the
  transport benchmark compares against.

A worker receives one :class:`SlabTask` per comparison, runs
:func:`sweep_slab` over its slab and answers with one
:class:`SlabReport`; :func:`collect_results` gathers the reports while
watching for dead workers.  On a multi-core host the workers genuinely
overlap; the result is bit-identical to every other engine (same
kernels, same border contract).  This is the bridge from the simulation
to a real deployment: replace the transport with CUDA-aware MPI and each
worker's kernel with a device kernel, and the orchestration is
unchanged.

Robustness contract: worker failures are detected (a worker that raises
reports its exception; a worker that *dies* is noticed by the parent's
liveness poll and by its neighbours' border timeouts), every phase is
bounded by a timeout, failures propagate as one deterministic
:class:`RuntimeError` listing the failed workers in id order, and shared
memory segments are unlinked on every exit path.  Recovery from failures
(checkpoint-resume on the survivors, INTERNALS.md section 9) is the
pool's job; :class:`~repro.multigpu.checkpoint.CheckpointArea` and
:func:`checkpoint_history_for` are the pieces it uses.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import queue as queue_mod
import time
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from ..comm.progress import ProgressBoard
from ..comm.scoreboard import SharedScoreboard
from ..comm.shmring import HEADER_BYTES, HEADER_STRUCT
from ..device.trace import Tracer, WallClockRecorder
from ..errors import CommError, ConfigError
from ..obs.instruments import EngineInstruments, finalize_run_metrics
from ..obs.registry import MetricsRegistry
from ..perf.metrics import gcups as _metrics_gcups
from ..seq.scoring import Scoring
from ..sw.batched import KernelWorkspace, cached_profile
from ..sw.blocks import SlabSweep
from ..sw.config import CONFIG_FIELDS, AlignConfig, resolve_config
from ..sw.constants import DTYPE, NEG_INF, DpPolicy
from ..sw.kernel import BestCell
from .checkpoint import CheckpointArea
from .partition import Slab

#: Supported border transports.
TRANSPORTS = ("shm", "pipe")

#: Grace period between noticing a dead worker and declaring it failed
#: (its final result message may still be in flight through the queue).
_DEATH_GRACE_S = 1.0


def pick_context(start_method: str | None = None) -> mp.context.BaseContext:
    """The multiprocessing context the chain runs on.

    ``fork`` where the platform offers it (cheapest: workers inherit the
    sequences), otherwise ``spawn``; an explicit *start_method* overrides
    the choice.  All worker arguments are spawn-safe, so every method the
    platform supports works.
    """
    methods = mp.get_all_start_methods()
    if start_method is None:
        start_method = "fork" if "fork" in methods else "spawn"
    if start_method not in methods:
        raise ConfigError(
            f"start method {start_method!r} not available here (have {methods})")
    return mp.get_context(start_method)


class PipeLink:
    """Border link over an OS pipe: one framed raw-byte message per border.

    Same wire format and ``send_border``/``recv_border`` interface as
    :class:`ShmRing`, so slab workers are transport-agnostic.  Sends
    cannot time out (the OS pipe buffer provides the back-pressure);
    receives poll with a timeout.
    """

    def __init__(self, recv_conn, send_conn, label: str = "pipelink") -> None:
        self._recv = recv_conn
        self._send = send_conn
        self.label = label

    def send_border(self, h: np.ndarray, e: np.ndarray, corner: int,
                    timeout: float | None = None) -> None:
        payload = HEADER_STRUCT.pack(int(h.size), int(corner)) + h.tobytes() + e.tobytes()
        self._send.send_bytes(payload)

    def recv_border(self, timeout: float | None = None) -> tuple[np.ndarray, np.ndarray, int]:
        if timeout is not None and not self._recv.poll(timeout):
            raise CommError(
                f"{self.label}: recv timed out after {timeout}s (producer "
                f"stalled or dead)")
        buf = self._recv.recv_bytes()
        rows, corner = HEADER_STRUCT.unpack_from(buf, 0)
        h = np.frombuffer(buf, dtype=DTYPE, count=rows, offset=HEADER_BYTES).copy()
        e = np.frombuffer(buf, dtype=DTYPE, count=rows,
                          offset=HEADER_BYTES + 4 * rows).copy()
        return h, e, int(corner)


@dataclass(frozen=True)
class ProcessChainResult:
    """Outcome of a real-process run (wall-clock, not virtual, time).

    ``tracer`` holds per-worker wall-clock intervals (actors ``worker0``,
    ``worker1``, ...; ``parent`` for a tier run inline) recorded through the
    :class:`~repro.device.trace.WallClockRecorder` adapter, so the same
    breakdown/utilisation/overlap queries work as for simulated runs.
    """

    best: BestCell
    wall_time_s: float
    cells: int
    workers: int
    partition: tuple[Slab, ...] = ()
    transport: str = "pipe"
    start_method: str = "fork"
    tracer: Tracer | None = None
    kernel: str = "scalar"
    #: Distributed-pruning accounting (zeros unless ``pruning`` was on):
    #: chain-wide totals plus per-worker ``(checked, pruned)`` pairs.
    pruning: bool = False
    blocks_checked: int = 0
    blocks_pruned: int = 0
    worker_blocks: tuple = ()
    #: Recovery accounting (zeros unless ``max_restarts`` allowed a resume):
    #: attempts resumed after a failure, and matrix rows swept again because
    #: they lay past the newest consistent checkpoint when the failure hit.
    restarts: int = 0
    rows_recomputed: int = 0
    #: Heuristic-tier fields: the requested mode, the tier that produced
    #: the reported score, and whether ``mode="auto"`` fell back to exact.
    mode: str = "exact"
    tier: str = "exact"
    escalated: bool = False
    #: Always 0: no engine skips blocks by band any more.
    #: ``perfbench/layers.py`` reads it, so it goes with the next change
    #: to the benchmark.
    blocks_skipped_band: int = 0
    #: DP dtype policy the run resolved to and its chain-wide
    #: narrow/wide block split (zeros on plain int32 runs).
    dp_dtype: str = "int32"
    blocks_narrow: int = 0
    blocks_wide: int = 0
    dtype_escalations: int = 0

    @property
    def score(self) -> int:
        return self.best.score if self.best.row >= 0 else 0

    @property
    def pruned_ratio(self) -> float:
        return self.blocks_pruned / self.blocks_checked if self.blocks_checked else 0.0

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


@dataclass(frozen=True)
class SlabOutcome:
    """What one slab sweep found: its best cell + prune/dtype counters."""

    best: BestCell
    blocks_checked: int = 0
    blocks_pruned: int = 0
    blocks_narrow: int = 0
    blocks_wide: int = 0
    dtype_escalations: int = 0


@dataclass(frozen=True)
class SlabTask:
    """One comparison's work order for one slab worker.

    *config* is the comparison's resolved
    :class:`~repro.sw.config.AlignConfig`; its ``block_rows``, ``kernel``
    and ``pruning`` drive the sweep.  *b_slab* is the worker's column
    slab of the reference and *n_cols* the full matrix width; *origin*
    is the parent's ``perf_counter``
    origin for wall-clock trace records.  The recovery fields resume the
    sweep at matrix row *start_row* from *h_init*/*f_init* (H/F of row
    ``start_row - 1`` across the slab) and name the per-attempt
    *checkpoints* area to publish into (attached on unpickle, closed
    after the task).  *fault_block* is the test-only crash hook, and
    *dp* is the narrow :class:`~repro.sw.constants.DpPolicy` (``None``
    for plain int32).
    """

    a_codes: np.ndarray
    b_slab: np.ndarray
    slab: Slab
    scoring: Scoring
    config: AlignConfig
    origin: float
    border_timeout_s: float
    n_cols: int
    collect_metrics: bool
    start_row: int = 0
    h_init: np.ndarray | None = None
    f_init: np.ndarray | None = None
    checkpoints: CheckpointArea | None = None
    checkpoint_blocks: int = 1
    fault_block: int | None = None
    dp: DpPolicy | None = None


@dataclass(frozen=True)
class SlabReport:
    """A slab worker's answer to one :class:`SlabTask`.

    *outcome* is ``None`` exactly when *error* (the worker's exception
    repr) is set.  *metrics* is the worker registry's
    :meth:`~repro.obs.registry.MetricsRegistry.snapshot` (``None`` unless
    the task asked for metrics) — a plain dict, so it crosses any start
    method's queue; the parent merges it into its own registry.
    *records* are the worker's wall-clock trace records.
    """

    worker: int
    outcome: SlabOutcome | None
    metrics: dict | None = None
    error: str | None = None
    records: list = field(default_factory=list)


def sweep_slab(
    task: SlabTask,
    recv_link,
    send_link,
    recorder: WallClockRecorder,
    progress: ProgressBoard,
    *,
    slot: int = 0,
    workspace: KernelWorkspace | None = None,
    scoreboard: SharedScoreboard | None = None,
    instruments: EngineInstruments | None = None,
) -> SlabOutcome:
    """One slab's sweep of one :class:`SlabTask` (the body of every
    real-process worker).

    *recv_link* / *send_link* are border transports (``None`` at the chain
    ends); the task's *fault_block* kills the process just before
    computing that block row (failure-injection tests).  Each block row
    goes through the shared :class:`~repro.sw.blocks.SlabSweep` step:
    rows pruned against the chain-wide
    :class:`~repro.comm.scoreboard.SharedScoreboard` at this worker's
    *slot* (stale reads are safe by monotonicity) are recorded as
    zero-length ``pruned`` spans.  The persistent worker's
    *workspace* is the batched kernel's scratch, and the profile is
    content-LRU-cached per process.

    Telemetry: *progress* is the shared-memory heartbeat board this
    worker beats into at every phase transition — ``rows_done`` carries
    the last *completed* matrix row, so the parent watchdog can report
    exactly where a stalled worker got to; *instruments* (optional, off
    the hot path when ``None``) receives per-block counters and sweep
    latencies (:mod:`repro.obs.instruments`).

    Recovery (INTERNALS.md section 9): with ``task.checkpoints`` this
    slab's DP state is published on the checkpoint ladder — after every
    ``checkpoint_blocks``-th block row, plus the final row — so a later
    attempt can resume; ``task.start_row``/``h_init``/``f_init`` resume
    the sweep from that published state.  The border contract is
    unchanged: every worker of an attempt resumes from the *same* row,
    so the first border a resumed worker receives is for rows
    ``[start_row, start_row + rows)`` and its first corner is
    ``h_init[-1]`` — exactly ``H[start_row-1, col0-1]`` of its right
    neighbour's view.

    DP dtype: ``task.dp`` is the narrow
    :class:`~repro.sw.constants.DpPolicy` the parent resolved for the
    whole chain; borders stay int32 on the wire.
    """
    a_codes, slab = task.a_codes, task.slab
    block_rows, border_timeout_s = task.config.block_rows, task.border_timeout_s
    m = int(a_codes.size)
    start_row = task.start_row
    if start_row > 0 and (task.h_init is None or task.f_init is None):
        raise CommError("resuming needs h_init and f_init")
    sweeper = SlabSweep(
        task.config, task.scoring, cached_profile(task.b_slab, task.scoring),
        slab.col0, slab.col1, m=m, n_cols=task.n_cols, dp=task.dp,
        scoreboard=scoreboard, slot=slot, workspace=workspace,
        instruments=instruments, h_top=task.h_init, f_top=task.f_init)
    prev_right_last = int(sweeper.h_top[-1]) if start_row > 0 else 0
    ckpt_stride = max(1, int(task.checkpoint_blocks)) * block_rows

    row_edges = list(range(start_row, m, block_rows)) + [m]
    for block_index, (r0, r1) in enumerate(zip(row_edges, row_edges[1:])):
        rows = r1 - r0
        if recv_link is not None:
            progress.beat(slot, r0, "wait")
            with recorder.span("wait"):
                h_left, e_left, corner = recv_link.recv_border(timeout=border_timeout_s)
            if h_left.size != rows:
                raise CommError(
                    f"border for rows [{r0}, {r1}) carried {h_left.size} rows")
            if instruments is not None:
                instruments.border_received(
                    h_left.nbytes + e_left.nbytes + HEADER_BYTES)
        else:
            corner = 0
            h_left = np.zeros(rows, dtype=DTYPE)
            e_left = np.full(rows, NEG_INF, dtype=DTYPE)

        if block_index == task.fault_block:
            os._exit(3)  # simulated hard crash: no exception, no result

        if sweeper.prune(r0, r1, h_left, corner):
            progress.beat(slot, r0, "pruned")
            with recorder.span("pruned"):
                result = sweeper.restart(r0, r1)
        else:
            progress.beat(slot, r0, "compute")
            with recorder.span("compute"):
                result = sweeper.sweep(a_codes[r0:r1], h_left, e_left, corner)
            if instruments is not None:
                _, span_start, span_end = recorder.records[-1]
                instruments.block_computed(span_end - span_start,
                                           cells=rows * slab.cols)
        sweeper.advance(result, r0)

        if send_link is not None:
            progress.beat(slot, r0, "send")
            with recorder.span("d2h"):
                send_link.send_border(result.h_right, result.e_right,
                                      prev_right_last, timeout=border_timeout_s)
            if instruments is not None:
                instruments.border_sent(
                    result.h_right.nbytes + result.e_right.nbytes + HEADER_BYTES)
            prev_right_last = int(result.h_right[-1])
        if task.checkpoints is not None and (r1 == m or r1 % ckpt_stride == 0):
            progress.beat(slot, r0, "checkpoint")
            counters = sweeper.counters()
            with recorder.span("checkpoint"):
                task.checkpoints.publish(
                    slot, r1, sweeper.h_top, sweeper.f_top, sweeper.best,
                    counters["blocks_checked"], counters["blocks_pruned"])
            if instruments is not None:
                instruments.checkpoint_published()
        progress.beat(slot, r1, "idle")
    progress.beat(slot, m, "done")
    return SlabOutcome(best=sweeper.best, **sweeper.counters())


def collect_results(
    result_queue,
    procs: Sequence,
    pending: set,
    deadline: float,
    describe=lambda key: f"worker {key}",
    *,
    fail_fast: bool = False,
):
    """Drain one :class:`SlabReport` per pending worker key, robustly.

    Polls the queue, watching the worker processes for silent deaths; a
    key whose process dies without reporting (grace period for in-flight
    messages) becomes a failure.  Returns ``(reports, failures)`` where
    *reports* maps key -> the worker's successful :class:`SlabReport` and
    *failures* is a list of ``(key, description, kind)`` tuples in key
    order, with *kind* one of ``"died"`` (process gone without a result),
    ``"error"`` (worker reported an exception) or ``"timeout"`` (no
    result by *deadline*).  The kind is what recovery keys off: only
    *died* workers are dropped from the partition.

    An already-expired *deadline* is handled deterministically: results
    that are sitting in the queue are still drained (``get_nowait``) and
    the blocking get's timeout is clamped to a small positive floor, so a
    late caller never passes a negative timeout down to the queue and
    never discards a result that had in fact arrived in time.

    With *fail_fast* the first failure ends the wait: the keys still
    pending are neither reported nor failed.  A caller that cannot
    recover uses it, because a dead worker's neighbours would otherwise
    hold the run until their border timeouts expire.
    """
    reports: dict = {}
    failures: list[tuple[int, str, str]] = []
    dead_since: dict = {}

    def accept(report: SlabReport) -> None:
        key = report.worker
        if key not in pending:
            return  # stale report from an earlier, failed run
        pending.discard(key)
        if report.error is not None:
            failures.append((key, f"{describe(key)}: {report.error}", "error"))
        else:
            reports[key] = report

    while pending and not (fail_fast and failures):
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            # Deadline elapsed: drain whatever already arrived, then
            # declare the rest timed out — deterministic even when the
            # caller's deadline was already in the past on entry.
            while pending:
                try:
                    accept(result_queue.get_nowait())
                except queue_mod.Empty:
                    break
            for key in sorted(pending):
                failures.append(
                    (key, f"{describe(key)}: no result before the timeout",
                     "timeout"))
            break
        try:
            report = result_queue.get(timeout=min(0.2, max(0.01, remaining)))
        except queue_mod.Empty:
            now = time.monotonic()
            newly_failed = []
            for key in sorted(pending):
                proc = procs[key]
                if proc.is_alive():
                    dead_since.pop(key, None)
                    continue
                first_seen = dead_since.setdefault(key, now)
                if now - first_seen >= _DEATH_GRACE_S:
                    newly_failed.append(key)
            for key in newly_failed:
                pending.discard(key)
                failures.append(
                    (key, f"{describe(key)}: died with exit code "
                          f"{procs[key].exitcode} before reporting a result",
                     "died"))
            if failures and not pending:
                break
            continue
        accept(report)
    return reports, sorted(failures)


def checkpoint_history_for(workers: int, capacity: int,
                           checkpoint_blocks: int) -> int:
    """Ring depth that keeps the laggard's newest row in every leader's ring.

    Adjacent slabs drift by at most *capacity* block rows (the border
    ring's depth bounds how far ahead a producer can run), so across a
    *workers*-long chain the spread is ``(workers - 1) * capacity`` block
    rows — ``ceil`` of that in checkpoint-ladder units, plus slack for
    the final-row entry and one in-flight publish.
    """
    per_link = -(-capacity // max(1, checkpoint_blocks))  # ceil division
    return max(4, (workers - 1) * per_link + 2)


def check_comparison(a_codes: np.ndarray, b_codes: np.ndarray, *,
                     workers: int) -> None:
    """Refuse sequences a *workers*-long chain cannot run (the config
    validated itself on construction)."""
    if a_codes.size == 0 or b_codes.size == 0:
        raise ConfigError("sequences must be non-empty")
    if b_codes.size < workers:
        raise ConfigError("matrix narrower than the worker count")


def publish_run(result: ProcessChainResult, *, backend: str,
                metrics: MetricsRegistry | None, events) -> None:
    """Close a successful real-process run: the run-level summary metrics
    and the ``run_end`` record."""
    if metrics is not None:
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
    events=None,
    **options,
) -> ProcessChainResult:
    """One comparison across *workers* real processes.

    A :class:`~repro.multigpu.pool.WorkerPool` with a lifetime of one
    comparison: every argument is validated first (each
    :class:`ConfigError` is raised before any process spawns), then the
    pool's first sweep spawns *workers* slab processes, the pool runs
    this comparison once and is closed on every exit path.  *weights*
    sizes slabs proportionally to per-worker speed (equal by default),
    *capacity* is the border ring depth, *transport* picks shared memory
    or pipes, *start_method* overrides the fork-else-spawn default.
    *config* and the :class:`~repro.sw.config.AlignConfig` field names
    in *options* (``block_rows=``, ``kernel=``, ``mode=``, ...) make the
    comparison's config; every other option means what it means on
    :meth:`WorkerPool.align <repro.multigpu.pool.WorkerPool.align>`.
    ``mode="banded"`` and ``"xdrop"`` run inline in the parent and spawn
    nothing; ``"auto"`` spawns the workers only when it escalates.

    *events* journals ``run_start``, the pool's ``worker_spawn`` and
    recovery records, and ``run_end``.  The result's ``wall_time_s``, the
    ``last_run_*`` gauges and ``run_end`` cover the whole call, worker
    spawn and teardown included; metrics and events carry
    ``backend="process"``.

    Raises :class:`ConfigError` on bad parameters and ``RuntimeError``
    when a worker fails or the run times out.
    """
    from .pool import WorkerPool  # the engine builds on this module

    t0 = time.perf_counter()
    cfg = resolve_config(config, **{n: options.pop(n) for n in CONFIG_FIELDS
                                    if n in options})
    check_comparison(a_codes, b_codes, workers=workers)
    # A lazy pool: every remaining check runs before its first sweep
    # spawns the workers, and a tier answered inline spawns none.
    with WorkerPool(workers, weights=weights, max_block_rows=cfg.block_rows,
                    capacity=capacity, transport=transport,
                    start_method=start_method,
                    border_timeout_s=border_timeout_s, events=events,
                    _backend="process", _lazy=True) as pool:
        result = pool.align(a_codes, b_codes, scoring, config=cfg,
                            _finalize_metrics=False, **options)
    result = replace(result, wall_time_s=time.perf_counter() - t0)
    publish_run(result, backend="process",
                metrics=options.get("metrics"), events=events)
    return result
