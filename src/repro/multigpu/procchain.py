"""Real-process chain: the paper's dataflow on actual parallel workers.

Everything else in :mod:`repro.multigpu` runs on a simulated clock; the
real-process engine executes the same column-slab / border-column
dataflow across **real OS processes**, one per slab.  This module holds
the pieces of that dataflow; :class:`repro.multigpu.pool.WorkerPool` is
the engine that runs them, and
:func:`~repro.multigpu.front.align_multi_process` is a pool with a
lifetime of one exact sweep.  Two border transports implement the
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
pool's job; a :class:`SlabTask` carries the slab's
:class:`~repro.sw.blocks.RowState` to resume from and the
:class:`~repro.multigpu.checkpoint.CheckpointArea` to publish into.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import queue as queue_mod
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..comm.progress import ProgressBoard
from ..comm.scoreboard import SharedScoreboard
from ..comm.shmring import HEADER_BYTES, HEADER_STRUCT
from ..device.trace import WallClockRecorder
from ..errors import CommError, ConfigError
from ..obs.instruments import EngineInstruments
from ..seq.scoring import Scoring
from ..sw.blocks import RowState, SlabSweep
from ..sw.config import AlignConfig
from ..sw.constants import DTYPE, NEG_INF, DpPolicy
from ..sw.kernel import BestCell, cached_profile
from ..sw.tiers import SweepTally
from .checkpoint import CHECKPOINT_BLOCKS, CheckpointArea
# The front door (result type, checks, align_multi_process) loads without
# this module; its names stay importable from here.
from .front import (TRANSPORTS, ProcessChainResult,  # noqa: F401
                    align_multi_process)
from .partition import Slab

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
class SlabOutcome:
    """What one slab sweep found: its best cell and its
    :class:`~repro.sw.tiers.SweepTally`."""

    best: BestCell
    tally: SweepTally = SweepTally()


@dataclass(frozen=True)
class SlabTask:
    """One comparison's work order for one slab worker.

    *config* is the comparison's resolved
    :class:`~repro.sw.config.AlignConfig`; its ``block_rows``, ``kernel``
    and ``pruning`` drive the sweep.  *b_slab* is the worker's column
    slab of the reference and *n_cols* the full matrix width; *origin*
    is the parent's ``perf_counter``
    origin for wall-clock trace records.  The recovery fields are
    *resume*, the slab's slice of the
    :class:`~repro.sw.blocks.RowState` to resume from (``None``: start
    at row 0), and the per-attempt *checkpoints* area to publish into
    (attached on unpickle, closed after the task).  *fault_block* is
    the test-only crash hook, and *dp* is the narrow
    :class:`~repro.sw.constants.DpPolicy` (``None`` for plain int32).
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
    resume: RowState | None = None
    checkpoints: CheckpointArea | None = None
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
    scoreboard: SharedScoreboard | None = None,
    instruments: EngineInstruments | None = None,
) -> SlabOutcome:
    """One slab's sweep of one :class:`SlabTask` (the body of every
    real-process worker).

    *recv_link* / *send_link* are border transports (``None`` at the chain
    ends); the task's *fault_block* kills the process just before
    computing that block row (failure-injection tests).  Each block row
    is one :meth:`~repro.sw.blocks.SlabSweep.step`, which prunes the
    row, or the dead cells of its live window, against the chain-wide
    :class:`~repro.comm.scoreboard.SharedScoreboard` at this worker's
    *slot* (stale reads are safe by monotonicity); a pruned row is
    recorded as a ``pruned`` span, a swept one as ``compute``.  The
    profile is content-LRU-cached per process.

    Telemetry: *progress* is the shared-memory heartbeat board this
    worker beats into at every phase transition — ``rows_done`` carries
    the last *completed* matrix row, so the parent watchdog can report
    exactly where a stalled worker got to; *instruments* (optional, off
    the hot path when ``None``) receives per-block counters and sweep
    latencies (:mod:`repro.obs.instruments`).

    Recovery (INTERNALS.md section 9): with ``task.checkpoints`` this
    slab's :class:`~repro.sw.blocks.RowState` is published on the
    checkpoint ladder — after every
    :data:`~repro.multigpu.checkpoint.CHECKPOINT_BLOCKS`-th block row,
    plus the final row — so a later attempt can resume; ``task.resume``
    resumes the sweep from such a state.  The border contract is
    unchanged: every worker of an attempt resumes from the *same* row
    ``R``, so the first border a resumed worker receives is for rows
    ``[R, R + rows)`` and its first corner
    (:attr:`~repro.sw.blocks.SlabSweep.corner_out`) is the last H of its
    resume slice — exactly ``H[R-1, col0-1]`` of its right neighbour's
    view.

    DP dtype: ``task.dp`` is the narrow
    :class:`~repro.sw.constants.DpPolicy` the parent resolved for the
    whole chain; borders stay int32 on the wire.
    """
    a_codes, slab = task.a_codes, task.slab
    block_rows, border_timeout_s = task.config.block_rows, task.border_timeout_s
    m = int(a_codes.size)
    sweeper = SlabSweep(
        task.config, task.scoring, cached_profile(task.b_slab, task.scoring),
        slab.col0, slab.col1, m=m, n_cols=task.n_cols, dp=task.dp,
        scoreboard=scoreboard, slot=slot, instruments=instruments,
        resume=task.resume)
    ckpt_stride = CHECKPOINT_BLOCKS * block_rows

    row_edges = list(range(sweeper.row, m, block_rows)) + [m]
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

        progress.beat(slot, r0, "compute")
        with recorder.span("compute"):
            result, swept = sweeper.step(r0, r1, a_codes[r0:r1], h_left,
                                         e_left, corner)
        if swept is None:  # the whole row pruned: a pruned span
            recorder.records[-1] = ("pruned", *recorder.records[-1][1:])
        elif instruments is not None:
            cells, seconds = swept
            instruments.block_computed(seconds, cells=cells)
        h_right, e_right, corner_out = sweeper.advance(result, r0)

        if send_link is not None:
            progress.beat(slot, r0, "send")
            with recorder.span("d2h"):
                send_link.send_border(h_right, e_right, corner_out,
                                      timeout=border_timeout_s)
            if instruments is not None:
                instruments.border_sent(
                    h_right.nbytes + e_right.nbytes + HEADER_BYTES)
        if task.checkpoints is not None and (r1 == m or r1 % ckpt_stride == 0):
            progress.beat(slot, r0, "checkpoint")
            with recorder.span("checkpoint"):
                task.checkpoints.publish(slot, sweeper.state())
            if instruments is not None:
                instruments.checkpoint_published()
        progress.beat(slot, r1, "idle")
    progress.beat(slot, m, "done")
    return SlabOutcome(best=sweeper.best, tally=sweeper.tally())


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
