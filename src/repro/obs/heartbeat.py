"""Stall policy over the progress board, fed by the time-series sampler.

The real-process engines already notice *dead* workers (liveness polls)
and *wedged transports* (border timeouts), but both are slow, and
neither says what the worker was doing when it went quiet.  The
:class:`HeartbeatMonitor` closes the loop: slab workers beat into a
:class:`~repro.comm.progress.ProgressBoard` at every phase transition,
the :class:`~repro.obs.timeseries.TimeSeriesSampler` — the one thread
that reads the board — hands every frame it builds to the monitor, and
the monitor acts on the frame's ``stalled`` flags (which use its
threshold): live warnings, ``stall`` events, the hard-stall kill, and
the worker-death diagnostics with the stalled actor's last completed row
and phase (:meth:`HeartbeatMonitor.describe` feeds
:func:`~repro.multigpu.procchain.collect_results`'s ``describe`` hook).

Nothing here writes shared memory (see :mod:`repro.comm.progress` for
why stale reads are safe), so the watchdog can never slow down or wedge
a worker — observability stays off the hot path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..comm.progress import ProgressBoard

#: Default seconds of silence before a started worker counts as stalled.
DEFAULT_STALL_AFTER_S = 5.0


@dataclass(frozen=True)
class StallReport:
    """One stalled worker, as the watchdog saw it."""

    worker: int
    rows_done: int
    phase: str
    silent_s: float

    def describe(self) -> str:
        return (f"worker {self.worker} stalled in phase {self.phase!r} "
                f"(last completed row {self.rows_done}, "
                f"silent {self.silent_s:.1f}s)")


class HeartbeatMonitor:
    """Stall policy for one attempt, fed frames by a time-series sampler.

    Attach it with
    ``TimeSeriesSampler.attach(board, ..., watchdog=monitor)``: every
    frame then marks a worker ``stalled`` by this monitor's threshold,
    and :meth:`observe` acts on the frame.

    Parameters
    ----------
    board:
        The progress board the workers beat into (read once per
        :meth:`describe`, for failure diagnostics).
    stall_after_s:
        Seconds of silence after which a *started* worker is flagged
        (workers that never beat are the liveness poll's problem — they
        may still be importing).  Detection lags true silence by at most
        the sampler's interval.
    on_stall:
        Optional callback invoked once per worker per stall episode with
        a :class:`StallReport` (e.g. the CLI's live stderr warning).  A
        worker that resumes beating is re-armed.
    hard_stall_s:
        Optional escalation threshold (must exceed ``stall_after_s``):
        a worker silent this long is considered *unrecoverable in place*
        and ``on_hard_stall`` fires once for it — the recovery-enabled
        engines pass a callback that kills the wedged process so the
        normal death path (and checkpoint recovery) takes over.  Hard
        stalls do not re-arm: killing is one-way.
    on_hard_stall:
        Callback for hard stalls (requires ``hard_stall_s``).
    metrics:
        Optional :class:`~repro.obs.registry.MetricsRegistry`; the
        monitor maintains ``worker_rows_done{device=...}`` gauges and a
        ``worker_stalls`` counter on it.
    events:
        Optional :class:`~repro.obs.events.EventJournal`; the monitor
        emits exactly one ``stall`` event per stall episode (same
        re-arm semantics as *on_stall*: a worker that resumes beating
        and stalls again produces a new event), with ``hard=True`` on
        the one-shot hard-stall escalation.
    """

    def __init__(
        self,
        board: ProgressBoard,
        *,
        stall_after_s: float = DEFAULT_STALL_AFTER_S,
        on_stall: Callable[[StallReport], None] | None = None,
        hard_stall_s: float | None = None,
        on_hard_stall: Callable[[StallReport], None] | None = None,
        metrics=None,
        events=None,
    ) -> None:
        if stall_after_s <= 0:
            raise ValueError("stall_after_s must be positive")
        if hard_stall_s is not None and hard_stall_s <= stall_after_s:
            raise ValueError("hard_stall_s must exceed stall_after_s")
        self.board = board
        self.stall_after_s = stall_after_s
        self.hard_stall_s = hard_stall_s
        self.on_stall = on_stall
        self.on_hard_stall = on_hard_stall
        self._metrics = metrics
        self._events = events
        self._flagged: set[int] = set()
        self._hard_flagged: set[int] = set()

    @staticmethod
    def stalled(frame) -> list[StallReport]:
        """The workers *frame* (a
        :class:`~repro.obs.timeseries.TimelineFrame`) marks stalled."""
        return [StallReport(w.worker, w.rows_done, w.phase, w.silent_s)
                for w in frame.workers if w.stalled]

    def describe(self, worker: int) -> str:
        """One-line heartbeat diagnosis for *worker* — appended to the
        engine's worker-death error messages."""
        sample = self.board.read(worker)
        if not sample.started:
            return "never heartbeat"
        return (f"last completed row {sample.rows_done}, "
                f"phase {sample.phase!r}, "
                f"silent {sample.silent_s():.1f}s")

    def observe(self, frame) -> None:
        """Act on one sampled frame: start and end stall episodes, fire
        the hard-stall escalation, and refresh the row gauges."""
        reports = {r.worker: r for r in self.stalled(frame)}
        for worker, report in reports.items():
            if worker not in self._flagged:
                self._flagged.add(worker)
                if self._metrics is not None:
                    self._metrics.counter(
                        "worker_stalls",
                        help="heartbeat silences beyond the stall threshold",
                    ).inc(1, device=f"worker{worker}")
                if self._events is not None:
                    self._events.emit(
                        "stall", worker=worker, phase=report.phase,
                        rows_done=report.rows_done,
                        silent_s=round(report.silent_s, 3))
                if self.on_stall is not None:
                    self.on_stall(report)
        # Re-arm workers that resumed beating.
        self._flagged &= set(reports)
        if self.hard_stall_s is not None:
            for worker, report in reports.items():
                if (report.silent_s >= self.hard_stall_s
                        and worker not in self._hard_flagged):
                    self._hard_flagged.add(worker)
                    if self._metrics is not None:
                        self._metrics.counter(
                            "worker_hard_stalls",
                            help="silences past the hard-stall threshold "
                                 "(worker presumed wedged)",
                        ).inc(1, device=f"worker{worker}")
                    if self._events is not None:
                        self._events.emit(
                            "stall", worker=worker, phase=report.phase,
                            rows_done=report.rows_done,
                            silent_s=round(report.silent_s, 3), hard=True)
                    if self.on_hard_stall is not None:
                        self.on_hard_stall(report)
        if self._metrics is not None:
            gauge = self._metrics.gauge(
                "worker_rows_done", help="rows completed per worker (live)")
            for w in frame.workers:
                gauge.set(w.rows_done, device=f"worker{w.worker}")
