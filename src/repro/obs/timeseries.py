"""Live time-series sampling over the shared-memory progress board.

All earlier telemetry (INTERNALS.md section 8) is post-hoc: one final
metrics snapshot, one manifest, one trace — nothing says how a running
comparison is *going*.  The :class:`TimeSeriesSampler` closes that gap:
a background thread in the supervisor periodically (default 250 ms)
reads the :class:`~repro.comm.progress.ProgressBoard` plus a delta of
the local :class:`~repro.obs.registry.MetricsRegistry` and appends one
:class:`TimelineFrame` to a bounded ring — per-worker rows/s and phase,
GCUPS-so-far, prune rate, restart count, and an ETA
(rows remaining ÷ smoothed aggregate rate).  It is the only thread
that reads the board: an attached
:class:`~repro.obs.heartbeat.HeartbeatMonitor` sets the frames' stall
threshold and is handed every frame to act on.

Sampling is strictly read-only on the shared memory (the board is
single-writer per slot; see :mod:`repro.comm.progress` for why stale
reads are safe) and every registry read is a plain dictionary lookup in
the *parent's* registry, so arming the sampler costs the workers
nothing — the X13 benchmark pins the combined sampler + journal + HTTP
endpoint overhead under 5% wall clock.

Lifecycle: one sampler object spans a whole run, including recovery
re-partitions — the supervisor calls :meth:`attach` at the top of each
attempt (fresh board geometry, fresh attempt number) and
:meth:`detach` when the attempt ends; the frame ring and the JSONL
spill (``timeline.jsonl``) accumulate across attempts, so the timeline
of a recovered run shows the dip and the resume.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from dataclasses import asdict, dataclass, field
from dataclasses import fields as dataclass_fields
from pathlib import Path
from typing import IO, Sequence

from ..errors import ObsError
from .heartbeat import DEFAULT_STALL_AFTER_S

#: Default sampling period (seconds).
DEFAULT_INTERVAL_S = 0.25

#: Default frame-ring depth: 10 minutes of history at the default period.
DEFAULT_RING = 2400

#: Schema tag written into every spilled frame.
FRAME_SCHEMA = "mgsw.telemetry.frame/v1"

#: Exponential-moving-average weight for the per-worker rate estimate:
#: high enough to follow a real rate change within a few samples, low
#: enough that one scheduler hiccup does not swing the ETA.
RATE_EMA_ALPHA = 0.35


@dataclass(frozen=True)
class WorkerFrame:
    """One worker's state inside a :class:`TimelineFrame`."""

    worker: int
    rows_done: int
    phase: str
    rows_per_s: float      #: smoothed (EMA) matrix rows completed per second
    silent_s: float        #: seconds since the worker's last heartbeat
    stalled: bool          #: silent beyond the watchdog's stall threshold


@dataclass(frozen=True)
class TimelineFrame:
    """One timestamped sample of the whole chain's progress."""

    t_s: float             #: seconds since the sampler first attached
    ts_unix: float         #: wall-clock timestamp of the sample
    attempt: int           #: recovery attempt the frame was sampled in
    rows_done: int         #: sum of per-worker completed rows
    rows_target: int       #: m x workers — the finish line for rows_done
    rows_per_s: float      #: smoothed aggregate rate (sum of worker EMAs)
    eta_s: float | None    #: rows remaining / rate (None until a rate exists)
    gcups: float           #: cells completed so far / elapsed, in 1e9 units
    prune_rate: float      #: blocks_pruned / blocks checked (0.0 early)
    restarts: int          #: worker_restarts counter (registry delta source)
    workers: tuple[WorkerFrame, ...] = field(default_factory=tuple)

    def to_json_dict(self) -> dict:
        doc = asdict(self)
        doc["schema"] = FRAME_SCHEMA
        doc["workers"] = [asdict(w) for w in self.workers]
        return doc


#: Constructor fields of the two frame dataclasses, for forward-compat
#: filtering: a *newer* writer may add fields this reader does not know;
#: they are dropped rather than blowing up ``WorkerFrame(**w)`` with a
#: ``TypeError`` (which ``read_timeline`` would misread as a torn tail
#: and silently drop the whole file).  Missing *known* fields still
#: raise ``KeyError``/``TypeError`` — that really is a torn line.
_WORKER_FIELDS = frozenset(f.name for f in dataclass_fields(WorkerFrame))
_FRAME_FIELDS = frozenset(
    f.name for f in dataclass_fields(TimelineFrame)) - {"workers"}


def frame_from_json(doc: dict) -> TimelineFrame:
    """Rebuild a :class:`TimelineFrame` from one spilled JSONL record.

    Tolerates fields added by a newer schema (old readers must keep
    working on new writers' files); unknown keys at either level are
    ignored.
    """
    workers = tuple(
        WorkerFrame(**{k: v for k, v in w.items() if k in _WORKER_FIELDS})
        for w in doc.get("workers", ()))
    fields = {k: doc[k] for k in _FRAME_FIELDS}
    return TimelineFrame(workers=workers, **fields)


def read_timeline(path: str | Path) -> list[TimelineFrame]:
    """Load a ``timeline.jsonl`` spill, tolerating a torn final line."""
    frames: list[TimelineFrame] = []
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    frames.append(frame_from_json(json.loads(line)))
                except (json.JSONDecodeError, KeyError, TypeError):
                    continue  # torn tail from a crash mid-write
    except FileNotFoundError:
        return []
    return frames


class TimeSeriesSampler:
    """Background sampler: ProgressBoard + registry delta -> frame ring.

    Parameters
    ----------
    interval_s:
        Sampling period (default 250 ms).
    ring:
        Bounded frame-ring depth; the oldest frames fall off (the JSONL
        spill, when armed, keeps the full history).
    spill:
        Optional ``timeline.jsonl`` path — every frame is appended as
        one JSON line as it is sampled.
    registry:
        Optional :class:`~repro.obs.registry.MetricsRegistry` (the
        *supervisor's* registry) read for the prune rate and the
        restart count.  Worker-side counters only merge into it at run
        end, so mid-run these reflect what the supervisor has seen —
        restarts update on every recovery, prune totals at completion.
    """

    def __init__(self, *, interval_s: float = DEFAULT_INTERVAL_S,
                 ring: int = DEFAULT_RING,
                 spill: str | Path | None = None,
                 registry=None) -> None:
        if interval_s <= 0:
            raise ObsError("interval_s must be positive")
        if ring <= 0:
            raise ObsError("ring must be positive")
        self.interval_s = interval_s
        self._registry = registry
        self._frames: deque[TimelineFrame] = deque(maxlen=ring)
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._spill_path = Path(spill) if spill is not None else None
        self._spill_fh: IO[str] | None = None
        if self._spill_path is not None:
            self._spill_path.parent.mkdir(parents=True, exist_ok=True)
            self._spill_fh = open(self._spill_path, "a", encoding="utf-8")
        # Per-attachment state (set by attach()).
        self._board = None
        self._watchdog = None
        self._attempt = 0
        self._rows_target = 0
        self._cols_per_worker: tuple[int, ...] = ()
        self._origin: float | None = None     # first attach, monotonic
        self._prev: list[tuple[float, int]] = []   # (t, rows) per worker
        self._ema: list[float | None] = []

    # -- attachment lifecycle ------------------------------------------------
    @property
    def attached(self) -> bool:
        return self._board is not None

    def attach(self, board, *, rows: int,
               cols_per_worker: Sequence[int],
               attempt: int = 0, watchdog=None) -> "TimeSeriesSampler":
        """Start sampling *board* for one attempt.

        *rows* is the matrix height every slab sweeps (``rows_done`` per
        worker finishes at it); *cols_per_worker* the slab widths (for
        cells-so-far -> GCUPS).  *watchdog* (a
        :class:`~repro.obs.heartbeat.HeartbeatMonitor`) sets the
        frames' stall threshold — :data:`DEFAULT_STALL_AFTER_S` without
        one — and observes every frame of this attempt.  Re-attaching
        after :meth:`detach` keeps the accumulated frames and spill —
        recovery attempts extend one timeline.
        """
        if self._board is not None:
            raise ObsError("sampler already attached; detach() first")
        if len(cols_per_worker) != board.n_slots:
            raise ObsError("cols_per_worker length must match board slots")
        self._board = board
        self._watchdog = watchdog
        self._attempt = int(attempt)
        self._rows_target = int(rows) * board.n_slots
        self._cols_per_worker = tuple(int(c) for c in cols_per_worker)
        if self._origin is None:
            self._origin = time.monotonic()
        now = time.monotonic()
        self._prev = [(now, 0)] * board.n_slots
        self._ema = [None] * board.n_slots
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="mgsw-timeseries", daemon=True)
        self._thread.start()
        return self

    def detach(self) -> None:
        """Stop the sampling thread and take one final frame (idempotent).

        The final sample means a completed run's last frame always shows
        ``rows_done == rows_target`` even when the run finished between
        periodic wake-ups.
        """
        if self._board is None:
            return
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self.sample_once()
        self._board = None
        self._watchdog = None

    def close(self) -> None:
        """Detach (if needed) and close the spill file."""
        self.detach()
        if self._spill_fh is not None:
            try:
                self._spill_fh.close()
            finally:
                self._spill_fh = None

    def __enter__(self) -> "TimeSeriesSampler":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- sampling ------------------------------------------------------------
    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.sample_once()

    def sample_once(self) -> TimelineFrame | None:
        """Take one frame now (the thread's body; callable directly in
        tests and from :meth:`detach` for the final frame)."""
        board = self._board
        if board is None:
            return None
        watchdog = self._watchdog
        stall_after_s = (DEFAULT_STALL_AFTER_S if watchdog is None
                         else watchdog.stall_after_s)
        now = time.monotonic()
        samples = board.snapshot()
        workers: list[WorkerFrame] = []
        rows_total = 0
        agg_rate = 0.0
        cells_done = 0
        for i, s in enumerate(samples):
            prev_t, prev_rows = self._prev[i]
            dt = now - prev_t
            inst = (s.rows_done - prev_rows) / dt if dt > 0 else 0.0
            ema = self._ema[i]
            ema = inst if ema is None else \
                RATE_EMA_ALPHA * inst + (1.0 - RATE_EMA_ALPHA) * ema
            self._ema[i] = ema
            self._prev[i] = (now, s.rows_done)
            silent = s.silent_s(now)
            workers.append(WorkerFrame(
                worker=i, rows_done=s.rows_done, phase=s.phase,
                rows_per_s=round(ema, 3), silent_s=round(silent, 3),
                stalled=bool(s.started and s.phase != "done"
                             and silent >= stall_after_s)))
            rows_total += s.rows_done
            if s.phase != "done":
                agg_rate += max(0.0, ema)
            cells_done += s.rows_done * self._cols_per_worker[i]

        elapsed = now - (self._origin if self._origin is not None else now)
        remaining = max(0, self._rows_target - rows_total)
        if remaining == 0:
            eta: float | None = 0.0
        elif agg_rate > 0:
            eta = remaining / agg_rate
        else:
            eta = None
        prune_rate = 0.0
        restarts = 0
        if self._registry is not None:
            computed = self._registry.counter("blocks_computed").total()
            pruned = self._registry.counter("blocks_pruned").total()
            if computed + pruned:
                prune_rate = pruned / (computed + pruned)
            restarts = int(self._registry.counter("worker_restarts").total())
        frame = TimelineFrame(
            t_s=round(elapsed, 4),
            ts_unix=time.time(),
            attempt=self._attempt,
            rows_done=rows_total,
            rows_target=self._rows_target,
            rows_per_s=round(agg_rate, 3),
            eta_s=None if eta is None else round(eta, 3),
            gcups=round(cells_done / elapsed / 1e9, 6) if elapsed > 0 else 0.0,
            prune_rate=round(prune_rate, 4),
            restarts=restarts,
            workers=tuple(workers),
        )
        with self._lock:
            self._frames.append(frame)
            if self._spill_fh is not None:
                self._spill_fh.write(
                    json.dumps(frame.to_json_dict(), sort_keys=True) + "\n")
                self._spill_fh.flush()
        if watchdog is not None:
            watchdog.observe(frame)
        return frame

    # -- queries -------------------------------------------------------------
    def frames(self) -> tuple[TimelineFrame, ...]:
        """Every retained frame, oldest first."""
        with self._lock:
            return tuple(self._frames)

    def current(self) -> TimelineFrame | None:
        """The newest frame (``None`` before the first sample)."""
        with self._lock:
            return self._frames[-1] if self._frames else None

    def eta_s(self) -> float | None:
        """The newest frame's ETA estimate."""
        frame = self.current()
        return frame.eta_s if frame is not None else None
