"""Structured event journal: append-only JSONL of run lifecycle events.

The telemetry subsystem's metrics (:mod:`repro.obs.registry`) answer
"how much / how fast"; the event journal answers "what happened, when,
to whom".  Every discrete lifecycle transition the supervisors see —
run start/end, worker spawns and deaths, checkpoint assembly, restart
attempts, heuristic and dtype escalations, slab rebalances, heartbeat
stalls — is appended as one JSON line carrying correlation ids
(``run_id`` / ``worker`` / ``attempt``), so a recovery or rebalance is
reconstructable after the fact from ``events.jsonl`` alone.

Design constraints:

* **Append-only, line-oriented.**  One event = one JSON object = one
  line, flushed immediately; a crash mid-run loses at most the event
  being written, never corrupts earlier ones.  :func:`read_events`
  tolerates a torn final line for exactly that reason.
* **Supervisor-side emission.**  Events are emitted by the parent
  process (the supervisors in :mod:`repro.multigpu.pool`,
  :mod:`repro.multigpu.chain` and the heartbeat watchdog), never from
  slab workers — the journal needs no cross-process synchronisation,
  only a thread lock (the watchdog and samplers run on parent threads).
* **Closed taxonomy.**  :data:`EVENT_KINDS` pins the vocabulary;
  emitting an unknown kind raises, so dashboards and the `mgsw top`
  renderer can rely on the set (INTERNALS.md section 13).
* **Bounded memory.**  The in-memory tail (:meth:`EventJournal.recent`,
  what ``/status`` serves) is a ring; the full history lives on disk
  when a path is given.
"""

from __future__ import annotations

import json
import threading
import time
import uuid
from collections import deque
from pathlib import Path
from typing import IO, Mapping

from ..errors import ObsError

#: Schema tag written into every event record.
EVENT_SCHEMA = "mgsw.telemetry.event/v1"

#: The closed event taxonomy (INTERNALS.md section 13).  Supervisors may
#: only emit these kinds; add here (and to the docs) before emitting a
#: new one.
EVENT_KINDS = (
    "run_start",            # a comparison began (backend, shape, config)
    "worker_spawn",         # a slab worker process started (pid)
    "worker_death",         # a worker died or errored (kind, detail)
    "checkpoint",           # supervisor assembled a consistent resume row
    "restart_attempt",      # a recovery attempt began (resume row, survivors)
    "heuristic_escalation", # mode=auto fell back to the exact tier
    "dtype_escalation",     # narrow DP blocks were recomputed in int32
    "slab_rebalance",       # pool weights updated from observed rates
    "stall",                # heartbeat watchdog flagged a silent worker
    "run_end",              # the comparison finished (score, wall time)
    # Serving-layer job lifecycle (INTERNALS.md section 14).  Each carries
    # a ``job`` correlation id alongside the journal's run id.
    "job_submit",           # a job passed admission and was enqueued
    "job_reject",           # admission control refused a job (429)
    "job_cache_hit",        # a job was answered from the result cache
    "job_start",            # the scheduler dispatched a job onto a pool
    "job_end",              # a job finished (status, score, latency)
)

#: Default in-memory tail length (what ``/status`` and `mgsw top` show).
DEFAULT_RECENT = 256


class EventJournal:
    """Append-only journal of lifecycle events for one (or more) runs.

    Parameters
    ----------
    path:
        Optional JSONL spill file (conventionally ``events.jsonl``).
        Opened in append mode so a journal can span a whole pool
        lifetime; ``None`` keeps the journal in memory only.
    run_id:
        Correlation id stamped on every event (defaults to a fresh
        UUID hex; the CLI passes the manifest's run id so the journal,
        manifest and timeline correlate).
    recent:
        In-memory ring length for :meth:`recent`.
    """

    def __init__(self, path: str | Path | None = None, *,
                 run_id: str | None = None,
                 recent: int = DEFAULT_RECENT) -> None:
        if recent <= 0:
            raise ObsError("recent must be positive")
        self.run_id = run_id if run_id is not None else uuid.uuid4().hex
        self.path = Path(path) if path is not None else None
        self._lock = threading.Lock()
        self._recent: deque[dict] = deque(maxlen=recent)
        self._count = 0
        self._kind_counts: dict[str, int] = {}
        self._fh: IO[str] | None = None
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "a", encoding="utf-8")

    # -- emission -------------------------------------------------------------
    def emit(self, event: str, *, worker: int | None = None,
             attempt: int | None = None, **fields) -> dict:
        """Append one event; returns the record written.

        *event* must come from :data:`EVENT_KINDS`.  Extra keyword
        *fields* land in the record verbatim (they must be
        JSON-serialisable); ``worker``/``attempt`` are the correlation
        ids and may be ``None`` for run-scoped events.
        """
        if event not in EVENT_KINDS:
            raise ObsError(
                f"unknown event kind {event!r}; expected one of {EVENT_KINDS}")
        record: dict = {
            "schema": EVENT_SCHEMA,
            "event": event,
            "run_id": self.run_id,
            "ts_unix": time.time(),
        }
        if worker is not None:
            record["worker"] = int(worker)
        if attempt is not None:
            record["attempt"] = int(attempt)
        for key, value in fields.items():
            if value is not None:
                record[key] = value
        json.dumps(record)  # fail fast on non-serialisable fields
        with self._lock:
            record["seq"] = self._count
            self._count += 1
            self._kind_counts[event] = self._kind_counts.get(event, 0) + 1
            self._recent.append(record)
            if self._fh is not None:
                self._fh.write(json.dumps(record, sort_keys=True) + "\n")
                self._fh.flush()
        return record

    # -- queries --------------------------------------------------------------
    def recent(self, n: int | None = None) -> list[dict]:
        """The newest *n* events (all retained ones when ``None``), oldest
        first — the tail ``/status`` serves."""
        with self._lock:
            events = list(self._recent)
        return events if n is None else events[-n:]

    def count(self, event: str | None = None) -> int:
        """Events emitted so far — total, or of one *kind*.

        Kind counts are maintained as lifetime counters alongside the
        total, so they stay honest after the bounded in-memory ring has
        evicted old records (counting the ring would silently under-report
        on any journal older than ``recent`` events)."""
        with self._lock:
            if event is None:
                return self._count
            return self._kind_counts.get(event, 0)

    # -- lifecycle ------------------------------------------------------------
    def close(self) -> None:
        """Flush and close the spill file (idempotent; in-memory tail
        stays readable)."""
        with self._lock:
            if self._fh is not None:
                try:
                    self._fh.close()
                finally:
                    self._fh = None

    def __enter__(self) -> "EventJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_events(path: str | Path) -> list[dict]:
    """Load an ``events.jsonl`` file, tolerating a torn final line.

    The journal flushes per event, but a hard crash can still leave a
    partial last line; it is skipped rather than failing the whole read
    (the append-only format makes every earlier line complete).
    """
    events: list[dict] = []
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    events.append(json.loads(line))
                except json.JSONDecodeError:
                    continue  # torn tail from a crash mid-write
    except FileNotFoundError:
        return []
    return events


def validate_event(record: Mapping) -> None:
    """Raise :class:`ObsError` when *record* is not a valid event."""
    problems = []
    if record.get("schema") != EVENT_SCHEMA:
        problems.append(f"schema must be {EVENT_SCHEMA!r}")
    if record.get("event") not in EVENT_KINDS:
        problems.append(f"unknown event kind {record.get('event')!r}")
    if not isinstance(record.get("run_id"), str):
        problems.append("run_id must be a string")
    if not isinstance(record.get("ts_unix"), (int, float)):
        problems.append("ts_unix must be a number")
    if problems:
        raise ObsError("invalid event: " + "; ".join(problems))
