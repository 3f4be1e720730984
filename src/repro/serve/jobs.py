"""Job model and admission-controlled queue for the serving layer.

One job = one alignment request: two encoded sequences plus the
alignment configuration (scoring, tier, dtype).  The :class:`JobQueue`
is the daemon's front door — it enforces **admission control** (a
bounded total queue depth and a per-tenant in-flight cap, refusing
excess work with 429 semantics instead of letting latency grow without
bound) and delegates *ordering* to the
:class:`~repro.serve.scheduler.FairScheduler` so a burst from one
tenant cannot monopolise the pools and short jobs are not starved
behind megabase runs (INTERNALS.md section 14).

The cache key (:meth:`JobSpec.cache_key`) is derived from the
manifest-style SHA-256 content digests of both sequences plus the
scoring parameters and the config's
:meth:`~repro.sw.config.AlignConfig.answer_key` — so two submissions
of the same popular comparison collapse onto one computed result
whatever file paths or tenants they came from.
"""

from __future__ import annotations

import hashlib
import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..errors import ConfigError, ServeError
from ..seq.scoring import Scoring
from ..sw.config import AlignConfig
from ..sw.tiers import BANDED_MODES
from .scheduler import LANES, FairScheduler

#: Job lifecycle states (a record only ever moves left to right).
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

#: Below this many *effective* cells a job rides the short (priority)
#: lane — about a 2k x 2k exact comparison, or any banded/X-drop job
#: whose band area stays small.
DEFAULT_SHORT_CELLS = 4_000_000

#: Admission defaults: total queued jobs, and queued+running per tenant.
DEFAULT_QUEUE_DEPTH = 64
DEFAULT_TENANT_CAP = 16


class AdmissionError(ServeError):
    """A job was refused at the front door (HTTP-style ``code`` 429)."""

    def __init__(self, reason: str, *, code: int = 429) -> None:
        super().__init__(reason)
        self.code = code
        self.reason = reason


@dataclass(frozen=True, kw_only=True)
class JobSpec(AlignConfig):
    """Everything needed to run (and cache) one alignment job: the
    sequences, the scoring scheme and the
    :class:`~repro.sw.config.AlignConfig` knobs (serve runs shorter
    blocks by default), plus the serving fields.

    Construction is the submit-time check: a bad field is refused before
    the job is queued, not later as an executor failure.  ``kernel="auto"``
    is kept as submitted; the executor resolves it on its host.
    """

    a_codes: np.ndarray
    b_codes: np.ndarray
    scoring: Scoring
    tenant: str = "default"
    block_rows: int = 256
    use_cache: bool = True
    lane_override: str | None = None   #: force a lane ("short"/"long")

    def __post_init__(self) -> None:
        super().__post_init__()
        if not isinstance(self.use_cache, bool):
            raise ConfigError(
                f"use_cache must be a bool, got {self.use_cache!r}")
        if self.a_codes.size == 0 or self.b_codes.size == 0:
            raise ConfigError("sequences must be non-empty")
        if not self.tenant:
            raise ConfigError("tenant must be a non-empty string")
        if self.lane_override is not None and self.lane_override not in LANES:
            raise ConfigError(
                f"unknown lane {self.lane_override!r}; expected one of {LANES}")

    @property
    def cells(self) -> int:
        """Full matrix area (the exact-tier cost)."""
        return int(self.a_codes.size) * int(self.b_codes.size)

    @property
    def effective_cells(self) -> int:
        """Cost estimate the scheduler classifies and weighs by.

        The banded tier only sweeps the static band, X-drop typically
        terminates after a small extension — so a heuristic-tier job
        over a megabase pair is still *short* work, and must ride the
        short lane (the whole point of the priority lanes).
        """
        m, n = int(self.a_codes.size), int(self.b_codes.size)
        if self.mode in BANDED_MODES:
            return m * min(n, 2 * self.band_width + 1)
        if self.mode == "xdrop":
            return min(m, n) * (2 * self.xdrop_x + 1)
        return m * n

    def lane(self, short_cells: int = DEFAULT_SHORT_CELLS) -> str:
        if self.lane_override is not None:
            return self.lane_override
        return "short" if self.effective_cells <= short_cells else "long"

    def cache_key(self) -> str:
        """Digest-keyed identity of the comparison (hex SHA-256).

        Sequence *content* digests (not paths) + the scoring scheme +
        the config's :meth:`~repro.sw.config.AlignConfig.answer_key`.
        """
        h = hashlib.sha256()
        for codes in (self.a_codes, self.b_codes):
            arr = np.ascontiguousarray(codes)
            h.update(str(arr.size).encode())
            h.update(hashlib.sha256(arr.tobytes()).digest())
        s = self.scoring
        key = {"match": s.match, "mismatch": s.mismatch,
               "gap_open": s.gap_open, "gap_extend": s.gap_extend,
               **self.answer_key()}
        h.update(",".join(f"{k}={v}" for k, v in key.items()).encode())
        return h.hexdigest()


@dataclass
class JobRecord:
    """One job's mutable lifecycle state (owned by the queue's lock)."""

    id: str
    spec: JobSpec
    lane: str
    state: str = "queued"
    cached: bool = False
    submitted_unix: float = field(default_factory=time.time)
    submitted_mono: float = field(default_factory=time.monotonic)
    started_mono: float | None = None
    finished_mono: float | None = None
    result: dict | None = None
    error: str | None = None
    pool: int | None = None

    @property
    def finished(self) -> bool:
        return self.state in ("done", "failed", "cancelled")

    @property
    def wait_s(self) -> float | None:
        """Queue residency (submit -> dispatch; submit -> now if queued)."""
        end = self.started_mono
        if end is None:
            end = (self.finished_mono if self.finished
                   else time.monotonic())
        return max(0.0, end - self.submitted_mono)

    @property
    def run_s(self) -> float | None:
        if self.started_mono is None:
            return None
        end = (self.finished_mono if self.finished_mono is not None
               else time.monotonic())
        return max(0.0, end - self.started_mono)

    def to_json_dict(self) -> dict:
        """The wire/HTTP view of the job (sequences elided, digest kept)."""
        doc = {
            "id": self.id,
            "tenant": self.spec.tenant,
            "lane": self.lane,
            "state": self.state,
            "cached": self.cached,
            "mode": self.spec.mode,
            "cells": self.spec.cells,
            "rows": int(self.spec.a_codes.size),
            "cols": int(self.spec.b_codes.size),
            "cache_key": self.spec.cache_key()[:16],
            "submitted_unix": round(self.submitted_unix, 6),
            "wait_s": round(self.wait_s, 6),
        }
        if self.run_s is not None:
            doc["run_s"] = round(self.run_s, 6)
        if self.pool is not None:
            doc["pool"] = self.pool
        if self.result is not None:
            doc["result"] = self.result
        if self.error is not None:
            doc["error"] = self.error
        return doc


class JobQueue:
    """Admission-controlled, fair-share-ordered job queue (thread-safe).

    Parameters
    ----------
    max_depth:
        Most jobs allowed in the *queued* state across all tenants;
        submissions beyond it raise :class:`AdmissionError` (429) — the
        backpressure contract that keeps worst-case queueing delay
        bounded.
    tenant_cap:
        Most queued+running jobs any one tenant may hold in flight.
    short_cells:
        Lane classification threshold (see :meth:`JobSpec.lane`).
    scheduler:
        Ordering policy; defaults to a fresh
        :class:`~repro.serve.scheduler.FairScheduler`.
    """

    def __init__(self, *, max_depth: int = DEFAULT_QUEUE_DEPTH,
                 tenant_cap: int = DEFAULT_TENANT_CAP,
                 short_cells: int = DEFAULT_SHORT_CELLS,
                 scheduler: FairScheduler | None = None) -> None:
        if max_depth <= 0:
            raise ConfigError("max_depth must be positive")
        if tenant_cap <= 0:
            raise ConfigError("tenant_cap must be positive")
        self.max_depth = max_depth
        self.tenant_cap = tenant_cap
        self.short_cells = short_cells
        self._sched = scheduler if scheduler is not None else FairScheduler()
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._records: dict[str, JobRecord] = {}
        self._order: list[str] = []          # submission order, for listings
        self._running: set[str] = set()
        self._in_flight: dict[str, int] = {}  # tenant -> queued + running
        self._ids = itertools.count(1)
        self._closed = False

    # -- admission ------------------------------------------------------------
    def submit(self, spec: JobSpec) -> JobRecord:
        """Admit one job or raise :class:`AdmissionError` (atomic)."""
        with self._cond:
            if self._closed:
                raise AdmissionError("queue is closed (draining)", code=503)
            if len(self._sched) >= self.max_depth:
                raise AdmissionError(
                    f"queue full ({self.max_depth} jobs queued)")
            if self._in_flight.get(spec.tenant, 0) >= self.tenant_cap:
                raise AdmissionError(
                    f"tenant {spec.tenant!r} at its in-flight cap "
                    f"({self.tenant_cap})")
            record = JobRecord(
                id=f"job-{next(self._ids):06d}", spec=spec,
                lane=spec.lane(self.short_cells))
            self._records[record.id] = record
            self._order.append(record.id)
            self._in_flight[spec.tenant] = \
                self._in_flight.get(spec.tenant, 0) + 1
            self._sched.push(record)
            self._cond.notify()
            return record

    def admit_finished(self, spec: JobSpec, *, state: str = "done",
                       cached: bool = False, result: dict | None = None,
                       error: str | None = None) -> JobRecord:
        """Register a job that never runs (cache hit): listed and
        queryable like any other, but bypassing admission limits — a
        cached answer consumes no pool capacity, so it must not be
        429-able either."""
        with self._cond:
            record = JobRecord(
                id=f"job-{next(self._ids):06d}", spec=spec,
                lane=spec.lane(self.short_cells), state=state, cached=cached,
                result=result, error=error)
            record.finished_mono = record.submitted_mono
            self._records[record.id] = record
            self._order.append(record.id)
            self._cond.notify_all()
            return record

    # -- the executor side ----------------------------------------------------
    def next_job(self, timeout: float | None = None) -> JobRecord | None:
        """Pop the next job per the fair-share policy and mark it running.

        Blocks up to *timeout* seconds (forever when ``None``) and
        returns ``None`` on timeout or when the queue is closed and
        drained — the executor's signal to exit.
        """
        deadline = (time.monotonic() + timeout) if timeout is not None else None
        with self._cond:
            while True:
                record = self._sched.pop()
                if record is not None:
                    record.state = "running"
                    record.started_mono = time.monotonic()
                    self._running.add(record.id)
                    return record
                if self._closed:
                    return None
                if deadline is None:
                    self._cond.wait()
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return None
                    self._cond.wait(remaining)

    def finish(self, record: JobRecord, *, state: str,
               result: dict | None = None, error: str | None = None,
               pool: int | None = None) -> None:
        """Move a running job to a terminal state and release its slots."""
        if state not in ("done", "failed"):
            raise ConfigError(f"finish() takes done/failed, got {state!r}")
        with self._cond:
            record.state = state
            record.result = result
            record.error = error
            record.pool = pool
            record.finished_mono = time.monotonic()
            self._running.discard(record.id)
            self._release_tenant(record.spec.tenant)
            self._cond.notify_all()

    def _release_tenant(self, tenant: str) -> None:
        left = self._in_flight.get(tenant, 0) - 1
        if left > 0:
            self._in_flight[tenant] = left
        else:
            self._in_flight.pop(tenant, None)

    # -- shutdown -------------------------------------------------------------
    def close(self, *, cancel_queued: bool = True) -> list[JobRecord]:
        """Refuse new work; optionally cancel everything still queued.

        Running jobs are untouched — the daemon drains them.  Returns
        the records cancelled here.
        """
        with self._cond:
            self._closed = True
            cancelled: list[JobRecord] = []
            if cancel_queued:
                for record in self._sched.drain():
                    record.state = "cancelled"
                    record.finished_mono = time.monotonic()
                    self._release_tenant(record.spec.tenant)
                    cancelled.append(record)
            self._cond.notify_all()
            return cancelled

    @property
    def closed(self) -> bool:
        return self._closed

    # -- queries --------------------------------------------------------------
    def get(self, job_id: str) -> JobRecord | None:
        with self._lock:
            return self._records.get(job_id)

    def wait_for(self, job_id: str, timeout: float | None = None,
                 *, predicate: Callable[[JobRecord], bool] | None = None
                 ) -> JobRecord | None:
        """Block until the job reaches a terminal state (or *predicate*)."""
        done = predicate if predicate is not None else \
            (lambda r: r.finished)
        deadline = (time.monotonic() + timeout) if timeout is not None else None
        with self._cond:
            while True:
                record = self._records.get(job_id)
                if record is None:
                    return None
                if done(record):
                    return record
                if deadline is None:
                    self._cond.wait()
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return record
                    self._cond.wait(remaining)

    def jobs(self, *, newest_first: bool = False,
             limit: int | None = None) -> list[JobRecord]:
        with self._lock:
            ids = self._order[::-1] if newest_first else list(self._order)
            records = [self._records[i] for i in ids]
        return records[:limit] if limit is not None else records

    def stats(self) -> dict:
        with self._lock:
            return {
                "queued": len(self._sched),
                "queued_by_lane": {ln: self._sched.depth(ln) for ln in LANES},
                "running": len(self._running),
                "total": len(self._records),
                "in_flight_by_tenant": dict(self._in_flight),
                "max_depth": self.max_depth,
                "tenant_cap": self.tenant_cap,
                "closed": self._closed,
            }
