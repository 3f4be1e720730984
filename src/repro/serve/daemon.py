"""`mgsw serve`: the long-lived alignment-as-a-service daemon.

One daemon = admission control + fair-share scheduling + digest-keyed
result caching in front of one or more persistent
:class:`~repro.multigpu.pool.WorkerPool` chains (INTERNALS.md
section 14).  The pieces and who owns what:

* a **TCP front door** (line JSON, :mod:`repro.serve.protocol`) served
  by a thread-per-connection stdlib server — `mgsw submit` / `mgsw
  jobs` speak it;
* the :class:`~repro.serve.jobs.JobQueue` admits or 429-rejects each
  submission and orders the backlog through the
  :class:`~repro.serve.scheduler.FairScheduler`;
* one **executor thread per pool** pops jobs and runs them via
  ``pool.align`` — each pool's worker processes, shm rings, engine
  metrics registry and timeline sampler are confined to its executor,
  so no cross-thread mutation touches the engine path;
* the :class:`~repro.serve.cache.ResultCache` answers repeats before
  they ever reach admission (a cache hit must not be 429-able);
* the obs stack surfaces everything live: the daemon-lifetime
  :class:`~repro.obs.events.EventJournal` carries both the job
  lifecycle (``job_submit``/``job_start``/``job_end``/...) and the
  engine lifecycle the pools emit (``run_start``/``worker_spawn``/...),
  the serve :class:`~repro.obs.registry.MetricsRegistry` exports
  job-labelled Prometheus series, and the
  :class:`~repro.obs.exporter.StatusServer` adds ``/jobs`` +
  ``/jobs/<id>`` routes next to ``/metrics`` and ``/status``.

Stale reads stay safe for the same reason they do everywhere else in
the telemetry stack: every HTTP render is a read of internally-locked
or append-only structures, so a scrape racing a state transition sees a
slightly old but internally consistent view, never a torn one.

Shutdown (:meth:`ServeDaemon.stop`) drains: admission closes, queued
jobs are cancelled, **running jobs finish**, then the pools close and
unlink their shared memory — a drained daemon leaks no shm segments.
"""

from __future__ import annotations

import socketserver
import threading
import time
import typing
import uuid
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .. import seq
from ..errors import ConfigError, ReproError, ServeError
from ..multigpu.pool import WorkerPool
from ..obs.events import EventJournal
from ..obs.exporter import StatusServer
from ..obs.registry import MetricsRegistry
from ..obs.timeseries import TimeSeriesSampler
from ..seq.encoding import require_base
from ..seq.scoring import Scoring
from ..sw.backend import resolve_kernel
from ..sw.config import AlignConfig
from .cache import DEFAULT_CACHE_ENTRIES, ResultCache
from .jobs import (
    DEFAULT_QUEUE_DEPTH,
    DEFAULT_SHORT_CELLS,
    DEFAULT_TENANT_CAP,
    AdmissionError,
    JobQueue,
    JobRecord,
    JobSpec,
)
from .protocol import error_response, recv_message, send_message
from .scheduler import FairScheduler

#: Latency buckets for the serve histograms: sub-ms cache answers up to
#: multi-minute megabase runs.
LATENCY_BUCKETS = (
    1e-3, 5e-3, 1e-2, 5e-2, 1e-1, 5e-1, 1.0, 5.0, 15.0, 60.0, 300.0,
)

#: Jobs one `/jobs` scrape returns (newest first).
JOBS_ROUTE_LIMIT = 100


def _wire_fields(cls, doc: dict) -> dict:
    """The fields of dataclass *cls* that request *doc* sets, each
    refused unless it has its declared type exactly (no coercion)."""
    types = typing.get_type_hints(cls)
    out = {f.name: doc[f.name] for f in fields(cls) if f.init and f.name in doc}
    for name, value in out.items():
        if type(value) is not types[name]:
            raise ConfigError(f"{name} must be a JSON "
                              f"{types[name].__name__}, got {value!r}")
    return out


@dataclass(frozen=True)
class ServeConfig:
    """Static daemon configuration (the `mgsw serve` flags)."""

    pools: int = 1                    #: concurrent WorkerPool chains
    workers: int = 2                  #: slab workers per pool
    max_block_rows: int = 2048
    capacity: int = 4
    transport: str = "shm"
    start_method: str | None = None
    queue_depth: int = DEFAULT_QUEUE_DEPTH
    tenant_cap: int = DEFAULT_TENANT_CAP
    short_cells: int = DEFAULT_SHORT_CELLS
    cache_entries: int = DEFAULT_CACHE_ENTRIES
    short_weight: float = 4.0         #: short-lane picks per long-lane pick
    job_timeout_s: float = 300.0
    max_restarts: int = 0             #: per-job checkpoint recovery budget

    def __post_init__(self) -> None:
        if self.pools <= 0:
            raise ConfigError("pools must be positive")
        if self.workers <= 0:
            raise ConfigError("workers must be positive")
        if self.short_weight <= 0:
            raise ConfigError("short_weight must be positive")
        if self.job_timeout_s <= 0:
            raise ConfigError("job_timeout_s must be positive")


class ServeDaemon:
    """The alignment service (see module docstring).

    Parameters
    ----------
    config:
        Sizing and policy (:class:`ServeConfig`).
    host, port:
        TCP front door bind address (port 0 = ephemeral; read
        :attr:`port` after construction).
    status_port:
        HTTP status endpoint port (``None`` disables it; 0 = ephemeral).
    telemetry_dir:
        When given, the journal spills ``events.jsonl`` there.
    """

    def __init__(self, config: ServeConfig | None = None, *,
                 host: str = "127.0.0.1", port: int = 0,
                 status_port: int | None = 0,
                 telemetry_dir: str | Path | None = None) -> None:
        self.config = config if config is not None else ServeConfig()
        cfg = self.config
        self.run_id = uuid.uuid4().hex
        spill = (Path(telemetry_dir) / "events.jsonl"
                 if telemetry_dir is not None else None)
        self.journal = EventJournal(spill, run_id=self.run_id)
        self.registry = MetricsRegistry()    # serve-level, job-labelled
        self._mlock = threading.Lock()       # serialises registry writes
        self.cache = ResultCache(cfg.cache_entries)
        self.queue = JobQueue(
            max_depth=cfg.queue_depth, tenant_cap=cfg.tenant_cap,
            short_cells=cfg.short_cells,
            scheduler=FairScheduler(lane_weights={
                "short": cfg.short_weight, "long": 1.0}))
        self._started_mono = time.monotonic()
        self._stopped = False
        self._stop_lock = threading.Lock()
        self.shutdown_requested = threading.Event()

        # Pools + their thread-confined telemetry (one executor each).
        self.pools: list[WorkerPool | None] = []
        self._pool_registries: list[MetricsRegistry] = []
        self._samplers: list[TimeSeriesSampler] = []
        for _ in range(cfg.pools):
            self.pools.append(self._make_pool())
            self._pool_registries.append(MetricsRegistry())
            self._samplers.append(TimeSeriesSampler(
                registry=self._pool_registries[-1]))

        # HTTP status endpoint with the /jobs routes mounted.
        self.status: StatusServer | None = None
        if status_port is not None:
            self.status = StatusServer(
                registry=self.registry, sampler=self._samplers[0],
                journal=self.journal, port=status_port)
            self.status.register("/jobs", self._jobs_route)

        # TCP front door.
        daemon = self

        class Handler(socketserver.StreamRequestHandler):
            def handle(self) -> None:
                while True:
                    try:
                        req = recv_message(self.rfile)
                    except ServeError as exc:
                        send_message(self.wfile, error_response(str(exc)))
                        return
                    if req is None:
                        return
                    try:
                        resp = daemon.handle_request(req)
                    except Exception as exc:  # pragma: no cover - defensive
                        resp = error_response(
                            f"internal error: {exc!r}", code=500)
                    try:
                        send_message(self.wfile, resp)
                    except OSError:
                        return

        class Server(socketserver.ThreadingTCPServer):
            daemon_threads = True
            allow_reuse_address = True

        try:
            self._tcp = Server((host, port), Handler)
        except OSError as exc:
            self._cleanup_partial()
            raise ServeError(
                f"cannot bind job listener on {host}:{port}: {exc}") from None
        self._tcp_thread: threading.Thread | None = None
        self._executors: list[threading.Thread] = []

    def _cleanup_partial(self) -> None:
        """Release what the constructor built before it failed."""
        for pool in self.pools:
            if pool is not None:
                try:
                    pool.close()
                except Exception:  # pragma: no cover - best effort
                    pass
        if self.status is not None:
            self.status.stop()

    def _make_pool(self) -> WorkerPool:
        cfg = self.config
        return WorkerPool(
            cfg.workers, max_block_rows=cfg.max_block_rows,
            capacity=cfg.capacity, transport=cfg.transport,
            start_method=cfg.start_method, events=self.journal)

    # -- lifecycle ------------------------------------------------------------
    @property
    def port(self) -> int:
        return self._tcp.server_address[1]

    @property
    def status_url(self) -> str | None:
        return self.status.url if self.status is not None else None

    def start(self) -> "ServeDaemon":
        if self._tcp_thread is not None:
            return self
        if self.status is not None:
            self.status.start()
        self._tcp_thread = threading.Thread(
            target=self._tcp.serve_forever, kwargs={"poll_interval": 0.1},
            name="mgsw-serve-tcp", daemon=True)
        self._tcp_thread.start()
        for i in range(len(self.pools)):
            t = threading.Thread(target=self._executor, args=(i,),
                                 name=f"mgsw-serve-exec{i}", daemon=True)
            t.start()
            self._executors.append(t)
        return self

    def stop(self, *, drain_timeout_s: float = 120.0) -> None:
        """Drain and shut down (idempotent).

        Ordering matters: (1) the TCP front door closes so no new work
        arrives; (2) admission closes and queued jobs are cancelled;
        (3) the executors finish whatever is *running* and exit;
        (4) the pools close, unlinking every shm segment; (5) the
        status server stops **before** the sampler/journal close so a
        late scrape never renders from closed sources.
        """
        with self._stop_lock:
            if self._stopped:
                return
            self._stopped = True
        if self._tcp_thread is not None:
            self._tcp.shutdown()
            self._tcp_thread.join(timeout=10.0)
            self._tcp_thread = None
        self._tcp.server_close()
        for record in self.queue.close(cancel_queued=True):
            self.journal.emit("job_end", job=record.id, status="cancelled",
                              tenant=record.spec.tenant, lane=record.lane)
            self._record_completion(record, "cancelled")
        for t in self._executors:
            t.join(timeout=drain_timeout_s)
        errors: list[str] = []
        for pool in self.pools:
            if pool is None:
                continue
            try:
                pool.close()
            except Exception as exc:
                errors.append(repr(exc))
        if self.status is not None:
            self.status.stop()
        for sampler in self._samplers:
            sampler.close()
        self.journal.close()
        if errors:
            raise ServeError("pool teardown errors: " + "; ".join(errors))

    def __enter__(self) -> "ServeDaemon":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def serve_until_shutdown(self, poll_s: float = 0.2) -> None:
        """Block until a ``shutdown`` request arrives, then drain (the
        `mgsw serve` main loop; KeyboardInterrupt also drains)."""
        self.start()
        try:
            while not self.shutdown_requested.wait(poll_s):
                pass
        finally:
            self.stop()

    # -- submission -----------------------------------------------------------
    def submit(self, spec: JobSpec) -> JobRecord:
        """Admit one job (cache first, then admission control).

        Raises :class:`~repro.serve.jobs.AdmissionError` on refusal.
        """
        if spec.use_cache:
            key = spec.cache_key()
            cached = self.cache.get(key)
            if cached is not None:
                record = self.queue.admit_finished(
                    spec, cached=True, result=cached)
                self.journal.emit(
                    "job_cache_hit", job=record.id, tenant=spec.tenant,
                    lane=record.lane, cache_key=key[:16])
                with self._mlock:
                    self.registry.counter(
                        "serve_cache_hits",
                        help="jobs answered from the result cache",
                    ).inc(1, tenant=spec.tenant)
                    self._observe_completion_locked(record, "done")
                return record
            with self._mlock:
                self.registry.counter(
                    "serve_cache_misses",
                    help="submissions that missed the result cache",
                ).inc(1, tenant=spec.tenant)
        try:
            record = self.queue.submit(spec)
        except AdmissionError as exc:
            self.journal.emit("job_reject", tenant=spec.tenant,
                              code=exc.code, reason=exc.reason)
            with self._mlock:
                self.registry.counter(
                    "serve_jobs_rejected",
                    help="submissions refused by admission control",
                ).inc(1, tenant=spec.tenant, code=str(exc.code))
            raise
        self.journal.emit("job_submit", job=record.id, tenant=spec.tenant,
                          lane=record.lane, cells=spec.cells, mode=spec.mode)
        with self._mlock:
            self.registry.counter(
                "serve_jobs_submitted",
                help="jobs admitted into the queue",
            ).inc(1, tenant=spec.tenant, lane=record.lane)
            self._set_depth_gauges_locked()
        return record

    # -- execution ------------------------------------------------------------
    def _executor(self, idx: int) -> None:
        while True:
            record = self.queue.next_job(timeout=0.2)
            if record is None:
                if self.queue.closed:
                    return
                continue
            self._run_job(idx, record)

    def _run_job(self, idx: int, record: JobRecord) -> None:
        spec = record.spec
        self.journal.emit("job_start", job=record.id, tenant=spec.tenant,
                          lane=record.lane, pool=idx,
                          wait_s=round(record.wait_s, 6))
        with self._mlock:
            self.registry.gauge(
                "serve_jobs_running", help="jobs currently on a pool",
            ).set(len([1 for r in self.queue.jobs() if r.state == "running"]))
            self._set_depth_gauges_locked()
        cfg = self.config
        try:
            pool = self.pools[idx]
            if pool is None or pool.broken or pool.closed:
                pool = self._respawn_pool(idx)
            # The executor is the front door for a job's kernel: "auto"
            # resolves on this host, an unavailable kernel fails the job.
            res = pool.align(
                spec.a_codes, spec.b_codes, spec.scoring, config=spec,
                kernel=resolve_kernel(spec.kernel),
                block_rows=min(spec.block_rows, cfg.max_block_rows),
                timeout_s=cfg.job_timeout_s,
                metrics=self._pool_registries[idx],
                timeline=self._samplers[idx],
                max_restarts=cfg.max_restarts)
            summary = {
                "score": int(res.score),
                "row": int(res.best.row),
                "col": int(res.best.col),
                "tier": res.tier,
                "mode": res.mode,
                "dp_dtype": res.dp_dtype,
                "wall_time_s": round(res.wall_time_s, 6),
                "gcups": round(res.gcups, 6),
                "restarts": res.restarts,
            }
            if spec.use_cache:
                self.cache.put(spec.cache_key(), summary)
            self.queue.finish(record, state="done", result=summary, pool=idx)
            self.journal.emit(
                "job_end", job=record.id, status="done",
                tenant=spec.tenant, lane=record.lane, pool=idx,
                score=summary["score"],
                run_s=round(record.run_s, 6))
            self._record_completion(record, "done")
        except Exception as exc:
            self.queue.finish(record, state="failed", error=repr(exc),
                              pool=idx)
            self.journal.emit("job_end", job=record.id, status="failed",
                              tenant=spec.tenant, lane=record.lane, pool=idx,
                              detail=repr(exc))
            self._record_completion(record, "failed")
            pool = self.pools[idx]
            if pool is not None and (pool.broken or pool.closed):
                try:
                    self._respawn_pool(idx)
                except Exception:   # pragma: no cover - respawn best effort
                    self.pools[idx] = None

    def _respawn_pool(self, idx: int) -> WorkerPool:
        """Replace a broken/closed pool so one bad job cannot take the
        daemon down (the old pool's teardown errors are swallowed — its
        shm is force-unlinked by close())."""
        old = self.pools[idx]
        self.pools[idx] = None
        if old is not None:
            try:
                old.close()
            except Exception:  # pragma: no cover - already broken
                pass
        pool = self._make_pool()
        self.pools[idx] = pool
        with self._mlock:
            self.registry.counter(
                "serve_pool_respawns",
                help="worker pools replaced after breaking",
            ).inc(1, pool=str(idx))
        return pool

    def _record_completion(self, record: JobRecord, status: str) -> None:
        with self._mlock:
            self._observe_completion_locked(record, status)

    def _observe_completion_locked(self, record: JobRecord,
                                   status: str) -> None:
        spec = record.spec
        self.registry.counter(
            "serve_jobs_completed",
            help="jobs reaching a terminal state",
        ).inc(1, tenant=spec.tenant, lane=record.lane, status=status,
              cached=str(record.cached).lower())
        wait = record.wait_s
        if wait is not None:
            self.registry.histogram(
                "serve_job_wait_s", help="queue residency per job",
                buckets=LATENCY_BUCKETS).observe(wait, lane=record.lane)
        total = wait if record.run_s is None else wait + record.run_s
        self.registry.histogram(
            "serve_job_latency_s",
            help="submit-to-finish latency per job",
            buckets=LATENCY_BUCKETS).observe(total, lane=record.lane)
        self._set_depth_gauges_locked()

    def _set_depth_gauges_locked(self) -> None:
        stats = self.queue.stats()
        gauge = self.registry.gauge(
            "serve_queue_depth", help="jobs waiting per lane")
        for lane, depth in stats["queued_by_lane"].items():
            gauge.set(depth, lane=lane)

    # -- HTTP /jobs route -----------------------------------------------------
    def _jobs_route(self, subpath: str | None):
        if subpath:
            record = self.queue.get(subpath)
            return record.to_json_dict() if record is not None else None
        return {
            "jobs": [r.to_json_dict() for r in self.queue.jobs(
                newest_first=True, limit=JOBS_ROUTE_LIMIT)],
            "queue": self.queue.stats(),
            "cache": self.cache.stats(),
        }

    # -- the wire API ---------------------------------------------------------
    def spec_from_request(self, req: dict) -> JobSpec:
        """Build a :class:`JobSpec` from one ``submit`` request dict.

        The :class:`~repro.sw.config.AlignConfig` and ``scoring`` fields
        are decoded by their declared types, strictly: ``64.9``, ``true``
        or ``"128"`` for an int field is refused, not coerced; ``scoring``
        must be an object and ``tenant`` and the paths strings.  An absent
        field takes its default.  Sequences are read strictly: a letter
        that is neither DNA nor IUPAC is refused, not scored as ``N``, and
        so is a sequence that is all ``N``.
        """

        def codes_for(side: str):
            inline = req.get(f"seq_{side}")
            path = req.get(f"path_{side}")
            if inline is not None:
                return require_base(seq.encode(inline, strict=True),
                                    f"seq_{side}")
            if path is not None:
                if not isinstance(path, str):
                    raise ConfigError(
                        f"path_{side} must be a JSON string, got {path!r}")
                return seq.read_single(path, strict=True).codes
            raise ServeError(f"submit needs seq_{side} or path_{side}")

        scoring_doc = req.get("scoring", {})
        if not isinstance(scoring_doc, dict):
            raise ConfigError(
                f"scoring must be a JSON object, got {scoring_doc!r}")
        scoring = replace(seq.DNA_DEFAULT,
                          **_wire_fields(Scoring, scoring_doc))
        config = _wire_fields(AlignConfig, req)
        if "tenant" in req:
            if not isinstance(req["tenant"], str):
                raise ConfigError(
                    f"tenant must be a JSON string, got {req['tenant']!r}")
            config["tenant"] = req["tenant"]
        return JobSpec(
            a_codes=codes_for("a"), b_codes=codes_for("b"), scoring=scoring,
            use_cache=req.get("use_cache", True),
            lane_override=req.get("lane"), **config)

    def handle_request(self, req: dict) -> dict:
        """Dispatch one protocol request (shared by TCP and tests)."""
        op = req.get("op")
        if op == "ping":
            from .. import __version__
            return {"ok": True, "server": "mgsw-serve",
                    "version": __version__, "run_id": self.run_id,
                    "uptime_s": round(
                        time.monotonic() - self._started_mono, 3)}
        if op == "submit":
            try:
                spec = self.spec_from_request(req)
            except (ReproError, ValueError, TypeError, OSError) as exc:
                return error_response(f"bad submit request: {exc}")
            try:
                record = self.submit(spec)
            except AdmissionError as exc:
                return error_response(exc.reason, code=exc.code)
            return {"ok": True, "job": record.to_json_dict()}
        if op in ("status", "wait"):
            job_id = req.get("id")
            if not isinstance(job_id, str):
                return error_response(f"{op} needs a job id")
            if op == "wait":
                timeout = req.get("timeout_s")
                # A bool is not a number here, and a timeout beyond what
                # a lock wait accepts (inf, NaN) is refused, not raised.
                if timeout is not None and (
                        type(timeout) not in (int, float)
                        or not 0 <= timeout <= threading.TIMEOUT_MAX):
                    return error_response(
                        "timeout_s must be a non-negative JSON number, "
                        f"got {timeout!r}")
                record = self.queue.wait_for(job_id, timeout=timeout)
            else:
                record = self.queue.get(job_id)
            if record is None:
                return error_response(f"unknown job {job_id!r}", code=404)
            return {"ok": True, "job": record.to_json_dict()}
        if op == "jobs":
            limit = req.get("limit")
            if limit is not None and (type(limit) is not int or limit < 0):
                return error_response(
                    f"limit must be a non-negative JSON int, got {limit!r}")
            records = self.queue.jobs(newest_first=True, limit=limit)
            return {"ok": True, "jobs": [r.to_json_dict() for r in records]}
        if op == "stats":
            return {"ok": True,
                    "run_id": self.run_id,
                    "uptime_s": round(
                        time.monotonic() - self._started_mono, 3),
                    "queue": self.queue.stats(),
                    "cache": self.cache.stats(),
                    "pools": [
                        {"pool": i, "alive": p is not None and not p.broken
                         and not p.closed,
                         "workers": p.workers if p is not None else 0}
                        for i, p in enumerate(self.pools)],
                    "status_url": self.status_url}
        if op == "shutdown":
            self.shutdown_requested.set()
            return {"ok": True, "draining": True}
        return error_response(f"unknown op {op!r}")
