"""``mgsw serve`` driven over its TCP protocol by one load generator.

The traced pass of every workload runs one such cycle for the serve
layer's metrics.

Open loop: short jobs arrive on a seeded Poisson schedule below the
pool's capacity on one connection, and a stated share of them repeats an
earlier pair (cache hits read while misses write).  Long jobs arrive at a
fixed interval on the second connection.  Every job is timed from its
scheduled send time to the moment the generator learns its result, so a
stall also charges the jobs queued behind it.
"""

from __future__ import annotations

import re
import signal
import subprocess
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .common import (ROOT, Snapshot, Tally, kill_group, leaks_since, median,
                     program_env, python_argv, reap, snapshot)
from .inputs import LONG, SHORT, Pair, homolog_pair, reference, rng_for

#: Short-job arrivals per second (Poisson).
SHORT_RATE = 5.0
#: Share of short jobs that repeat an earlier pair.  With the long jobs
#: the pool is then busy ~30% of the time, so most cold jobs find it idle
#: and a 2-core host's speed swings are not amplified by a long queue.
REPEAT_SHARE = 0.4
#: A repeat only picks pairs first sent this long ago, so it hits the cache.
REPEAT_AGE_S = 2.0
#: Long jobs: one every LONG_INTERVAL_S, the first at LONG_OFFSET_S.
LONG_INTERVAL_S = 2.0
LONG_OFFSET_S = 1.0
#: Latency limit a short job must meet (refused or failed jobs miss it).
SHORT_LIMIT_S = 1.0
#: The daemon as a user would start it for this mix.
SERVE_ARGS = ("serve", "--port", "0", "--pools", "1", "--workers", "2")

LISTEN_RE = re.compile(r"listening on [\d.]+:(\d+)")


@dataclass
class Job:
    due: float
    pair: int
    lane: str
    latency: float | None = None
    late: float = 0.0
    submit_s: float = 0.0
    record: dict | None = None
    error: str | None = None


@dataclass
class Mix:
    pairs: list            #: Pair per pair id
    texts: list            #: (a, b) decoded strings per pair id
    jobs: list             #: every Job, short and long
    refs: list = field(default_factory=list)


def build_mix(seed: int, seconds: float) -> Mix:
    """Seeded schedule plus the pairs it sends (generated, not timed)."""
    from repro import seq

    sched = rng_for(seed, "serve-schedule")
    short_rng, long_rng = rng_for(seed, "serve-short"), rng_for(seed, "serve-long")
    pairs, jobs, firsts = [], [], []
    # A Poisson process conditioned on its count: the arrival times are
    # sorted uniform draws, so every run sends the same number of jobs,
    # and exactly REPEAT_SHARE of them (drawn among those sent late
    # enough to find an earlier pair cached) repeat an earlier pair.
    arrivals = np.sort(sched.uniform(0.0, seconds,
                                     size=max(1, round(SHORT_RATE * seconds))))
    late = np.flatnonzero(arrivals >= REPEAT_AGE_S)
    repeats = set(sched.choice(late, size=min(late.size, round(
        REPEAT_SHARE * arrivals.size)), replace=False).tolist())
    for i, t in enumerate(map(float, arrivals)):
        old = [j for j in firsts if j.due <= t - REPEAT_AGE_S]
        if old and i in repeats:
            jobs.append(Job(t, old[int(sched.integers(len(old)))].pair, "short"))
        else:
            pairs.append(homolog_pair(short_rng, *SHORT))
            job = Job(t, len(pairs) - 1, "short")
            jobs.append(job)
            firsts.append(job)
    t = LONG_OFFSET_S
    while t < seconds:
        pairs.append(homolog_pair(long_rng, *LONG))
        jobs.append(Job(t, len(pairs) - 1, "long"))
        t += LONG_INTERVAL_S
    texts = [(seq.decode(p.a), seq.decode(p.b)) for p in pairs]
    return Mix(pairs, texts, jobs)


class Daemon:
    """One ``mgsw serve`` process: launch, first answered ping, drain."""

    def __init__(self, out_dir: Path) -> None:
        from repro.serve import ServeClient

        out_dir.mkdir(parents=True, exist_ok=True)
        self.before: Snapshot = snapshot()
        self._err_path = out_dir / "serve.stderr.txt"
        self._out = open(out_dir / "serve.stdout.txt", "wb")
        self._err = open(self._err_path, "wb")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            python_argv("-m", "repro.cli", *SERVE_ARGS), stdout=self._out,
            stderr=self._err, cwd=ROOT, env=program_env(),
            start_new_session=True)
        try:
            self.port = self._await_port(t0 + 60.0)
            while True:
                try:
                    with ServeClient("127.0.0.1", self.port,
                                     timeout_s=5.0) as c:
                        c.ping()
                    break
                except Exception:
                    if time.perf_counter() > t0 + 60.0:
                        raise
                    time.sleep(0.002)
        except BaseException:
            kill_group(self.proc.pid)
            self.proc.wait()
            self._out.close()
            self._err.close()
            raise
        self.setup_s = time.perf_counter() - t0
        self.maxrss_mb = 0.0
        self.returncode: int | None = None

    def _await_port(self, deadline: float) -> int:
        while time.perf_counter() < deadline:
            m = LISTEN_RE.search(self._err_path.read_text(errors="replace"))
            if m:
                return int(m[1])
            if self.proc.poll() is not None:
                break
            time.sleep(0.002)
        raise RuntimeError("mgsw serve did not report its port")

    def client(self):
        from repro.serve import ServeClient

        return ServeClient("127.0.0.1", self.port, timeout_s=120.0)

    def stop(self) -> list[str]:
        """Drain the daemon; returns the resources it leaked."""
        try:
            with self.client() as c:
                c.shutdown()
        except Exception:
            self.proc.send_signal(signal.SIGINT)
        self.maxrss_mb = reap(self.proc, 60.0)
        self.returncode = self.proc.returncode
        self._out.close()
        self._err.close()
        return leaks_since(self.before, pgid=self.proc.pid)


def _short_lane(client, mix: Mix, jobs, t0: float) -> None:
    outstanding: deque = deque()

    def settle(job, resp, now):
        if not resp.get("ok"):
            job.error = f"{resp.get('code')}: {resp.get('error')}"
            return True
        rec = resp["job"]
        if rec["state"] in ("queued", "running"):
            return False
        job.record = rec
        job.latency = now - job.due
        if rec["state"] != "done":
            job.error = f"job {rec['state']}: {rec.get('error')}"
        return True

    def poll(until: float):
        while outstanding:
            left = until - (time.perf_counter() - t0)
            if left <= 0.001:
                return
            job, job_id = outstanding[0]
            resp = client.wait(job_id, timeout_s=left)
            if settle(job, resp, time.perf_counter() - t0):
                outstanding.popleft()
        left = until - (time.perf_counter() - t0)
        if left > 0:
            time.sleep(left)

    for job in jobs:
        poll(job.due)
        a, b = mix.texts[job.pair]
        sent = time.perf_counter() - t0
        job.late = sent - job.due
        resp = client.submit(seq_a=a, seq_b=b, tenant="short")
        now = time.perf_counter() - t0
        job.submit_s = now - sent
        if not settle(job, resp, now):
            outstanding.append((job, resp["job"]["id"]))
    for job, job_id in outstanding:
        resp = client.wait(job_id, timeout_s=120.0)
        if not settle(job, resp, time.perf_counter() - t0):
            job.error = "timed out"


def _long_lane(client, mix: Mix, jobs, t0: float) -> None:
    for job in jobs:
        left = job.due - (time.perf_counter() - t0)
        if left > 0:
            time.sleep(left)
        a, b = mix.texts[job.pair]
        sent = time.perf_counter() - t0
        job.late = sent - job.due
        resp = client.submit(seq_a=a, seq_b=b, tenant="long")
        job.submit_s = time.perf_counter() - t0 - sent
        if resp.get("ok") and resp["job"]["state"] in ("queued", "running"):
            resp = client.wait(resp["job"]["id"], timeout_s=120.0)
        if not resp.get("ok"):
            job.error = f"{resp.get('code')}: {resp.get('error')}"
            continue
        job.record = resp["job"]
        job.latency = time.perf_counter() - t0 - job.due
        if job.record["state"] != "done":
            job.error = f"job {job.record['state']}"


def drive(daemon: Daemon, mix: Mix) -> dict:
    """Send the whole schedule; returns the daemon's stats afterwards."""
    short = [j for j in mix.jobs if j.lane == "short"]
    long_ = [j for j in mix.jobs if j.lane == "long"]
    with daemon.client() as c_short, daemon.client() as c_long:
        # One untimed job first, so pool set-up (profile caches, lazy
        # ramps) is not charged to whichever job happens to come first.
        a, b = mix.texts[0]
        warm = c_short.check(c_short.submit(seq_a=a, seq_b=b, use_cache=False,
                                            tenant="warmup"))
        c_short.wait(warm["job"]["id"], timeout_s=120.0)
        t0 = time.perf_counter() + 0.05
        errors: list = []

        def guard(fn, *args):
            try:
                fn(*args)
            except Exception as exc:   # reported as failed jobs below
                errors.append(repr(exc))

        threads = [threading.Thread(target=guard, args=(_short_lane, c_short,
                                                        mix, short, t0)),
                   threading.Thread(target=guard, args=(_long_lane, c_long,
                                                        mix, long_, t0))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=600)
        stats = c_short.stats()
    for job in mix.jobs:
        if job.latency is None and job.error is None:
            job.error = errors[0] if errors else "no answer"
    return stats


def check(mix: Mix, tally: Tally) -> None:
    """Score every job against its pair's reference and every cache hit
    against the cold run of the same pair."""
    cold: dict = {}
    for job in mix.jobs:
        if job.record and not job.record.get("cached"):
            cold.setdefault(job.pair, job.record["result"])
    for job in mix.jobs:
        if job.error is not None:
            tally.fail(f"{job.lane} job at {job.due:.2f}s: {job.error}")
            continue
        res = job.record["result"]
        got = (res["score"], res["row"], res["col"])
        if got != mix.refs[job.pair]:
            tally.fail(f"{job.lane} job at {job.due:.2f}s scored {got}, "
                       f"reference {mix.refs[job.pair]}", wrong=True)
        elif job.record.get("cached") and res != cold.get(job.pair, res):
            tally.fail(f"cache hit at {job.due:.2f}s differs from its cold "
                       "run", wrong=True)
        else:
            tally.ok()


def serve_layers(mix: Mix, stats: dict) -> dict:
    """Serve-layer metrics from the job records the daemon returned."""
    done = [j for j in mix.jobs if j.record is not None]
    ran = [j.record for j in done if not j.record.get("cached")]
    return {
        "serve.submit_s": median([j.submit_s for j in mix.jobs
                                  if j.lane == "short" and j.error is None]),
        "serve.run_s": median([r["run_s"] for r in ran]),
        "serve.dispatch_s": median([r["run_s"] - r["result"]["wall_time_s"]
                                    for r in ran]),
        "serve.queue_wait_s": median([r["wait_s"] for r in ran]),
        "serve.cache_hit_rate": float(stats["cache"]["hit_rate"]),
        "serve.refused": float(sum(1 for j in mix.jobs if j.error
                                   and j.error[:3] in ("429", "503"))),
        "serve.generator_late_s": max(j.late for j in mix.jobs),
    }


def run_mix(seed: int, seconds: float, out_dir: Path, tally: Tally):
    """One daemon cycle under the mix; returns (mix, daemon, stats)."""
    mix = build_mix(seed, seconds)
    mix.refs = [reference(p) for p in mix.pairs]
    daemon = Daemon(out_dir)
    try:
        stats = drive(daemon, mix)
    finally:
        leaked = daemon.stop()
    check(mix, tally)
    if daemon.returncode != 0:
        tally.fail(f"mgsw serve exited with {daemon.returncode}")
    if leaked:
        tally.fail("serve cycle leaked " + ", ".join(leaked), leak=True)
    return mix, daemon, stats


def short_pair(seed: int) -> Pair:
    return homolog_pair(rng_for(seed, "serve-short"), *SHORT)
