"""Shared benchmark plumbing: statistics, failure accounting, host stamp,
measured process launches and resource-leak snapshots.

Everything here is pure Python over the standard library so the
harness's own logic can be unit-tested without running the program.
"""

from __future__ import annotations

import math
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

#: Root of the checkout the benchmark runs in (parent of ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent
#: Scratch area for generated inputs, reference cache and run records.
WORK = ROOT / ".bench_work"

#: Candidate percentiles, lowest first, for :func:`supported_percentile`.
PERCENTILES = (50.0, 90.0, 99.0, 99.9)
#: Samples that must lie beyond a percentile before it is reported.
MIN_BEYOND = 10


# -- statistics ---------------------------------------------------------------
def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, pct: float) -> float:
    """Linear-interpolated percentile (``statistics.quantiles`` inclusive)."""
    vals = sorted(values)
    if not vals:
        raise ValueError("percentile of an empty sample")
    if len(vals) == 1:
        return float(vals[0])
    pos = (len(vals) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(vals) - 1)
    return float(vals[lo] + (vals[hi] - vals[lo]) * (pos - lo))


def supported_percentile(n: int) -> float | None:
    """Highest candidate percentile with at least ``MIN_BEYOND`` samples
    beyond it in a sample of *n*; ``None`` when even the median lacks them.
    """
    best = None
    for pct in PERCENTILES:
        if n - math.ceil(round(n * pct / 100.0, 9)) >= MIN_BEYOND:
            best = pct
    return best


def describe(values) -> str:
    """``median [p.. when supported] (n=...)`` for printed reports."""
    n = len(values)
    text = f"median {median(values):.4f}"
    pct = supported_percentile(n)
    if pct is not None and pct > 50.0:
        text += f", p{pct:g} {percentile(values, pct):.4f}"
    return text + f" (n={n}, highest supported percentile: " + (
        f"p{pct:g})" if pct is not None else "none)")


# -- failure accounting -------------------------------------------------------
@dataclass
class Tally:
    """Operations attempted and failed, with the reason for each failure.

    A failed operation also misses any latency limit: :meth:`within_limit`
    counts it in the denominator but never in the numerator.
    """

    attempted: int = 0
    failures: list = field(default_factory=list)
    wrong: int = 0
    leaks: int = 0

    @property
    def failed(self) -> int:
        return len(self.failures)

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, reason: str, *, wrong: bool = False,
             leak: bool = False) -> None:
        self.attempted += 1
        self.failures.append(reason)
        self.wrong += int(wrong)
        self.leaks += int(leak)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    @property
    def correct(self) -> bool:
        """No wrong answer and no leaked resource."""
        return self.wrong == 0 and self.leaks == 0

    def within_limit(self, latencies, limit_s: float) -> float:
        """Share of attempted operations answered within *limit_s*."""
        if not self.attempted:
            return 0.0
        met = sum(1 for x in latencies if x <= limit_s)
        return met / self.attempted


# -- layer attribution --------------------------------------------------------
def layer_table(wall_s: float, parts) -> list[tuple[str, float]]:
    """Rows ``(name, seconds)`` plus the ``multigpu.unaccounted_s`` residual
    that makes them sum to *wall_s* exactly."""
    rows = [(name, float(v)) for name, v in parts]
    rows.append(("multigpu.unaccounted_s", wall_s - sum(v for _, v in rows)))
    return rows


def format_layer_table(wall_s: float, rows) -> str:
    lines = [f"  {'layer':<34} {'seconds':>9} {'share':>7}"]
    for name, v in rows:
        lines.append(f"  {name:<34} {v:9.4f} {v / wall_s:7.1%}")
    lines.append(f"  {'= wall_s':<34} {sum(v for _, v in rows):9.4f}")
    return "\n".join(lines)


def trace_overhead(traced_wall_s: float, untraced_walls) -> float:
    """Extra wall of a traced run over the untraced median."""
    return traced_wall_s - median(untraced_walls)


# -- host stamp ---------------------------------------------------------------
def host_stamp() -> dict:
    """What a record's figures depend on besides the code."""
    import importlib.util

    import numpy
    from repro.multigpu.procchain import pick_context

    model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cores": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "start_method": pick_context().get_start_method(),
    }


def cpu_ticks() -> list[int]:
    """Aggregate CPU tick counters from ``/proc/stat`` (empty if absent)."""
    try:
        first = Path("/proc/stat").read_text().split("\n", 1)[0]
    except OSError:
        return []
    return [int(x) for x in first.split()[1:]]


def steal_share(before: list[int], after: list[int]) -> float:
    """Share of CPU time the hypervisor took from this machine between
    two :func:`cpu_ticks` readings (noise from other guests)."""
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if len(delta) > 7 and sum(delta) else 0.0


# -- measured process launches ------------------------------------------------
def program_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


@dataclass
class Run:
    wall_s: float
    returncode: int
    stdout: str
    stderr: str
    maxrss_mb: float
    pid: int = 0
    timed_out: bool = False
    started: float = 0.0    #: ``perf_counter`` at launch


def kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def reap(proc: subprocess.Popen, timeout_s: float) -> float:
    """Wait for *proc* (killing its process group after *timeout_s*) and
    return its peak RSS in MiB.

    The figure comes from ``wait4``: the peak RSS of the largest process
    in the tree (the child or any descendant it reaped).
    """
    timer = threading.Timer(timeout_s, kill_group, (proc.pid,))
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss / 1024.0


def run_measured(argv, *, out_dir: Path, timeout_s: float = 150.0) -> Run:
    """Run *argv* in its own session; wall from launch to reaped exit."""
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path, err_path = out_dir / "stdout.txt", out_dir / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT,
                                env=program_env(), start_new_session=True)
        maxrss = reap(proc, timeout_s)
        wall = time.perf_counter() - t0
    return Run(wall, proc.returncode,
               out_path.read_text(errors="replace"),
               err_path.read_text(errors="replace"),
               maxrss, proc.pid,
               timed_out=proc.returncode == -signal.SIGKILL, started=t0)


def python_argv(*args) -> list:
    return [sys.executable, *args]


# -- leak snapshots -----------------------------------------------------------
def shm_segments() -> set:
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("mgsw")}
    except FileNotFoundError:
        return set()


def listening_sockets() -> set:
    found = set()
    for table in ("/proc/net/tcp", "/proc/net/tcp6"):
        try:
            lines = Path(table).read_text().splitlines()[1:]
        except OSError:
            continue
        for line in lines:
            cols = line.split()
            if len(cols) > 3 and cols[3] == "0A":
                found.add(cols[1])
    return found


def _processes():
    """``(pid, ppid, pgid)`` of every live (non-zombie) process."""
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        fields = stat.rsplit(")", 1)[1].split()
        if fields[0] != "Z":
            yield int(entry), int(fields[1]), int(fields[2])


def group_pids(pgid: int) -> set:
    return {pid for pid, _, group in _processes() if group == pgid}


def child_pids() -> set:
    me = os.getpid()
    return {pid for pid, ppid, _ in _processes() if ppid == me}


def zombie_children() -> set:
    """Children of this process that have ended but are not yet reaped."""
    me = os.getpid()
    found = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        fields = stat.rsplit(")", 1)[1].split()
        if fields[0] == "Z" and int(fields[1]) == me:
            found.add(int(entry))
    return found


def reap_zombies() -> None:
    for pid in zombie_children():
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass


def settle(live, timeout_s: float = 5.0) -> None:
    """Wait until ``live()`` is empty (killed processes take a moment to
    go), then reap whatever ended as a child of this process."""
    deadline = time.monotonic() + timeout_s
    while live() and time.monotonic() < deadline:
        time.sleep(0.02)
    reap_zombies()


def adopt_orphans() -> None:
    """Become the child subreaper of every process the benchmark starts.

    A helper that outlives the program that started it (multiprocessing's
    resource tracker exits only after its parent has) is then reparented
    to this process instead of to init, so :func:`leaks_since` can wait
    for it to end and reap it.  A no-op where ``prctl`` is missing.
    """
    import ctypes

    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(36, 1, 0, 0, 0)    # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def stop_children(timeout_s: float = 10.0) -> None:
    """Stop every process this benchmark still has and wait for each.

    The in-process probes may have started multiprocessing's resource
    tracker, which would otherwise outlive the benchmark; any other
    child left gets *timeout_s* to end before it is killed.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        try:
            stop()
        except (OSError, ChildProcessError):
            pass
    deadline = time.monotonic() + timeout_s
    while child_pids() and time.monotonic() < deadline:
        reap_zombies()
        time.sleep(0.02)
    for pid in child_pids():
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    settle(child_pids)


@dataclass
class Snapshot:
    shm: set
    sockets: set
    children: set


def snapshot() -> Snapshot:
    return Snapshot(shm_segments(), listening_sockets(), child_pids())


def leaks_since(before: Snapshot, *, pgid: int | None = None,
                settle_s: float = 2.0) -> list[str]:
    """Resources that appeared since *before* and are still held after a
    short settle period (exiting helpers get that long to go away).

    Leaked processes are killed and leaked segments unlinked afterwards,
    so one leak cannot poison the next operation's diff.
    """
    deadline = time.monotonic() + settle_s
    while True:
        shm = shm_segments() - before.shm
        socks = listening_sockets() - before.sockets
        kids = child_pids() - before.children
        group = group_pids(pgid) if pgid is not None else set()
        if not (shm or socks or kids or group) or time.monotonic() > deadline:
            break
        time.sleep(0.05)
    found = [f"shm:{n}" for n in sorted(shm)]
    found += [f"socket:{s}" for s in sorted(socks)]
    found += [f"pid:{p}" for p in sorted(kids | group)]
    for name in shm:
        try:
            os.unlink(f"/dev/shm/{name}")
        except OSError:
            pass
    if pgid is not None and group:
        kill_group(pgid)
        settle(lambda: group_pids(pgid))
    for pid in kids:
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass
    reap_zombies()
    return found


# -- output parsing -----------------------------------------------------------
BEST_RE = re.compile(r"best score: (-?\d+) ending at \((-?\d+), (-?\d+)\)")
TIER_RE = re.compile(r"answered_by=(\w+)")


def parse_best(stdout: str) -> tuple[int, int, int] | None:
    m = BEST_RE.search(stdout)
    return (int(m[1]), int(m[2]), int(m[3])) if m else None


def parse_tier(stdout: str) -> str | None:
    m = TIER_RE.search(stdout)
    return m[1] if m else None
