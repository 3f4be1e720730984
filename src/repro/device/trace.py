"""Execution tracing: per-actor activity intervals on the virtual clock.

The paper's evaluation reasons about *where time goes* — which device is
computing, which is stalled on a border, when transfers run.  A
:class:`Tracer` records labelled intervals as actors report them and can
answer the questions the figures need:

* per-actor activity totals and utilisation,
* concurrency profile (how many devices compute at once),
* overlap between one actor's compute and another's transfers,
* an ASCII Gantt chart for quick inspection (``render_gantt``).

Tracing is opt-in: the chain engine accepts a tracer and reports compute /
transfer / wait intervals; nothing is recorded otherwise.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from ..errors import SimulationError

#: Interval kinds the chain engines report.  ``pruned`` marks a block row
#: that was skipped by distributed block pruning — recorded as a (near)
#: zero-length span so traces count pruning decisions without charging
#: time for work that never ran.  ``checkpoint`` is a worker publishing
#: its row state into the shared checkpoint area; ``recovery`` is a
#: supervisor span covering teardown + re-partition + resume after a
#: worker failure.  ``warmup`` marks one-time per-process setup (JIT
#: compilation of the compiled kernel backend) that deliberately runs
#: *before* the first block so it never pollutes compute spans or
#: latency histograms.
KINDS = ("compute", "d2h", "h2d", "wait", "pruned", "checkpoint", "recovery",
         "warmup")


@dataclass(frozen=True)
class Interval:
    """One labelled activity span of one actor."""

    actor: str
    kind: str
    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise SimulationError(f"interval ends before it starts: {self!r}")

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    """Collects :class:`Interval` records during a simulation run."""

    intervals: list[Interval] = field(default_factory=list)
    enabled: bool = True
    #: Records whose negative cross-process clock jitter was clamped by
    #: :func:`merge_wall_records` — nonzero values mean the worker clocks
    #: disagreed beyond ``perf_counter`` resolution, worth investigating
    #: rather than silently swallowing.
    clamped_records: int = 0

    def record(self, actor: str, kind: str, start: float, end: float) -> None:
        """Record one span (no-op when disabled; zero-length spans kept)."""
        if not self.enabled:
            return
        if kind not in KINDS:
            raise SimulationError(f"unknown interval kind {kind!r}; expected one of {KINDS}")
        self.intervals.append(Interval(actor, kind, start, end))

    # -- queries ------------------------------------------------------------
    def actors(self) -> list[str]:
        return sorted({iv.actor for iv in self.intervals})

    def total(self, actor: str, kind: str | None = None) -> float:
        """Summed duration for an actor (optionally one kind)."""
        return sum(
            iv.duration
            for iv in self.intervals
            if iv.actor == actor and (kind is None or iv.kind == kind)
        )

    def utilisation(self, actor: str, makespan: float, kind: str = "compute") -> float:
        """Fraction of *makespan* the actor spent in *kind* intervals."""
        if makespan <= 0:
            raise SimulationError("makespan must be positive")
        return self.total(actor, kind) / makespan

    def concurrency_profile(self, kind: str = "compute") -> list[tuple[float, int]]:
        """Step function of how many actors are simultaneously in *kind*.

        Returns ``[(time, active_count), ...]`` sorted by time; each entry
        holds until the next one.
        """
        events: list[tuple[float, int]] = []
        for iv in self.intervals:
            if iv.kind != kind or iv.duration == 0:
                continue
            events.append((iv.start, +1))
            events.append((iv.end, -1))
        events.sort()
        profile: list[tuple[float, int]] = []
        active = 0
        for t, delta in events:
            active += delta
            if profile and profile[-1][0] == t:
                profile[-1] = (t, active)
            else:
                profile.append((t, active))
        return profile

    def mean_concurrency(self, makespan: float, kind: str = "compute") -> float:
        """Time-averaged number of actors simultaneously in *kind*."""
        if makespan <= 0:
            raise SimulationError("makespan must be positive")
        profile = self.concurrency_profile(kind)
        if not profile:
            return 0.0
        area = 0.0
        for (t0, n), (t1, _n2) in zip(profile, profile[1:]):
            area += n * (t1 - t0)
        # last step runs to the makespan
        area += profile[-1][1] * max(0.0, makespan - profile[-1][0])
        return area / makespan

    def overlap(self, actor_a: str, kind_a: str, actor_b: str, kind_b: str) -> float:
        """Total time actor_a:kind_a and actor_b:kind_b run simultaneously.

        The quantity behind the paper's hiding claim: communication is
        hidden exactly when the channel's transfer intervals overlap the
        producer's compute intervals.
        """
        ivs_a = sorted(
            (iv.start, iv.end) for iv in self.intervals
            if iv.actor == actor_a and iv.kind == kind_a and iv.duration > 0
        )
        ivs_b = sorted(
            (iv.start, iv.end) for iv in self.intervals
            if iv.actor == actor_b and iv.kind == kind_b and iv.duration > 0
        )
        total = 0.0
        i = j = 0
        while i < len(ivs_a) and j < len(ivs_b):
            lo = max(ivs_a[i][0], ivs_b[j][0])
            hi = min(ivs_a[i][1], ivs_b[j][1])
            if hi > lo:
                total += hi - lo
            if ivs_a[i][1] <= ivs_b[j][1]:
                i += 1
            else:
                j += 1
        return total


class WallClockRecorder:
    """Wall-clock adapter for :class:`Tracer`: records real intervals.

    The simulated chain reports virtual-clock intervals straight into a
    :class:`Tracer`; real-process workers instead carry one of these,
    time their phases with ``time.perf_counter()`` against a shared
    *origin* (sampled once in the parent before the workers start), and
    ship the plain ``(kind, start, end)`` tuples back over the result
    queue.  :func:`merge_wall_records` then folds them into a
    :class:`Tracer` so every query — totals, utilisation, concurrency,
    overlap, the Gantt rendering — works identically for simulated and
    real runs.

    ``perf_counter`` is system-wide monotonic on the supported platforms,
    so intervals recorded in different processes share a time base.
    """

    def __init__(self, origin: float | None = None) -> None:
        self.origin = time.perf_counter() if origin is None else origin
        self.records: list[tuple[str, float, float]] = []

    @contextmanager
    def span(self, kind: str):
        """Record the wrapped statements as one *kind* interval."""
        if kind not in KINDS:
            raise SimulationError(f"unknown interval kind {kind!r}; expected one of {KINDS}")
        start = time.perf_counter() - self.origin
        try:
            yield
        finally:
            self.records.append((kind, start, time.perf_counter() - self.origin))


def merge_wall_records(
    tracer: Tracer, actor: str, records: list[tuple[str, float, float]]
) -> int:
    """Fold one worker's :class:`WallClockRecorder` output into *tracer*.

    Sub-resolution clock jitter across processes can produce spans that
    start before the shared origin or end before they start; those are
    clamped to legal intervals, **counted**, and the count is both
    returned and accumulated on ``tracer.clamped_records`` — cross-process
    clock skew stays visible instead of being swallowed.
    """
    clamped = 0
    for kind, start, end in records:
        if start < 0.0 or end < start:
            clamped += 1
        tracer.record(actor, kind, max(0.0, start), max(0.0, start, end))
    tracer.clamped_records += clamped
    return clamped


#: Glyph per interval kind in the Gantt rendering.
_GLYPHS = {"compute": "#", "d2h": ">", "h2d": "<", "wait": ".", "pruned": "x",
           "checkpoint": "c", "recovery": "!", "warmup": "w"}

#: Fixed tie-break priority for bucket glyphs: on equal durations the
#: *earlier* kind in :data:`KINDS` wins (compute over transfers over
#: waits), so charts are deterministic regardless of recording order.
_KIND_PRIORITY = {kind: len(KINDS) - i for i, kind in enumerate(KINDS)}


def render_gantt(tracer: Tracer, *, width: int = 100, makespan: float | None = None) -> str:
    """ASCII Gantt chart: one row per actor, *width* time buckets.

    Each bucket shows the kind that dominates it (compute ``#``, D2H ``>``,
    H2D ``<``, wait ``.``, idle space).  Zero-cost and sub-bucket intervals
    may be invisible; the chart is for eyeballing, the queries above are
    for asserting.
    """
    if width <= 0:
        raise SimulationError("width must be positive")
    if not tracer.intervals:
        return "(no intervals recorded)"
    end = makespan if makespan is not None else max(iv.end for iv in tracer.intervals)
    if end <= 0:
        return "(zero-length trace)"
    bucket = end / width

    lines = []
    label_w = max(len(a) for a in tracer.actors())
    for actor in tracer.actors():
        ivs = [iv for iv in tracer.intervals if iv.actor == actor and iv.duration > 0]
        per_bucket: list[dict[str, float]] = [dict() for _ in range(width)]
        for iv in ivs:
            b0 = min(width - 1, int(iv.start / bucket))
            b1 = min(width - 1, int(iv.end / bucket))
            for b in range(b0, b1 + 1):
                lo = max(iv.start, b * bucket)
                hi = min(iv.end, (b + 1) * bucket)
                if hi > lo:
                    per_bucket[b][iv.kind] = per_bucket[b].get(iv.kind, 0.0) + (hi - lo)
        row = []
        for b in range(width):
            if not per_bucket[b]:
                row.append(" ")
            else:
                kind = max(per_bucket[b],
                           key=lambda k: (per_bucket[b][k], _KIND_PRIORITY[k]))
                row.append(_GLYPHS[kind])
        lines.append(f"{actor.ljust(label_w)} |{''.join(row)}|")
    legend = ("legend: # compute   > D2H   < H2D   . wait   x pruned"
              "   c checkpoint   ! recovery   (space) idle")
    scale = f"0 {'-' * (label_w + width - 10)} {end:.3g}s"
    return "\n".join([*lines, legend, scale])
