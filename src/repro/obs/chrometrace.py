"""Chrome trace-event export: load any run's timeline in Perfetto.

Converts the :class:`~repro.device.trace.Tracer` interval log — whether
it came from the simulated chain's virtual clock or from
:func:`~repro.device.trace.merge_wall_records` folding real workers'
wall-clock spans — into the Chrome trace-event JSON object format
(``{"traceEvents": [...]}``), which ``ui.perfetto.dev`` and
``chrome://tracing`` both load directly.

Layout: one process, one track (thread) per actor in
:meth:`~repro.device.trace.Tracer.actors` order, named through ``M``
metadata events.  Every interval becomes a complete (``"X"``) event with
its kind as name and category and a stable colour per kind (``cname``),
so pruned and wait spans are visually distinct from compute at a glance.
Timestamps are microseconds, as the format requires; virtual seconds map
to "virtual microseconds" unchanged, which keeps relative durations
exact.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Mapping

from ..device.trace import KINDS, Tracer
from ..errors import ObsError

#: Stable Chrome trace colour name per interval kind (the viewer's
#: reserved palette): compute green, transfers orange/yellow, waits grey,
#: pruned spans a distinct "good news" light green.
KIND_COLOURS = {
    "compute": "thread_state_running",
    "d2h": "thread_state_iowait",
    "h2d": "thread_state_runnable",
    "wait": "thread_state_sleeping",
    "pruned": "good",
    "checkpoint": "grey",
    "recovery": "terrible",
    "warmup": "generic_work",
}

#: Microseconds per tracer time unit (tracer intervals are seconds).
_US_PER_S = 1e6


def tracer_to_chrome(
    tracer: Tracer,
    *,
    process_name: str = "mgsw",
    pid: int = 1,
) -> dict:
    """Render *tracer* as a Chrome trace-event document (see module doc)."""
    events: list[dict] = [{
        "ph": "M", "pid": pid, "tid": 0, "name": "process_name",
        "args": {"name": process_name},
    }]
    tids = {actor: i + 1 for i, actor in enumerate(tracer.actors())}
    for actor, tid in tids.items():
        events.append({
            "ph": "M", "pid": pid, "tid": tid, "name": "thread_name",
            "args": {"name": actor},
        })
        # Keep track order == actor order in the viewer.
        events.append({
            "ph": "M", "pid": pid, "tid": tid, "name": "thread_sort_index",
            "args": {"sort_index": tid},
        })
    for iv in tracer.intervals:
        events.append({
            "ph": "X",
            "pid": pid,
            "tid": tids[iv.actor],
            "name": iv.kind,
            "cat": iv.kind,
            "ts": iv.start * _US_PER_S,
            "dur": iv.duration * _US_PER_S,
            "cname": KIND_COLOURS[iv.kind],
        })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "producer": "repro.obs.chrometrace",
            "kinds": list(KINDS),
            "actors": list(tids),
            "clamped_records": tracer.clamped_records,
        },
    }


def validate_chrome_trace(doc: Mapping) -> None:
    """Raise :class:`ObsError` if *doc* is not a loadable trace-event file.

    Checks the subset of the trace-event format the exporter relies on —
    the object form, per-event phase/pid/tid, and non-negative numeric
    ``ts``/``dur`` on complete events — which is what Perfetto's importer
    requires of our output.
    """
    problems: list[str] = []
    if not isinstance(doc, Mapping):
        raise ObsError("trace must be a JSON object (the object format)")
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        raise ObsError("trace must carry a traceEvents array")
    for i, ev in enumerate(events):
        if not isinstance(ev, Mapping):
            problems.append(f"event {i}: not an object")
            continue
        ph = ev.get("ph")
        if not isinstance(ph, str) or not ph:
            problems.append(f"event {i}: missing phase 'ph'")
            continue
        for key in ("pid", "tid"):
            if not isinstance(ev.get(key), int):
                problems.append(f"event {i}: {key} must be an integer")
        if ph == "X":
            for key in ("ts", "dur"):
                val = ev.get(key)
                if not isinstance(val, (int, float)) or val < 0:
                    problems.append(
                        f"event {i}: complete event needs numeric {key} >= 0")
            if not isinstance(ev.get("name"), str):
                problems.append(f"event {i}: complete event needs a name")
        elif ph == "M" and not isinstance(ev.get("args"), Mapping):
            problems.append(f"event {i}: metadata event needs args")
        if len(problems) >= 20:
            problems.append("... (truncated)")
            break
    if problems:
        raise ObsError("invalid chrome trace: " + "; ".join(problems))


def write_chrome_trace(path: str | Path, tracer: Tracer | Mapping, **kwargs) -> Path:
    """Export *tracer* to *path* as validated trace-event JSON.

    Accepts either a :class:`~repro.device.trace.Tracer` (converted via
    :func:`tracer_to_chrome` with **kwargs**) or an already-built trace
    document.
    """
    doc = dict(tracer) if isinstance(tracer, Mapping) \
        else tracer_to_chrome(tracer, **kwargs)
    validate_chrome_trace(doc)
    path = Path(path)
    path.write_text(json.dumps(doc) + "\n")
    return path


def load_chrome_trace(path: str | Path) -> dict:
    """Load a trace-event JSON file (pair with :func:`validate_chrome_trace`)."""
    with open(path) as fh:
        return json.load(fh)
