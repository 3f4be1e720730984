"""Unified telemetry: metrics, run manifests, trace export, watchdogs.

The observability subsystem every engine emits into (see INTERNALS.md
section 8 for the architecture):

* :mod:`repro.obs.registry` — labelled counter/gauge/histogram registry
  with spawn-safe snapshot-and-merge across worker processes, exported
  as JSON or Prometheus text;
* :mod:`repro.obs.instruments` — the standard per-engine instrument set
  (``blocks_computed{device=...}``, border byte counters, block-sweep
  latency histograms);
* :mod:`repro.obs.manifest` — durable per-run manifests (run id, config,
  sequence digests, versions, result + metrics snapshots);
* :mod:`repro.obs.chrometrace` — Chrome trace-event export of
  :class:`~repro.device.trace.Tracer` timelines (loadable in Perfetto);
* :mod:`repro.obs.heartbeat` — the stall watchdog, fed the timeline
  sampler's frames of the shared-memory
  :class:`~repro.comm.progress.ProgressBoard`;
* :mod:`repro.obs.diff` — regression diff between two manifest/benchmark
  JSON documents (``mgsw perf diff``);
* :mod:`repro.obs.timeseries` — live time-series sampler over the
  progress board (bounded frame ring, ETA, ``timeline.jsonl`` spill);
* :mod:`repro.obs.events` — append-only structured event journal of run
  lifecycle events (``events.jsonl``);
* :mod:`repro.obs.exporter` — streaming status endpoint (``/metrics``
  Prometheus text + ``/status`` JSON) for a running comparison.

Sections 8 and 13 of INTERNALS.md cover the post-hoc and live halves
respectively.
"""

from .chrometrace import (
    KIND_COLOURS,
    load_chrome_trace,
    tracer_to_chrome,
    validate_chrome_trace,
    write_chrome_trace,
)
from .diff import DiffEntry, diff_documents, flatten_scalars, format_diff
from .events import EVENT_KINDS, EventJournal, read_events, validate_event
from .exporter import StatusServer
from .heartbeat import DEFAULT_STALL_AFTER_S, HeartbeatMonitor, StallReport
from .instruments import EngineInstruments, finalize_run_metrics
from .manifest import (
    MANIFEST_SCHEMA,
    build_manifest,
    load_manifest,
    sequence_digest,
    validate_manifest,
    write_manifest,
)
from .registry import Counter, Gauge, Histogram, MetricsRegistry
from .timeseries import (
    TimelineFrame,
    TimeSeriesSampler,
    WorkerFrame,
    read_timeline,
)

__all__ = [
    "Counter",
    "DEFAULT_STALL_AFTER_S",
    "DiffEntry",
    "EVENT_KINDS",
    "EngineInstruments",
    "EventJournal",
    "Gauge",
    "HeartbeatMonitor",
    "Histogram",
    "KIND_COLOURS",
    "MANIFEST_SCHEMA",
    "MetricsRegistry",
    "StallReport",
    "StatusServer",
    "TimeSeriesSampler",
    "TimelineFrame",
    "WorkerFrame",
    "build_manifest",
    "diff_documents",
    "finalize_run_metrics",
    "flatten_scalars",
    "format_diff",
    "load_chrome_trace",
    "load_manifest",
    "read_events",
    "read_timeline",
    "sequence_digest",
    "validate_event",
    "tracer_to_chrome",
    "validate_chrome_trace",
    "validate_manifest",
    "write_chrome_trace",
    "write_manifest",
]
