"""Tests: Chrome trace export + wall-clock spans from real processes.

The second half is the cross-process recorder suite: spans recorded by
:class:`~repro.device.trace.WallClockRecorder` in genuinely spawned
worker processes, all against ONE origin sampled in the parent, must
merge into a single coherent :class:`~repro.device.trace.Tracer` — the
overlap/concurrency queries and the Chrome exporter have to work on the
result exactly as they do for simulated runs.
"""

from __future__ import annotations

import multiprocessing as mp
import time

import pytest

from repro.device.trace import (
    KINDS,
    Tracer,
    WallClockRecorder,
    merge_wall_records,
    render_gantt,
)
from repro.errors import ObsError
from repro.obs import (
    KIND_COLOURS,
    load_chrome_trace,
    tracer_to_chrome,
    validate_chrome_trace,
    write_chrome_trace,
)


def _span_worker(actor: str, origin: float, kinds: list, out_queue,
                 start) -> None:
    """Record one span per kind against the parent's shared origin,
    once every worker has started (*start* is a shared barrier)."""
    start.wait(timeout=60.0)
    recorder = WallClockRecorder(origin)
    for kind in kinds:
        with recorder.span(kind):
            time.sleep(0.02)
    out_queue.put((actor, recorder.records))


class TestChromeExport:
    def _tracer(self) -> Tracer:
        t = Tracer()
        t.record("gpu0", "compute", 0.0, 1.0)
        t.record("gpu0", "d2h", 1.0, 1.25)
        t.record("gpu1", "wait", 0.0, 1.25)
        t.record("gpu1", "pruned", 1.25, 1.25)
        return t

    def test_one_track_per_actor_with_names_and_order(self):
        doc = tracer_to_chrome(self._tracer())
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        names = {e["args"]["name"]: e["tid"] for e in meta
                 if e["name"] == "thread_name"}
        assert names == {"gpu0": 1, "gpu1": 2}
        sort = {e["tid"]: e["args"]["sort_index"] for e in meta
                if e["name"] == "thread_sort_index"}
        assert sort == {1: 1, 2: 2}
        assert any(e["name"] == "process_name" and e["args"]["name"] == "mgsw"
                   for e in meta)

    def test_intervals_become_microsecond_complete_events(self):
        doc = tracer_to_chrome(self._tracer())
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(xs) == 4
        compute = next(e for e in xs if e["name"] == "compute")
        assert compute["ts"] == 0.0
        assert compute["dur"] == pytest.approx(1e6)
        d2h = next(e for e in xs if e["name"] == "d2h")
        assert d2h["ts"] == pytest.approx(1e6)
        assert d2h["dur"] == pytest.approx(0.25e6)

    def test_every_kind_has_a_colour(self):
        assert set(KIND_COLOURS) == set(KINDS)
        doc = tracer_to_chrome(self._tracer())
        for e in doc["traceEvents"]:
            if e["ph"] == "X":
                assert e["cname"] == KIND_COLOURS[e["name"]]

    def test_other_data_carries_clamp_count(self):
        t = self._tracer()
        t.clamped_records = 3
        doc = tracer_to_chrome(t)
        assert doc["otherData"]["clamped_records"] == 3
        assert doc["otherData"]["actors"] == ["gpu0", "gpu1"]

    def test_validate_accepts_own_output(self):
        validate_chrome_trace(tracer_to_chrome(self._tracer()))

    def test_validate_rejects_array_form(self):
        with pytest.raises(ObsError):
            validate_chrome_trace([{"ph": "X"}])

    def test_validate_rejects_negative_duration(self):
        doc = tracer_to_chrome(self._tracer())
        doc["traceEvents"][-1] = {"ph": "X", "pid": 1, "tid": 1,
                                  "name": "compute", "ts": 0, "dur": -1}
        with pytest.raises(ObsError, match="dur"):
            validate_chrome_trace(doc)

    def test_validate_rejects_missing_phase(self):
        with pytest.raises(ObsError, match="ph"):
            validate_chrome_trace({"traceEvents": [{"pid": 1, "tid": 1}]})

    def test_write_load_roundtrip(self, tmp_path):
        doc = tracer_to_chrome(self._tracer())
        path = write_chrome_trace(tmp_path / "trace.json", self._tracer())
        assert load_chrome_trace(path) == doc

    def test_write_accepts_prebuilt_document(self, tmp_path):
        doc = tracer_to_chrome(self._tracer())
        path = write_chrome_trace(tmp_path / "trace.json", doc)
        assert load_chrome_trace(path) == doc


class TestWallRecordsAcrossProcesses:
    """The satellite suite: real spawned processes, one shared origin."""

    def _collect(self, ctx, plans: dict[str, list]) -> Tracer:
        origin = time.perf_counter()
        queue = ctx.Queue()
        # Spawn skew can exceed a worker's whole span budget; the barrier
        # starts every worker's spans together.
        start = ctx.Barrier(len(plans))
        procs = [ctx.Process(target=_span_worker,
                             args=(actor, origin, kinds, queue, start))
                 for actor, kinds in plans.items()]
        for p in procs:
            p.start()
        # Queue messages arrive in completion order, not plans order, so
        # each worker ships its own actor name alongside its records.
        records = [queue.get(timeout=60.0) for _ in procs]
        for p in procs:
            p.join(timeout=30.0)
            assert p.exitcode == 0
        tracer = Tracer()
        for actor, recs in sorted(records):
            merge_wall_records(tracer, actor, recs)
        return tracer

    def test_spawned_processes_share_one_time_base(self):
        """Spans from different spawned processes land on one coherent
        timeline: all positive, all while the parent was waiting."""
        ctx = mp.get_context("spawn")
        t0 = time.perf_counter()
        tracer = self._collect(ctx, {"w0": ["compute", "d2h"],
                                     "w1": ["wait", "compute"]})
        elapsed = time.perf_counter() - t0
        assert tracer.actors() == ["w0", "w1"]
        for iv in tracer.intervals:
            assert 0.0 <= iv.start <= iv.end <= elapsed
        assert tracer.total("w0", "compute") >= 0.02
        assert tracer.total("w1", "wait") >= 0.02
        assert tracer.clamped_records == 0

    def test_overlap_query_on_concurrent_workers(self):
        """Two workers sleeping 20ms+ simultaneously must show real overlap
        between one's compute and the other's wait."""
        ctx = mp.get_context("spawn")
        tracer = self._collect(ctx, {"w0": ["compute"] * 5,
                                     "w1": ["wait"] * 5})
        # Both ran ~100ms concurrently; demand a loose quarter of it.
        assert tracer.overlap("w0", "compute", "w1", "wait") > 0.025
        profile = tracer.concurrency_profile("compute")
        assert profile  # w0's spans show up in the step function

    def test_exporter_roundtrip_from_process_records(self, tmp_path):
        ctx = mp.get_context("spawn")
        tracer = self._collect(ctx, {"w0": ["compute"], "w1": ["compute"]})
        path = write_chrome_trace(tmp_path / "trace.json", tracer)
        doc = load_chrome_trace(path)
        validate_chrome_trace(doc)
        assert doc["otherData"]["actors"] == ["w0", "w1"]
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(xs) == len(tracer.intervals)
        assert render_gantt(tracer)  # and the ASCII view still renders

    def test_fork_context_matches(self):
        if "fork" not in mp.get_all_start_methods():
            pytest.skip("no fork on this platform")
        tracer = self._collect(mp.get_context("fork"), {"w0": ["compute"]})
        assert tracer.total("w0", "compute") >= 0.02


class TestClampCounting:
    def test_clamped_records_counted_and_accumulated(self):
        tracer = Tracer()
        clamped = merge_wall_records(tracer, "w", [
            ("compute", -0.01, 0.5),   # starts before the origin
            ("compute", 0.5, 0.4),     # ends before it starts
            ("compute", 0.6, 0.7),     # fine
        ])
        assert clamped == 2
        assert tracer.clamped_records == 2
        merge_wall_records(tracer, "w", [("wait", -0.001, 0.1)])
        assert tracer.clamped_records == 3
        # Clamped spans are still legal intervals.
        for iv in tracer.intervals:
            assert iv.start >= 0.0 and iv.end >= iv.start

    def test_clean_merge_counts_zero(self):
        tracer = Tracer()
        assert merge_wall_records(tracer, "w", [("compute", 0.0, 1.0)]) == 0
        assert tracer.clamped_records == 0


class TestGanttTieBreak:
    def test_equal_durations_pick_fixed_kind_priority(self):
        """On an exact duration tie within a bucket the earlier kind in
        KINDS wins (compute > transfers > wait), whatever the recording
        order — charts are deterministic."""
        for order in (("compute", "wait"), ("wait", "compute")):
            t = Tracer()
            for kind in order:
                t.record("a", kind, 0.0, 1.0)
            chart = render_gantt(t, width=10)
            row = chart.splitlines()[0]
            assert "#" in row and "." not in row

    def test_d2h_beats_h2d_on_tie(self):
        t = Tracer()
        t.record("a", "h2d", 0.0, 1.0)
        t.record("a", "d2h", 0.0, 1.0)
        row = render_gantt(t, width=10).splitlines()[0]
        assert ">" in row and "<" not in row
