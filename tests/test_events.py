"""Tests: the structured event journal (repro.obs.events, INTERNALS.md §13)."""

from __future__ import annotations

import json

import pytest

from repro.errors import ObsError
from repro.obs import EVENT_KINDS, EventJournal, read_events, validate_event
from repro.obs.events import EVENT_SCHEMA


class TestEmission:
    def test_emit_returns_validated_record(self):
        journal = EventJournal(run_id="r1")
        rec = journal.emit("run_start", backend="process", rows=100, cols=200)
        validate_event(rec)
        assert rec["event"] == "run_start"
        assert rec["run_id"] == "r1"
        assert rec["backend"] == "process"
        assert rec["rows"] == 100
        assert rec["seq"] == 0

    def test_unknown_kind_raises(self):
        journal = EventJournal()
        with pytest.raises(ObsError, match="unknown event kind"):
            journal.emit("worker_sneeze")
        assert journal.count() == 0

    def test_correlation_ids_are_ints_and_optional(self):
        journal = EventJournal()
        rec = journal.emit("worker_spawn", worker=1, attempt=0, pid=4321)
        assert rec["worker"] == 1 and rec["attempt"] == 0
        run_scoped = journal.emit("run_end", status="ok")
        assert "worker" not in run_scoped and "attempt" not in run_scoped

    def test_none_fields_are_dropped(self):
        rec = EventJournal().emit("run_end", status="ok", detail=None)
        assert "detail" not in rec

    def test_non_serialisable_field_fails_fast(self):
        journal = EventJournal()
        with pytest.raises(TypeError):
            journal.emit("run_start", board=object())
        # The failed emit must not have been journaled.
        assert journal.count() == 0

    def test_seq_is_dense_and_ordered(self):
        journal = EventJournal()
        for _ in range(5):
            journal.emit("checkpoint", attempt=0)
        assert [rec["seq"] for rec in journal.recent()] == list(range(5))

    def test_default_run_id_is_fresh_uuid_hex(self):
        a, b = EventJournal(), EventJournal()
        assert a.run_id != b.run_id
        assert len(a.run_id) == 32


class TestTailAndCounts:
    def test_recent_is_bounded_ring(self):
        journal = EventJournal(recent=3)
        for i in range(10):
            journal.emit("checkpoint", attempt=i)
        tail = journal.recent()
        assert [rec["attempt"] for rec in tail] == [7, 8, 9]
        assert journal.count() == 10          # total survives the ring
        assert journal.count("checkpoint") == 10  # and so do kind counts

    def test_kind_counts_survive_ring_eviction(self):
        # Regression: count(kind) used to scan the bounded ring, so any
        # journal older than `recent` events silently under-reported —
        # count("worker_spawn") could return 0 for a run that spawned
        # dozens of workers.
        journal = EventJournal(recent=4)
        for i in range(25):
            journal.emit("worker_spawn", worker=i)
        for i in range(7):
            journal.emit("checkpoint", attempt=i)
        assert journal.count("worker_spawn") == 25
        assert journal.count("checkpoint") == 7
        assert journal.count("run_end") == 0
        assert journal.count() == 32
        assert len(journal.recent()) == 4  # the ring itself stays bounded

    def test_recent_n_takes_newest(self):
        journal = EventJournal()
        journal.emit("run_start")
        journal.emit("run_end", status="ok")
        assert [r["event"] for r in journal.recent(1)] == ["run_end"]

    def test_recent_must_be_positive(self):
        with pytest.raises(ObsError):
            EventJournal(recent=0)


class TestSpillFile:
    def test_spill_roundtrips_through_read_events(self, tmp_path):
        path = tmp_path / "deep" / "events.jsonl"   # parent dir is created
        with EventJournal(path, run_id="rt") as journal:
            journal.emit("run_start", backend="sim")
            journal.emit("worker_spawn", worker=0, pid=1)
            journal.emit("run_end", status="ok", score=42)
        events = read_events(path)
        assert [rec["event"] for rec in events] == \
            ["run_start", "worker_spawn", "run_end"]
        for rec in events:
            validate_event(rec)
            assert rec["run_id"] == "rt"

    def test_read_events_tolerates_torn_tail(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventJournal(path) as journal:
            journal.emit("run_start")
            journal.emit("run_end", status="ok")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"schema": "mgsw.telemetry.event/v1", "event": "run_')
        events = read_events(path)
        assert [rec["event"] for rec in events] == ["run_start", "run_end"]

    def test_read_events_missing_file_is_empty(self, tmp_path):
        assert read_events(tmp_path / "nope.jsonl") == []

    def test_append_mode_spans_journal_instances(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventJournal(path, run_id="first") as journal:
            journal.emit("run_start")
        with EventJournal(path, run_id="second") as journal:
            journal.emit("run_start")
        assert [rec["run_id"] for rec in read_events(path)] == \
            ["first", "second"]

    def test_close_is_idempotent_and_tail_survives(self, tmp_path):
        journal = EventJournal(tmp_path / "events.jsonl")
        journal.emit("run_start")
        journal.close()
        journal.close()
        assert [rec["event"] for rec in journal.recent()] == ["run_start"]

    def test_spilled_lines_are_plain_json(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventJournal(path) as journal:
            journal.emit("stall", worker=2, silent_s=5.1)
        (line,) = path.read_text().splitlines()
        rec = json.loads(line)
        assert rec["schema"] == EVENT_SCHEMA
        assert rec["worker"] == 2


class TestValidation:
    def test_taxonomy_is_closed_and_documented(self):
        assert len(EVENT_KINDS) == len(set(EVENT_KINDS)) == 14
        assert set(EVENT_KINDS) == {
            "run_start", "worker_spawn", "worker_death", "checkpoint",
            "restart_attempt", "heuristic_escalation", "dtype_escalation",
            "stall", "run_end", "job_submit", "job_reject", "job_cache_hit",
            "job_start", "job_end"}

    def test_validate_event_rejects_bad_records(self):
        good = EventJournal(run_id="v").emit("run_start")
        for mutation in ({"schema": "other/v9"}, {"event": "nope"},
                         {"run_id": 7}, {"ts_unix": "now"}):
            bad = dict(good)
            bad.update(mutation)
            with pytest.raises(ObsError, match="invalid event"):
                validate_event(bad)
