"""Integration tests for the live-telemetry stack (INTERNALS.md §13).

The unit suites (test_events / test_timeseries / test_exporter) pin the
pieces; this module pins the *wiring*: the engines journal the event
sequences the docs promise, the sampler rides a real run including
checkpoint recovery, the watchdog emits exactly one ``stall`` event per
episode, `mgsw top`'s renderer singles out a stalled worker, and a
mid-run ``/status`` scrape sees monotonically increasing progress with a
finite ETA — the acceptance criteria of the live-telemetry change.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.request

import numpy as np
import pytest

from repro.comm.progress import ProgressBoard
from repro.device import ENV1_HETEROGENEOUS
from repro.multigpu import WorkerPool, align_multi_gpu, align_multi_process
from repro.obs import (
    EventJournal,
    MetricsRegistry,
    StatusServer,
    TimeSeriesSampler,
)
from repro.obs.heartbeat import HeartbeatMonitor
from repro.perf.report import timeline_report, top_table
from repro.seq import DNA_DEFAULT
from repro.sw import sw_score_naive
from repro.workloads import random_dna

from helpers import random_codes


def _kinds(journal):
    return [rec["event"] for rec in journal.recent()]


class TestProcessEngineJournal:
    def test_successful_run_event_sequence(self, rng):
        a, b = random_codes(rng, 160), random_codes(rng, 150)
        journal = EventJournal()
        sampler = TimeSeriesSampler(interval_s=0.01)
        res = align_multi_process(a, b, DNA_DEFAULT, workers=2, block_rows=32,
                                  events=journal, timeline=sampler)
        sampler.close()
        kinds = _kinds(journal)
        assert kinds[0] == "run_start"
        assert kinds.count("worker_spawn") == 2
        assert kinds[-1] == "run_end"
        start = journal.recent()[0]
        end = journal.recent()[-1]
        assert start["backend"] == "process" and start["workers"] == 2
        assert (start["rows"], start["cols"]) == (160, 150)
        assert end["status"] == "ok" and end["score"] == res.score
        assert end["run_id"] == start["run_id"] == journal.run_id
        # The sampler's final frame covers the whole matrix.
        final = sampler.current()
        assert final is not None
        assert final.rows_done == final.rows_target == 160 * 2

    def test_recovery_run_journals_the_whole_story(self, rng):
        a, b = random_codes(rng, 192), random_codes(rng, 180)
        want, *_ = sw_score_naive(a, b, DNA_DEFAULT)
        journal = EventJournal()
        sampler = TimeSeriesSampler(interval_s=0.01)
        res = align_multi_process(a, b, DNA_DEFAULT, workers=2, block_rows=32,
                                  max_restarts=2, events=journal,
                                  timeline=sampler, _fault=(1, 3))
        sampler.close()
        assert res.score == want and res.restarts >= 1
        kinds = _kinds(journal)
        assert kinds[0] == "run_start" and kinds[-1] == "run_end"
        assert kinds.count("run_start") == kinds.count("run_end") == 1
        assert journal.count("worker_death") >= 1
        assert journal.count("checkpoint") >= 1
        assert journal.count("restart_attempt") >= 1
        # Ordering: every death precedes the checkpoint that answers it,
        # which precedes the restart attempt.
        assert kinds.index("worker_death") < kinds.index("checkpoint") \
            < kinds.index("restart_attempt")
        restart = next(r for r in journal.recent()
                       if r["event"] == "restart_attempt")
        assert restart["attempt"] >= 1 and restart["resume_row"] >= 0
        assert journal.recent()[-1]["status"] == "ok"
        # The one timeline spans both attempts (frames from attempt >= 1).
        assert any(f.attempt >= 1 for f in sampler.frames())

    def test_failed_run_journals_run_end_failed(self, rng):
        a, b = random_codes(rng, 96), random_codes(rng, 96)
        journal = EventJournal()
        with pytest.raises(RuntimeError):
            align_multi_process(a, b, DNA_DEFAULT, workers=2, block_rows=32,
                                events=journal, _fault=(0, 1))
        kinds = _kinds(journal)
        assert journal.count("worker_death") >= 1
        assert kinds[-1] == "run_end"
        assert journal.recent()[-1]["status"] == "failed"

    def test_escalating_auto_run_reuses_its_workers(self, rng):
        """A divergent pair escalates banded -> exact on the same live
        chain: one spawn per worker, not one per tier."""
        a, b = random_codes(rng, 300), random_codes(rng, 300)
        want, *_ = sw_score_naive(a, b, DNA_DEFAULT)
        journal = EventJournal()
        res = align_multi_process(a, b, DNA_DEFAULT, workers=2, block_rows=64,
                                  mode="auto", events=journal)
        assert res.escalated and res.tier == "exact" and res.score == want
        assert journal.count("heuristic_escalation") == 1
        assert journal.count("worker_spawn") == 2
        kinds = _kinds(journal)
        assert kinds.count("run_start") == kinds.count("run_end") == 1

    def test_xdrop_run_spawns_no_worker(self, rng):
        a, b = random_codes(rng, 120), random_codes(rng, 120)
        journal = EventJournal()
        res = align_multi_process(a, b, DNA_DEFAULT, workers=2, mode="xdrop",
                                  events=journal)
        assert res.tier == "xdrop" and res.workers == 0
        assert journal.count("worker_spawn") == 0
        assert _kinds(journal) == ["run_start", "run_end"]

    def test_pruning_differential_with_sampler_armed(self, rng):
        a = random_codes(rng, 200)
        b = np.concatenate([a[40:170], random_codes(rng, 60)])
        want, *_ = sw_score_naive(a, b, DNA_DEFAULT)
        journal = EventJournal()
        registry = MetricsRegistry()
        with TimeSeriesSampler(interval_s=0.01, registry=registry) as sampler:
            res = align_multi_process(a, b, DNA_DEFAULT, workers=2,
                                      block_rows=16, pruning=True,
                                      metrics=registry, events=journal,
                                      timeline=sampler)
        assert res.score == want
        assert journal.recent()[-1]["status"] == "ok"


class TestSimEngineJournal:
    def test_sim_run_event_sequence(self, rng):
        a, b = random_codes(rng, 96), random_codes(rng, 90)
        journal = EventJournal()
        res = align_multi_gpu(a, b, DNA_DEFAULT, ENV1_HETEROGENEOUS,
                              events=journal)
        kinds = _kinds(journal)
        assert kinds[0] == "run_start" and kinds[-1] == "run_end"
        start, end = journal.recent()[0], journal.recent()[-1]
        assert start["backend"] == "sim"
        assert start["devices"] == len(ENV1_HETEROGENEOUS)
        assert end["status"] == "ok" and end["score"] == res.score
        assert end["virtual_time_s"] > 0


class TestPoolJournal:
    def test_pool_spawns_and_aligns_are_journaled(self, rng):
        a, b = random_codes(rng, 128), random_codes(rng, 120)
        journal = EventJournal()
        sampler = TimeSeriesSampler(interval_s=0.01)
        with WorkerPool(2, max_block_rows=64, events=journal) as pool:
            assert journal.count("worker_spawn") == 2
            assert all(rec["pool"] for rec in journal.recent()
                       if rec["event"] == "worker_spawn")
            pool.align(a, b, DNA_DEFAULT, block_rows=32, timeline=sampler)
            pool.align(b, a, DNA_DEFAULT, block_rows=32, timeline=sampler)
        sampler.close()
        kinds = _kinds(journal)
        assert kinds.count("run_start") == kinds.count("run_end") == 2
        assert all(rec["backend"] == "pool" for rec in journal.recent()
                   if rec["event"] == "run_start")
        # One sampler, two comparisons: the second align re-attached.
        attempts = {f.rows_target for f in sampler.frames()}
        assert 128 * 2 in attempts and 120 * 2 in attempts

    def test_rebalance_decision_emits_slab_rebalance(self, monkeypatch):
        import importlib

        autotune = importlib.import_module("repro.multigpu.autotune")
        journal = EventJournal()
        with WorkerPool(2, max_block_rows=64, events=journal) as pool:
            monkeypatch.setattr(autotune, "estimate_capacities",
                                lambda reports, slabs, rows: [300.0, 100.0])
            pool._apply_rebalance(None, None, 0, 0.25, None)
        (rec,) = [r for r in journal.recent()
                  if r["event"] == "slab_rebalance"]
        assert rec["old_weights"] == [1.0, 1.0]
        assert rec["new_weights"][0] > rec["new_weights"][1]
        assert pool.weights[0] > pool.weights[1]


class TestStallEpisodes:
    def test_exactly_one_stall_event_per_episode(self):
        board = ProgressBoard(2, label="stall-test")
        journal = EventJournal()
        monitor = HeartbeatMonitor(board, stall_after_s=0.05,
                                   events=journal)
        sampler = TimeSeriesSampler(interval_s=3600.0)
        sampler.attach(board, rows=10, cols_per_worker=[5, 5],
                       watchdog=monitor)
        try:
            board.beat(0, 3, "compute")
            time.sleep(0.08)
            sampler.sample_once()
            sampler.sample_once()    # still the same episode: no new event
            sampler.sample_once()
            assert journal.count("stall") == 1
            # The worker resumes beating: the episode ends, the flag re-arms.
            board.beat(0, 4, "compute")
            sampler.sample_once()
            assert journal.count("stall") == 1
            # A second silence is a new episode: exactly one more event.
            time.sleep(0.08)
            sampler.sample_once()
            sampler.sample_once()
            assert journal.count("stall") == 2
            stalls = [r for r in journal.recent() if r["event"] == "stall"]
            assert [r["worker"] for r in stalls] == [0, 0]
            assert stalls[0]["rows_done"] == 3
            assert stalls[1]["rows_done"] == 4
            assert all("hard" not in r for r in stalls)
        finally:
            sampler.detach()
            board.unlink()

    def test_hard_stall_emits_once_with_hard_flag(self):
        board = ProgressBoard(1, label="hard-stall-test")
        journal = EventJournal()
        killed = []
        monitor = HeartbeatMonitor(board, stall_after_s=0.02,
                                   hard_stall_s=0.06,
                                   on_hard_stall=killed.append,
                                   events=journal)
        sampler = TimeSeriesSampler(interval_s=3600.0)
        sampler.attach(board, rows=10, cols_per_worker=[10],
                       watchdog=monitor)
        try:
            board.beat(0, 1, "wait")
            time.sleep(0.1)
            sampler.sample_once()
            sampler.sample_once()
            stalls = [r for r in journal.recent() if r["event"] == "stall"]
            # One soft flag + one hard escalation, both for worker 0.
            assert len(stalls) == 2
            assert [r.get("hard") for r in stalls] == [None, True]
            assert len(killed) == 1
        finally:
            sampler.detach()
            board.unlink()


class _ThreadCensus(TimeSeriesSampler):
    """A sampler that lists the live threads at every periodic sample."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.census: list[list[str]] = []

    def sample_once(self):
        if threading.current_thread().name == "mgsw-timeseries":
            self.census.append([t.name for t in threading.enumerate()])
        return super().sample_once()


class TestOneBoardReader:
    def test_one_sampler_thread_serves_watchdog_and_rebalance(self, rng):
        """Stall watchdog, re-balancing and timeline together run one
        parent thread over the progress board."""
        a, b = random_codes(rng, 2400), random_codes(rng, 4000)
        sampler = _ThreadCensus(interval_s=0.01)
        with WorkerPool(2, max_block_rows=64) as pool:
            pool.align(a, b, DNA_DEFAULT, block_rows=64, heartbeat_s=30.0,
                       rebalance=True, timeline=sampler)
        sampler.close()
        assert sampler.census, "no periodic sample fired during the run"
        for names in sampler.census:
            assert names.count("mgsw-timeseries") == 1, names
            assert not {"mgsw-heartbeat", "mgsw-rate-sampler"} & set(names)

    def test_stall_warnings_match_the_timeline(self, rng):
        """on_stall and the timeline frames share one stall threshold:
        every worker reported stalled is flagged in some frame."""
        a, b = random_codes(rng, 700), random_codes(rng, 900)
        stalls = []
        sampler = TimeSeriesSampler(interval_s=0.05)
        with pytest.raises(RuntimeError):
            align_multi_process(a, b, DNA_DEFAULT, workers=3, block_rows=64,
                                heartbeat_s=0.5, on_stall=stalls.append,
                                timeline=sampler, _fault=(1, 3))
        sampler.close()
        assert stalls
        flagged = {w.worker for f in sampler.frames() for w in f.workers
                   if w.stalled}
        assert {s.worker for s in stalls} <= flagged


class TestTopRenderer:
    def _frame(self, sampler_board):
        sampler = TimeSeriesSampler(interval_s=3600.0)
        sampler.attach(sampler_board, rows=100, cols_per_worker=[50, 50],
                       watchdog=HeartbeatMonitor(sampler_board,
                                                 stall_after_s=0.05))
        sampler_board.beat(0, 10, "compute")
        sampler_board.beat(1, 20, "compute")
        time.sleep(0.08)
        sampler_board.beat(1, 30, "send")   # worker 1 healthy, 0 stalled
        frame = sampler.sample_once()
        sampler.detach()
        return frame

    def test_stalled_worker_renders_distinctly(self):
        board = ProgressBoard(2, label="top-test")
        try:
            frame = self._frame(board)
        finally:
            board.unlink()
        assert frame.workers[0].stalled and not frame.workers[1].stalled
        text = top_table(frame)
        lines = text.splitlines()
        row0 = next(l for l in lines if "worker0" in l)
        row1 = next(l for l in lines if "worker1" in l)
        assert "STALLED" in row0 and "STALLED" not in row1
        assert "send" in row1

    def test_top_table_without_frames_and_with_events(self):
        assert "no timeline frames" in top_table(None)
        board = ProgressBoard(2, label="top-test-2")
        try:
            frame = self._frame(board)
        finally:
            board.unlink()
        events = [EventJournal(run_id="t").emit("restart_attempt", worker=1,
                                                attempt=1, resume_row=7)]
        text = top_table(frame, events=events)
        assert "recent events" in text
        assert "restart_attempt" in text and "worker1" in text

    def test_timeline_report_renders_bars(self, rng):
        a, b = random_codes(rng, 128), random_codes(rng, 128)
        with TimeSeriesSampler(interval_s=0.005) as sampler:
            align_multi_process(a, b, DNA_DEFAULT, workers=2, block_rows=16,
                                timeline=sampler)
            frames = sampler.frames()
        text = timeline_report(frames)
        assert "GCUPS over time" in text
        assert "#" in text
        assert timeline_report(()) == ""


class TestMidRunScrape:
    def test_status_scrape_shows_monotonic_progress_and_eta(self):
        rng = np.random.default_rng(13)
        a = random_dna(8192, rng=rng)
        b = random_dna(8192, rng=rng)
        registry = MetricsRegistry()
        journal = EventJournal()
        sampler = TimeSeriesSampler(interval_s=0.01, registry=registry)
        server = StatusServer(registry=registry, sampler=sampler,
                              journal=journal).start()
        result = {}

        def run():
            result["res"] = align_multi_process(
                a, b, DNA_DEFAULT, workers=2, block_rows=128,
                metrics=registry, events=journal, timeline=sampler)

        thread = threading.Thread(target=run)
        thread.start()
        scrapes = []
        metrics_mid_run = None
        try:
            while thread.is_alive():
                with urllib.request.urlopen(server.url + "/status",
                                            timeout=5) as resp:
                    scrapes.append(json.loads(resp.read()))
                if metrics_mid_run is None and scrapes[-1].get("rows_done"):
                    with urllib.request.urlopen(server.url + "/metrics",
                                                timeout=5) as resp:
                        metrics_mid_run = resp.read().decode()
                time.sleep(0.01)
        finally:
            thread.join(timeout=120)
            server.stop()
            sampler.close()
        assert "res" in result, "alignment thread died"
        rows = [s["rows_done"] for s in scrapes if "rows_done" in s]
        assert len(set(rows)) >= 2, "never saw progress advance mid-run"
        assert rows == sorted(rows), "rows_done went backwards"
        mid_etas = [s["eta_s"] for s in scrapes
                    if s.get("rows_done") and s.get("eta_s") is not None]
        assert mid_etas, "no scrape carried an ETA"
        assert all(np.isfinite(e) and e >= 0 for e in mid_etas)
        # /metrics stayed scrapeable during the run.
        assert metrics_mid_run is not None
        assert "# TYPE" in metrics_mid_run
