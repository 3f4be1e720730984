"""Tests: shared-memory ProgressBoard + the HeartbeatMonitor stall policy."""

from __future__ import annotations

import multiprocessing as mp
import time

import pytest

from repro.comm.progress import PHASES, ProgressBoard, ProgressSample
from repro.errors import CommError
from repro.obs import MetricsRegistry, TimeSeriesSampler
from repro.obs.heartbeat import DEFAULT_STALL_AFTER_S, HeartbeatMonitor, StallReport
from repro.obs.timeseries import TimelineFrame, WorkerFrame


def _beat_worker(board: ProgressBoard, slot: int, rows: int, phase: str) -> None:
    """Attach to the pickled board in a spawned child and beat once."""
    board.beat(slot, rows, phase)
    board.close()


def sampled_frame(board: ProgressBoard, monitor: HeartbeatMonitor):
    """One frame of *board* built by a sampler with *monitor* attached
    (fed to the monitor, as is the detach's final frame)."""
    sampler = TimeSeriesSampler(interval_s=3600.0)
    sampler.attach(board, rows=100, cols_per_worker=[1] * board.n_slots,
                   watchdog=monitor)
    try:
        return sampler.sample_once()
    finally:
        sampler.detach()


def frame(*workers: WorkerFrame) -> TimelineFrame:
    """A hand-built frame carrying *workers*."""
    return TimelineFrame(
        t_s=0.0, ts_unix=0.0, attempt=0,
        rows_done=sum(w.rows_done for w in workers), rows_target=0,
        rows_per_s=0.0, eta_s=None, gcups=0.0, prune_rate=0.0,
        restarts=0, workers=workers)


def worker(g: int, rows: int, *, stalled: bool, silent_s: float = 0.0,
           phase: str = "compute") -> WorkerFrame:
    return WorkerFrame(worker=g, rows_done=rows, phase=phase, rows_per_s=0.0,
                       silent_s=silent_s, stalled=stalled)


@pytest.fixture
def board():
    b = ProgressBoard(3, label="test-progress")
    yield b
    b.unlink()


class TestProgressBoard:
    def test_fresh_board_reads_never_started(self, board):
        for sample in board.snapshot():
            assert not sample.started
            assert sample.rows_done == 0
            assert sample.phase == "idle"
            assert sample.silent_s() == 0.0

    def test_beat_then_read_roundtrips(self, board):
        board.beat(1, 17, "compute")
        sample = board.read(1)
        assert sample.worker == 1
        assert sample.rows_done == 17
        assert sample.phase == "compute"
        assert sample.started
        # The other slots are untouched.
        assert not board.read(0).started
        assert not board.read(2).started

    def test_beat_timestamp_is_monotonic_clock(self, board):
        before = time.monotonic()
        board.beat(0, 1, "wait")
        after = time.monotonic()
        assert before <= board.read(0).last_beat <= after

    def test_silent_s_measures_from_last_beat(self, board):
        board.beat(0, 1, "compute")
        beat = board.read(0).last_beat
        assert board.read(0).silent_s(now=beat + 2.5) == pytest.approx(2.5)
        # Clock skew never goes negative.
        assert board.read(0).silent_s(now=beat - 1.0) == 0.0

    def test_all_phases_accepted(self, board):
        for i, phase in enumerate(PHASES):
            board.beat(0, i, phase)
            assert board.read(0).phase == phase

    def test_unknown_phase_rejected(self, board):
        with pytest.raises(CommError, match="unknown phase"):
            board.beat(0, 1, "sleeping")

    def test_out_of_range_slot_rejected(self, board):
        with pytest.raises(CommError):
            board.beat(3, 1, "compute")
        with pytest.raises(CommError):
            board.read(-1)

    def test_reset_zeroes_every_slot(self, board):
        for slot in range(3):
            board.beat(slot, 10 + slot, "send")
        board.reset()
        for sample in board.snapshot():
            assert not sample.started
            assert sample.rows_done == 0

    def test_zero_slots_rejected(self):
        with pytest.raises(CommError):
            ProgressBoard(0)

    def test_spawned_child_beats_into_parent_board(self, board):
        """The board pickles by segment name; a spawned child re-attaches
        and its stores are visible to the parent without any sync."""
        ctx = mp.get_context("spawn")
        p = ctx.Process(target=_beat_worker, args=(board, 2, 42, "send"))
        p.start()
        p.join(timeout=60.0)
        assert p.exitcode == 0
        sample = board.read(2)
        assert sample.rows_done == 42
        assert sample.phase == "send"
        assert sample.started

    def test_unpickle_on_same_host_attaches(self, board):
        import pickle

        clone = pickle.loads(pickle.dumps(board))
        try:
            board.beat(1, 9, "compute")
            assert clone.read(1).rows_done == 9
        finally:
            clone.close()

    def test_unpickle_on_other_host_rejected(self, board):
        """Beat timestamps are time.monotonic() readings — boot-relative,
        comparable only within the creating host.  Attaching a board that
        crossed a host boundary must fail loudly (module docstring:
        replicate derived progress, never the raw board)."""
        import pickle

        state = pickle.dumps(board)
        import repro.comm.progress as progress_mod

        real_node = progress_mod.platform.node
        progress_mod.platform.node = lambda: "some-other-host"
        try:
            with pytest.raises(CommError, match="monotonic"):
                pickle.loads(state)
        finally:
            progress_mod.platform.node = real_node

    def test_silent_s_clamps_future_beats_to_zero(self, board):
        """Same-host readers can race an in-flight store and observe a
        beat 'from the future'; negative silence must never escape."""
        board.beat(0, 1, "compute")
        beat = board.read(0).last_beat
        assert board.read(0).silent_s(now=beat - 0.001) == 0.0


class TestHeartbeatMonitor:
    def test_invalid_threshold_rejected(self, board):
        with pytest.raises(ValueError):
            HeartbeatMonitor(board, stall_after_s=0.0)

    def test_never_started_workers_are_not_stalled(self, board):
        monitor = HeartbeatMonitor(board, stall_after_s=0.01)
        time.sleep(0.03)
        assert monitor.stalled(sampled_frame(board, monitor)) == []
        assert monitor.describe(0) == "never heartbeat"

    def test_done_workers_are_not_stalled(self, board):
        board.beat(0, 5, "done")
        monitor = HeartbeatMonitor(board, stall_after_s=0.01)
        time.sleep(0.03)
        assert monitor.stalled(sampled_frame(board, monitor)) == []

    def test_silent_started_worker_is_stalled(self, board):
        board.beat(1, 7, "wait")
        patient = HeartbeatMonitor(board, stall_after_s=10.0)
        assert patient.stalled(sampled_frame(board, patient)) == []
        monitor = HeartbeatMonitor(board, stall_after_s=0.05)
        time.sleep(0.1)
        reports = monitor.stalled(sampled_frame(board, monitor))
        assert len(reports) == 1
        assert reports[0].worker == 1
        assert (reports[0].rows_done, reports[0].phase) == (7, "wait")
        assert reports[0].silent_s >= 0.05
        assert "last completed row 7" in reports[0].describe()

    def test_describe_reports_row_phase_silence(self, board):
        board.beat(2, 31, "compute")
        monitor = HeartbeatMonitor(board)
        text = monitor.describe(2)
        assert "last completed row 31" in text
        assert "phase 'compute'" in text
        assert "silent" in text

    def test_watchdog_fires_on_stall_once_per_episode(self, board):
        """on_stall fires once when a frame first flags the worker;
        a frame showing it beating again re-arms it, so a second stall
        fires again."""
        hits: list[StallReport] = []
        monitor = HeartbeatMonitor(board, on_stall=hits.append)
        monitor.observe(frame(worker(0, 3, stalled=True, silent_s=5.5)))
        monitor.observe(frame(worker(0, 3, stalled=True, silent_s=5.8)))
        assert hits == [StallReport(0, 3, "compute", 5.5)]
        # Resume beating: the flag clears...
        monitor.observe(frame(worker(0, 4, stalled=False)))
        assert len(hits) == 1
        # ...and a fresh silence trips a second report.
        monitor.observe(frame(worker(0, 4, stalled=True, silent_s=5.1)))
        assert len(hits) == 2
        assert hits[1].rows_done == 4

    def test_metrics_gauges_and_stall_counter(self, board):
        reg = MetricsRegistry()
        board.beat(0, 12, "send")
        monitor = HeartbeatMonitor(board, stall_after_s=0.05, metrics=reg)
        time.sleep(0.1)
        sampled_frame(board, monitor)
        assert reg.counter("worker_stalls").value(device="worker0") == 1
        assert reg.gauge("worker_rows_done").value(device="worker0") == 12

    def test_stop_takes_final_sample(self, board):
        """Detaching the sampler takes one last frame, so short-lived
        runs still populate the metrics even if no periodic sample
        fired."""
        reg = MetricsRegistry()
        board.beat(1, 8, "done")
        monitor = HeartbeatMonitor(board, stall_after_s=10.0, metrics=reg)
        sampler = TimeSeriesSampler(interval_s=3600.0)
        sampler.attach(board, rows=8, cols_per_worker=[1, 1, 1],
                       watchdog=monitor)
        sampler.detach()
        assert reg.gauge("worker_rows_done").value(device="worker1") == 8

    def test_default_threshold_exported(self):
        assert DEFAULT_STALL_AFTER_S == 5.0
