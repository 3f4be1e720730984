"""Tests: the live time-series sampler (repro.obs.timeseries, INTERNALS.md §13)."""

from __future__ import annotations

import json

import pytest

from repro.comm.progress import ProgressBoard
from repro.errors import ObsError
from repro.obs import MetricsRegistry, TimeSeriesSampler, read_timeline
from repro.obs.heartbeat import HeartbeatMonitor
from repro.obs.timeseries import (
    FRAME_SCHEMA,
    RATE_EMA_ALPHA,
    TimelineFrame,
    WorkerFrame,
    frame_from_json,
)


@pytest.fixture
def board():
    b = ProgressBoard(2, label="ts-test")
    yield b
    b.unlink()


def manual_sampler(**kwargs):
    """A sampler whose thread never fires — tests drive sample_once()."""
    kwargs.setdefault("interval_s", 3600.0)
    return TimeSeriesSampler(**kwargs)


class TestAttachLifecycle:
    def test_attach_requires_matching_cols(self, board):
        with manual_sampler() as sampler:
            with pytest.raises(ObsError, match="cols_per_worker"):
                sampler.attach(board, rows=10, cols_per_worker=[5])

    def test_double_attach_rejected(self, board):
        with manual_sampler() as sampler:
            sampler.attach(board, rows=10, cols_per_worker=[5, 5])
            with pytest.raises(ObsError, match="already attached"):
                sampler.attach(board, rows=10, cols_per_worker=[5, 5])

    def test_detach_is_idempotent_and_takes_final_frame(self, board):
        sampler = manual_sampler()
        sampler.attach(board, rows=4, cols_per_worker=[3, 3])
        board.beat(0, 4, "done")
        board.beat(1, 4, "done")
        sampler.detach()
        sampler.detach()   # no-op, not an error
        final = sampler.current()
        assert final is not None
        assert final.rows_done == final.rows_target == 8
        assert final.eta_s == 0.0
        assert sampler.sample_once() is None   # detached: nothing to read

    def test_reattach_extends_one_timeline(self, board):
        sampler = manual_sampler()
        sampler.attach(board, rows=4, cols_per_worker=[3, 3], attempt=0)
        sampler.sample_once()
        sampler.detach()
        # Recovery re-partitions may change geometry; attach a fresh board.
        survivor = ProgressBoard(1, label="ts-test-resume")
        try:
            sampler.attach(survivor, rows=4, cols_per_worker=[6], attempt=1)
            sampler.sample_once()
            sampler.detach()
        finally:
            survivor.unlink()
        attempts = [f.attempt for f in sampler.frames()]
        assert attempts[0] == 0 and attempts[-1] == 1
        # t_s keeps counting from the FIRST attach across attempts.
        t = [f.t_s for f in sampler.frames()]
        assert t == sorted(t)
        sampler.close()

    def test_constructor_validation(self):
        for bad in (dict(interval_s=0), dict(ring=0)):
            with pytest.raises(ObsError):
                TimeSeriesSampler(**bad)

    def test_background_thread_samples(self, board):
        with TimeSeriesSampler(interval_s=0.02) as sampler:
            sampler.attach(board, rows=100, cols_per_worker=[10, 10])
            board.beat(0, 5, "compute")
            deadline_frames = 3
            import time
            for _ in range(200):
                if len(sampler.frames()) >= deadline_frames:
                    break
                time.sleep(0.01)
            assert len(sampler.frames()) >= deadline_frames
            sampler.detach()


class TestFrameContents:
    def test_rows_and_phase_come_from_the_board(self, board):
        with manual_sampler() as sampler:
            sampler.attach(board, rows=10, cols_per_worker=[7, 9])
            board.beat(0, 3, "compute")
            board.beat(1, 5, "send")
            frame = sampler.sample_once()
            assert frame.rows_done == 8
            assert frame.rows_target == 20
            w0, w1 = frame.workers
            assert (w0.rows_done, w0.phase) == (3, "compute")
            assert (w1.rows_done, w1.phase) == (5, "send")
            assert not w0.stalled and not w1.stalled
            sampler.detach()

    def test_gcups_counts_cells_per_slab_width(self, board):
        with manual_sampler() as sampler:
            sampler.attach(board, rows=10, cols_per_worker=[1000, 3000])
            board.beat(0, 10, "done")
            board.beat(1, 10, "done")
            frame = sampler.sample_once()
            cells = 10 * 1000 + 10 * 3000
            assert frame.gcups == pytest.approx(
                cells / (frame.t_s or 1e-9) / 1e9, rel=0.5)
            sampler.detach()

    def test_rate_is_ema_of_instantaneous_rates(self, board):
        with manual_sampler() as sampler:
            sampler.attach(board, rows=1000, cols_per_worker=[10, 10])
            # Seed the EMA with a known first observation by faking the
            # previous sample point one second in the past.
            import time
            now = time.monotonic()
            sampler._prev = [(now - 1.0, 0), (now - 1.0, 0)]
            board.beat(0, 100, "compute")
            board.beat(1, 50, "compute")
            frame = sampler.sample_once()
            # First observation: EMA == instantaneous (~100 and ~50 rows/s).
            assert frame.workers[0].rows_per_s == pytest.approx(100, rel=0.15)
            assert frame.workers[1].rows_per_s == pytest.approx(50, rel=0.15)
            assert frame.rows_per_s == pytest.approx(
                frame.workers[0].rows_per_s + frame.workers[1].rows_per_s,
                abs=0.01)
            # Second sample, no progress: EMA decays by (1 - alpha).
            sampler._prev = [(time.monotonic() - 1.0, 100),
                             (time.monotonic() - 1.0, 50)]
            ema0 = sampler._ema[0]
            frame2 = sampler.sample_once()
            assert frame2.workers[0].rows_per_s == pytest.approx(
                (1 - RATE_EMA_ALPHA) * ema0, rel=0.05)
            sampler.detach()

    def test_eta_none_without_rate_then_finite(self, board):
        with manual_sampler() as sampler:
            sampler.attach(board, rows=100, cols_per_worker=[10, 10])
            assert sampler.sample_once().eta_s is None   # no rate yet
            import time
            sampler._prev = [(time.monotonic() - 1.0, 0)] * 2
            sampler._ema = [None, None]   # forget the zero-rate first sample
            board.beat(0, 50, "compute")
            board.beat(1, 50, "compute")
            frame = sampler.sample_once()
            # ~100 rows left at ~100 rows/s aggregate -> ETA around 1 s.
            assert frame.eta_s == pytest.approx(1.0, rel=0.3)
            assert sampler.eta_s() == frame.eta_s
            sampler.detach()

    def test_done_workers_leave_the_aggregate_rate(self, board):
        with manual_sampler() as sampler:
            sampler.attach(board, rows=100, cols_per_worker=[10, 10])
            import time
            sampler._prev = [(time.monotonic() - 1.0, 0)] * 2
            board.beat(0, 100, "done")
            board.beat(1, 40, "compute")
            frame = sampler.sample_once()
            # Worker 0 finished: only worker 1's rate drives the ETA.
            assert frame.rows_per_s == pytest.approx(
                frame.workers[1].rows_per_s, abs=0.01)
            sampler.detach()

    def test_stalled_flag_follows_silence_threshold(self, board):
        with manual_sampler() as sampler:
            sampler.attach(board, rows=100, cols_per_worker=[10, 10])
            board.beat(0, 5, "compute")
            import time
            time.sleep(0.1)
            # No watchdog: the default 5 s threshold is far off.
            assert not sampler.sample_once().workers[0].stalled
            sampler.detach()
            # The attached watchdog's threshold decides the flag.
            sampler.attach(board, rows=100, cols_per_worker=[10, 10],
                           watchdog=HeartbeatMonitor(board, stall_after_s=0.05))
            frame = sampler.sample_once()
            assert frame.workers[0].stalled          # silent past threshold
            assert not frame.workers[1].stalled      # never started
            board.beat(0, 6, "done")
            frame = sampler.sample_once()
            assert not frame.workers[0].stalled      # done never stalls
            sampler.detach()

    def test_registry_delta_fills_rates_and_restarts(self, board):
        registry = MetricsRegistry()
        registry.counter("blocks_computed").inc(6)
        registry.counter("blocks_pruned").inc(3)
        registry.counter("blocks_skipped_band").inc(1)
        registry.counter("worker_restarts").inc(2)
        with manual_sampler(registry=registry) as sampler:
            sampler.attach(board, rows=10, cols_per_worker=[5, 5])
            frame = sampler.sample_once()
            assert frame.prune_rate == pytest.approx(0.3)
            assert frame.band_skip_rate == pytest.approx(0.1)
            assert frame.restarts == 2
            sampler.detach()

    def test_ring_is_bounded(self, board):
        with manual_sampler(ring=4) as sampler:
            sampler.attach(board, rows=10, cols_per_worker=[5, 5])
            for _ in range(10):
                sampler.sample_once()
            assert len(sampler.frames()) == 4
            sampler.detach()


class TestSpillAndRoundtrip:
    def test_frame_json_roundtrip(self):
        frame = TimelineFrame(
            t_s=1.5, ts_unix=1e9, attempt=1, rows_done=8, rows_target=20,
            rows_per_s=4.0, eta_s=3.0, gcups=0.001, prune_rate=0.25,
            band_skip_rate=0.0, restarts=1,
            workers=(WorkerFrame(0, 8, "compute", 4.0, 0.1, False),))
        doc = frame.to_json_dict()
        assert doc["schema"] == FRAME_SCHEMA
        json.dumps(doc)    # JSON-safe
        assert frame_from_json(doc) == frame

    def test_spill_roundtrips_through_read_timeline(self, board, tmp_path):
        path = tmp_path / "telemetry" / "timeline.jsonl"
        with manual_sampler(spill=path) as sampler:
            sampler.attach(board, rows=4, cols_per_worker=[3, 3])
            board.beat(0, 2, "compute")
            sampler.sample_once()
            board.beat(0, 4, "done")
            board.beat(1, 4, "done")
        frames = read_timeline(path)
        assert len(frames) == 2        # one explicit + the close() final frame
        assert frames[-1].rows_done == 8
        assert [w.phase for w in frames[-1].workers] == ["done", "done"]

    def test_read_timeline_tolerates_torn_tail(self, board, tmp_path):
        path = tmp_path / "timeline.jsonl"
        with manual_sampler(spill=path) as sampler:
            sampler.attach(board, rows=4, cols_per_worker=[3, 3])
            sampler.sample_once()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"schema": "mgsw.telemetry.frame/v1", "t_s": 0.')
        assert len(read_timeline(path)) == 2

    def test_read_timeline_missing_file_is_empty(self, tmp_path):
        assert read_timeline(tmp_path / "nope.jsonl") == []

    def test_frame_from_json_ignores_newer_schema_fields(self):
        # Regression: a newer writer adding a field (frame- or
        # worker-level) made WorkerFrame(**w)/TimelineFrame(**doc) raise
        # TypeError, which read_timeline swallowed as a "torn line" —
        # silently dropping EVERY frame of the file, so `mgsw top` and
        # /status rendered empty against a healthy newer daemon.
        frame = TimelineFrame(
            t_s=1.5, ts_unix=1e9, attempt=1, rows_done=8, rows_target=20,
            rows_per_s=4.0, eta_s=3.0, gcups=0.001, prune_rate=0.25,
            band_skip_rate=0.0, restarts=1,
            workers=(WorkerFrame(0, 8, "compute", 4.0, 0.1, False),))
        doc = frame.to_json_dict()
        doc["power_w"] = 180.5               # hypothetical v2 frame field
        doc["workers"][0]["sm_clock_mhz"] = 1410   # v2 worker field
        parsed = frame_from_json(doc)
        assert parsed == frame               # known fields all survive

    def test_newer_schema_spill_still_reads_fully(self, board, tmp_path):
        path = tmp_path / "timeline.jsonl"
        with manual_sampler(spill=path) as sampler:
            sampler.attach(board, rows=4, cols_per_worker=[3, 3])
            sampler.sample_once()
        # Rewrite the spill as a newer writer would produce it.
        lines = path.read_text().strip().splitlines()
        with open(path, "w", encoding="utf-8") as fh:
            for line in lines:
                doc = json.loads(line)
                doc["power_w"] = 42.0
                for w in doc["workers"]:
                    w["temperature_c"] = 61
                fh.write(json.dumps(doc) + "\n")
        frames = read_timeline(path)
        assert len(frames) == len(lines)     # nothing dropped
        assert frames[0].rows_done >= 0

    def test_missing_known_field_is_still_a_torn_line(self, tmp_path):
        # The forward-compat filter must not mask genuine corruption: a
        # line missing a *known* field still raises and gets dropped.
        frame = TimelineFrame(
            t_s=1.5, ts_unix=1e9, attempt=1, rows_done=8, rows_target=20,
            rows_per_s=4.0, eta_s=3.0, gcups=0.001, prune_rate=0.25,
            band_skip_rate=0.0, restarts=1, workers=())
        good = frame.to_json_dict()
        bad = dict(good)
        del bad["rows_done"]
        with pytest.raises((KeyError, TypeError)):
            frame_from_json(bad)
        path = tmp_path / "timeline.jsonl"
        path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        assert len(read_timeline(path)) == 1
