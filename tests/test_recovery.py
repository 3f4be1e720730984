"""Checkpoint-based recovery on the real-process engines (INTERNALS.md §9)
plus the teardown/timeout fixes that ride along with it:

* ``save_checkpoint``/``load_checkpoint`` round-trip extension-less paths;
* ``collect_results`` handles an already-expired deadline deterministically
  (drains queued results, never passes a negative timeout down);
* ``WorkerPool.close()`` is exception-safe and idempotent — an injected
  ring-unlink failure must not leak the scoreboard/progress segments;
* the shared-memory :class:`CheckpointArea` / :class:`RetryPolicy` layer;
* killing one slab worker mid-comparison with ``max_restarts >= 1`` still
  yields the exact optimal score on both real-process backends, with the
  recovery visible in the result, the metrics registry and the tracer,
  and with no shared-memory segments leaked.
"""

from __future__ import annotations

import queue
import os
import signal
import time

import numpy as np
import pytest

from repro.comm.shmring import SHM_NAME_PREFIX, list_segments
from repro.comm.progress import PROGRESS_NAME_PREFIX
from repro.comm.scoreboard import SCOREBOARD_NAME_PREFIX
from repro.errors import CommError, ConfigError, PartitionError
from repro.multigpu import (
    ChainCheckpoint,
    CheckpointArea,
    RetryPolicy,
    WorkerPool,
    align_multi_process,
    load_checkpoint,
    save_checkpoint,
    surviving_partition,
)
from repro.multigpu.checkpoint import CHECKPOINT_NAME_PREFIX
from repro.multigpu.procchain import SlabOutcome, SlabReport, collect_results
from repro.obs.registry import MetricsRegistry
from repro.seq import DNA_DEFAULT
from repro.sw import sw_score_naive
from repro.sw.kernel import BestCell

from helpers import random_codes

ALL_PREFIXES = (SHM_NAME_PREFIX, SCOREBOARD_NAME_PREFIX,
                PROGRESS_NAME_PREFIX, CHECKPOINT_NAME_PREFIX)


def _segments():
    return [name for prefix in ALL_PREFIXES for name in list_segments(prefix)]


def _counter_value(registry, name):
    series = registry.snapshot()["counters"].get(name, {}).get("series", [])
    return sum(entry["value"] for entry in series)


# ---------------------------------------------------------------------------
# satellite: .npz path normalisation round-trip
# ---------------------------------------------------------------------------


class TestCheckpointPathRoundTrip:
    def _checkpoint(self):
        return ChainCheckpoint(
            row=32,
            h_row=np.arange(10, dtype=np.int32),
            f_row=np.zeros(10, dtype=np.int32),
            best=BestCell(5, 3, 4),
            elapsed_s=1.5,
        )

    def test_round_trip_with_extension(self, tmp_path):
        path = tmp_path / "ck.npz"
        save_checkpoint(path, self._checkpoint())
        assert load_checkpoint(path).row == 32

    def test_round_trip_without_extension(self, tmp_path):
        """np.savez silently appends .npz; loading the exact path that was
        saved must still work."""
        path = tmp_path / "ck"
        save_checkpoint(path, self._checkpoint())
        loaded = load_checkpoint(path)  # no .npz in sight
        assert loaded.row == 32
        assert np.array_equal(loaded.h_row, np.arange(10, dtype=np.int32))

    def test_load_accepts_either_spelling(self, tmp_path):
        path = tmp_path / "ck"
        save_checkpoint(path, self._checkpoint())
        assert load_checkpoint(str(path) + ".npz").row == 32


# ---------------------------------------------------------------------------
# satellite: collect_results with an already-expired deadline
# ---------------------------------------------------------------------------


class _StubProc:
    def __init__(self, alive=True, exitcode=None):
        self._alive = alive
        self.exitcode = exitcode

    def is_alive(self):
        return self._alive


def _msg(worker_id, score=7, err=None):
    outcome = None if err is not None else SlabOutcome(BestCell(score, 1, 2))
    return SlabReport(worker=worker_id, outcome=outcome, error=err)


class TestCollectResultsExpiredDeadline:
    def test_queued_results_survive_an_expired_deadline(self):
        """Results already in the queue when the deadline has passed are
        drained, not discarded; only truly missing workers time out."""
        q = queue.Queue()
        q.put(_msg(0))
        messages, failures = collect_results(
            q, [_StubProc(), _StubProc()], {0, 1},
            deadline=time.monotonic() - 5.0)
        assert set(messages) == {0}
        assert len(failures) == 1
        key, desc, kind = failures[0]
        assert (key, kind) == (1, "timeout")
        assert "no result before the timeout" in desc

    def test_expired_deadline_is_deterministic(self):
        """A deadline hours in the past must not underflow into a negative
        queue timeout — the call returns immediately with timeout kinds."""
        q = queue.Queue()
        t0 = time.monotonic()
        messages, failures = collect_results(
            q, [_StubProc()], {0}, deadline=time.monotonic() - 3600.0)
        assert time.monotonic() - t0 < 1.0
        assert messages == {}
        assert [(k, kind) for k, _d, kind in failures] == [(0, "timeout")]

    def test_error_and_death_kinds(self):
        q = queue.Queue()
        q.put(_msg(0, err="CommError('border timed out')"))
        dead = _StubProc(alive=False, exitcode=-9)
        messages, failures = collect_results(
            q, [_StubProc(), dead], {0, 1},
            deadline=time.monotonic() + 30.0)
        assert messages == {}
        kinds = {key: kind for key, _desc, kind in failures}
        assert kinds == {0: "error", 1: "died"}


# ---------------------------------------------------------------------------
# satellite: exception-safe, idempotent WorkerPool.close()
# ---------------------------------------------------------------------------


class TestPoolCloseExceptionSafety:
    def test_injected_unlink_failure_leaks_nothing(self, rng):
        """A raise from a ring unlink must not skip the scoreboard and
        progress unlinks — every segment is gone afterwards and the
        errors are aggregated into one RuntimeError."""
        pool = WorkerPool(3, max_block_rows=32)
        ring = pool._rings[0]
        original_unlink = ring.unlink

        def exploding_unlink():
            original_unlink()  # actually release it: we test ordering, not leaks
            raise OSError("injected: segment already removed")

        ring.unlink = exploding_unlink
        with pytest.raises(RuntimeError, match="injected"):
            pool.close()
        assert _segments() == []
        # Idempotent: the second close is a no-op, not a second raise.
        pool.close()

    def test_clean_close_raises_nothing(self):
        pool = WorkerPool(2, max_block_rows=32)
        pool.close()
        pool.close()
        assert _segments() == []


# ---------------------------------------------------------------------------
# the checkpoint area + retry policy layer
# ---------------------------------------------------------------------------


class TestCheckpointArea:
    def test_publish_assemble_round_trip(self):
        with CheckpointArea([4, 3], history=3) as area:
            area.publish(0, 8, np.arange(4, dtype=np.int32),
                         np.zeros(4, dtype=np.int32), BestCell(7, 2, 1), 3, 1)
            area.publish(1, 8, 10 + np.arange(3, dtype=np.int32),
                         np.zeros(3, dtype=np.int32), BestCell(9, 5, 6), 2, 0)
            assert area.consistent_row() == 8
            h, f, best, checked, pruned = area.assemble(8)
            assert h.tolist() == [0, 1, 2, 3, 10, 11, 12]
            assert best == BestCell(9, 5, 6)
            assert (checked, pruned) == (5, 1)

    def test_consistent_row_is_newest_common(self):
        with CheckpointArea([2, 2], history=4) as area:
            h = np.zeros(2, dtype=np.int32)
            for row in (8, 16, 24):
                area.publish(0, row, h, h, BestCell.none())
            for row in (8, 16):
                area.publish(1, row, h, h, BestCell.none())
            assert area.newest_row(0) == 24
            assert area.newest_row(1) == 16
            assert area.consistent_row() == 16

    def test_no_common_row_resumes_from_scratch(self):
        with CheckpointArea([2, 2], history=2) as area:
            h = np.zeros(2, dtype=np.int32)
            area.publish(0, 8, h, h, BestCell.none())
            assert area.consistent_row() == 0

    def test_history_ring_keeps_newest(self):
        with CheckpointArea([1], history=2) as area:
            h = np.zeros(1, dtype=np.int32)
            for row in (8, 16, 24):
                area.publish(0, row, h, h, BestCell.none())
            rows = [e.row for e in area.entries(0)]
            assert rows == [16, 24]

    def test_width_and_slot_validation(self):
        with CheckpointArea([3]) as area:
            h3 = np.zeros(3, dtype=np.int32)
            with pytest.raises(CommError):
                area.publish(0, 8, np.zeros(2, dtype=np.int32), h3,
                             BestCell.none())
            with pytest.raises(CommError):
                area.publish(1, 8, h3, h3, BestCell.none())
            with pytest.raises(CommError):
                area.assemble(99)

    def test_pickle_attaches_and_segment_unlinks(self):
        import pickle

        area = CheckpointArea([2])
        assert list_segments(CHECKPOINT_NAME_PREFIX)
        child = pickle.loads(pickle.dumps(area))
        h = np.ones(2, dtype=np.int32)
        child.publish(0, 4, h, h, BestCell(1, 0, 0))
        child.close()
        assert area.newest_row(0) == 4
        area.unlink()
        area.unlink()  # idempotent
        assert list_segments(CHECKPOINT_NAME_PREFIX) == []


class TestRetryPolicy:
    def test_exponential_backoff_with_cap(self):
        policy = RetryPolicy(max_restarts=5, backoff_s=1.0,
                             backoff_multiplier=4.0, max_backoff_s=10.0)
        assert [policy.delay_s(i) for i in range(4)] == [1.0, 4.0, 10.0, 10.0]

    def test_permanent_failure_classification(self):
        assert RetryPolicy.is_permanent("worker 0: ConfigError('bad')")
        assert RetryPolicy.is_permanent("PartitionError('empty partition')")
        assert not RetryPolicy.is_permanent(
            "worker 1: died with exit code -9 before reporting a result")
        assert not RetryPolicy.is_permanent("CommError('recv timed out')")

    def test_validation(self):
        with pytest.raises(ConfigError):
            RetryPolicy(max_restarts=-1)
        with pytest.raises(ConfigError):
            RetryPolicy(backoff_multiplier=0.5)


class TestSurvivingPartition:
    def test_drops_dead_and_renumbers(self):
        slabs, weights = surviving_partition(100, [1.0, 2.0, 1.0], dead=[1])
        assert weights == [1.0, 1.0]
        assert [s.device_index for s in slabs] == [0, 1]
        assert slabs[0].col0 == 0 and slabs[-1].col1 == 100

    def test_no_survivors_raises(self):
        with pytest.raises(PartitionError):
            surviving_partition(100, [1.0, 1.0], dead=[0, 1])


# ---------------------------------------------------------------------------
# the tentpole: kill a worker mid-comparison, recover, exact score
# ---------------------------------------------------------------------------


@pytest.fixture
def pair(rng):
    a = random_codes(rng, 280)
    b = random_codes(rng, 360)
    want = sw_score_naive(a, b, DNA_DEFAULT)
    return a, b, want


class TestProcessRecovery:
    def test_crash_mid_run_recovers_to_exact_score(self, pair):
        a, b, (want, end_i, end_j) = pair
        registry = MetricsRegistry()
        res = align_multi_process(
            a, b, DNA_DEFAULT, workers=3, block_rows=16, timeout_s=120.0,
            border_timeout_s=5.0, max_restarts=2, restart_backoff_s=0.01,
            metrics=registry,
            _fault=(1, 9))  # block 9 is off the checkpoint ladder (stride 4)
        assert res.score == want
        assert (res.best.row, res.best.col) == (end_i, end_j)
        assert res.restarts == 1
        assert res.rows_recomputed > 0
        assert res.workers == 2  # the dead worker was dropped
        assert _counter_value(registry, "worker_restarts") == 1
        assert _counter_value(registry, "rows_recomputed") > 0
        assert any(iv.kind == "recovery" and iv.actor == "supervisor"
                   for iv in res.tracer.intervals)
        assert _segments() == []

    def test_matches_no_failure_run_exactly(self, pair):
        a, b, _ = pair
        clean = align_multi_process(a, b, DNA_DEFAULT, workers=3,
                                    block_rows=16, timeout_s=120.0)
        recovered = align_multi_process(
            a, b, DNA_DEFAULT, workers=3, block_rows=16, timeout_s=120.0,
            border_timeout_s=5.0, max_restarts=1, restart_backoff_s=0.01,
            _fault=(2, 7))
        assert recovered.score == clean.score
        assert recovered.best == clean.best

    def test_recovery_with_pruning_stays_exact(self, rng):
        """Distributed pruning shares the scoreboard across attempts; the
        score and end cell must still be exact after a recovery."""
        a = random_codes(rng, 240)
        b = np.concatenate([a[:120], random_codes(rng, 120)])  # similar pair
        want, end_i, end_j = sw_score_naive(a, b, DNA_DEFAULT)
        res = align_multi_process(
            a, b, DNA_DEFAULT, workers=2, block_rows=16, timeout_s=120.0,
            border_timeout_s=5.0, pruning=True, max_restarts=1,
            restart_backoff_s=0.01, _fault=(1, 5))
        assert res.score == want
        assert (res.best.row, res.best.col) == (end_i, end_j)
        assert res.restarts == 1
        assert _segments() == []

    def test_fail_fast_without_restarts(self, pair):
        """max_restarts=0 keeps the old behaviour: one RuntimeError naming
        the dead worker, nothing leaked."""
        a, b, _ = pair
        with pytest.raises(RuntimeError, match=r"worker 1.*died"):
            align_multi_process(a, b, DNA_DEFAULT, workers=3, block_rows=16,
                                timeout_s=120.0, border_timeout_s=5.0,
                                _fault=(1, 3))
        assert _segments() == []

    def test_policy_exhaustion_raises(self, pair):
        """Every attempt crashes the first worker: the policy runs out and
        the last failure surfaces."""
        a, b, _ = pair

        # _fault only fires on attempt 0, so exhaustion needs a worker
        # that cannot succeed at all: a one-worker chain whose only
        # member dies leaves no survivors to re-partition across.
        with pytest.raises(RuntimeError, match="recovery impossible|died"):
            align_multi_process(a, b, DNA_DEFAULT, workers=1, block_rows=16,
                                timeout_s=120.0, max_restarts=3,
                                restart_backoff_s=0.01, _fault=(0, 3))
        assert _segments() == []


class TestPoolRecovery:
    def test_crash_mid_run_recovers_and_pool_survives(self, pair):
        a, b, (want, end_i, end_j) = pair
        registry = MetricsRegistry()
        with WorkerPool(3, max_block_rows=32, border_timeout_s=5.0) as pool:
            res = pool.align(a, b, DNA_DEFAULT, block_rows=16,
                             timeout_s=120.0, max_restarts=2,
                             restart_backoff_s=0.01, metrics=registry,
                             _fault=(1, 9))
            assert res.score == want
            assert (res.best.row, res.best.col) == (end_i, end_j)
            assert res.restarts == 1
            assert res.rows_recomputed > 0
            assert not pool.broken
            # The pool keeps serving comparisons on the shrunken chain.
            again = pool.align(a, b, DNA_DEFAULT, block_rows=16,
                               timeout_s=120.0)
            assert again.score == want and again.restarts == 0
        assert _counter_value(registry, "worker_restarts") == 1
        assert _counter_value(registry, "rows_recomputed") > 0
        assert _segments() == []

    def test_real_sigkill_recovers(self, pair):
        """An actual SIGKILL (not the crash hook): kill one pool worker,
        then align with restarts allowed — exact score, one recovery."""
        a, b, (want, _i, _j) = pair
        with WorkerPool(3, max_block_rows=32, border_timeout_s=5.0) as pool:
            victim = pool.worker_pids()[1]
            os.kill(victim, signal.SIGKILL)
            deadline = time.monotonic() + 10.0
            while pool._procs[1].is_alive() and time.monotonic() < deadline:
                time.sleep(0.01)
            res = pool.align(a, b, DNA_DEFAULT, block_rows=16,
                             timeout_s=120.0, max_restarts=1,
                             restart_backoff_s=0.01)
            assert res.score == want
            assert res.restarts == 1
            assert res.workers == 2
        assert _segments() == []

    def test_hard_stall_kill_recovers(self, rng):
        """A wedged (SIGSTOPped) worker is killed by the watchdog riding
        the time-series sampler once silent for twice the heartbeat, and
        the kill enters checkpoint recovery: exact score, one restart.
        The border timeout is shorter than the hard stall, so the
        neighbours report an error (and are not dropped) first."""
        import threading

        a, b = random_codes(rng, 2000), random_codes(rng, 3000)
        want = sw_score_naive(a, b, DNA_DEFAULT)[0]
        registry = MetricsRegistry()
        with WorkerPool(3, max_block_rows=16, border_timeout_s=0.5) as pool:
            victim = pool.worker_pids()[1]
            board = pool._progress

            def freeze():
                deadline = time.monotonic() + 30.0
                while (board.read(1).rows_done < 64
                       and time.monotonic() < deadline):
                    time.sleep(0.002)
                os.kill(victim, signal.SIGSTOP)

            freezer = threading.Thread(target=freeze)
            freezer.start()
            try:
                res = pool.align(a, b, DNA_DEFAULT, block_rows=16,
                                 heartbeat_s=0.6, max_restarts=1,
                                 restart_backoff_s=0.01, timeout_s=60.0,
                                 metrics=registry)
            finally:
                freezer.join()
                try:
                    os.kill(victim, signal.SIGCONT)
                except ProcessLookupError:
                    pass
            assert res.score == want
            assert res.restarts == 1
            assert res.workers == 2
        assert registry.counter("worker_hard_stalls").value(
            device="worker1") == 1
        assert _segments() == []

    def test_fail_fast_marks_pool_broken(self, pair):
        a, b, _ = pair
        with WorkerPool(3, max_block_rows=32, border_timeout_s=5.0) as pool:
            with pytest.raises(RuntimeError, match=r"worker 1.*died"):
                pool.align(a, b, DNA_DEFAULT, block_rows=16,
                           timeout_s=120.0, _fault=(1, 3))
            assert pool.broken
            with pytest.raises(ConfigError, match="broken"):
                pool.align(a, b, DNA_DEFAULT, block_rows=16)
        assert _segments() == []
