"""Checkpoint-based recovery on the real-process engines (INTERNALS.md §9)
plus the teardown/timeout fixes that ride along with it:

* ``save_checkpoint``/``load_checkpoint`` round-trip extension-less paths;
* ``collect_results`` handles an already-expired deadline deterministically
  (drains queued results, never passes a negative timeout down);
* ``WorkerPool.close()`` is exception-safe and idempotent — an injected
  ring-unlink failure must not leak the scoreboard/progress segments,
  and a spawn that fails part-way releases what it made;
* the shared-memory :class:`CheckpointArea` / :class:`RetryPolicy` layer;
* killing one slab worker mid-comparison with ``max_restarts >= 1`` still
  yields the exact optimal score on both real-process backends, with the
  recovery visible in the result, the metrics registry and the tracer,
  and with no shared-memory segments leaked.
"""

from __future__ import annotations

import errno
import multiprocessing as mp
import queue
import os
import signal
import time
from dataclasses import replace

import numpy as np
import pytest

from repro.comm import (LocalScoreboard, ProgressBoard, SharedScoreboard,
                        list_segments)
from repro.device import TESLA_M2090
from repro.device.trace import WallClockRecorder
from repro.errors import CommError, ConfigError, PartitionError
from repro.multigpu import (
    ChainCheckpoint,
    ChainConfig,
    CheckpointArea,
    MatrixWorkload,
    MultiGpuChain,
    RetryPolicy,
    WorkerPool,
    align_multi_process,
    load_checkpoint,
    save_checkpoint,
    surviving_partition,
)
from repro.multigpu import pool as pool_mod
from repro.multigpu.checkpoint import CHECKPOINT_BLOCKS
from repro.multigpu.partition import Slab
from repro.multigpu.procchain import (SlabOutcome, SlabReport, SlabTask,
                                      collect_results, sweep_slab)
from repro.obs.registry import MetricsRegistry
from repro.seq import DNA_DEFAULT
from repro.sw import sw_score_naive, tiers
from repro.sw.kernel import BestCell
from repro.sw.pruning import Floor

from helpers import random_codes


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

    def test_round_trip_keeps_prune_counters(self, tmp_path):
        path = tmp_path / "ck"
        save_checkpoint(path, replace(self._checkpoint(), blocks_checked=7,
                                      blocks_pruned=3))
        loaded = load_checkpoint(path)
        assert (loaded.blocks_checked, loaded.blocks_pruned) == (7, 3)
        assert (loaded.best, loaded.elapsed_s) == (BestCell(5, 3, 4), 1.5)

    def test_counterless_file_loads_with_zero_counters(self, tmp_path):
        """A file saved before the counters were stored still loads."""
        path = tmp_path / "old.npz"
        np.savez(path, row=np.int64(32), elapsed=np.float64(1.5),
                 best=np.array([5, 3, 4], dtype=np.int64),
                 phantom=np.bool_(True))
        loaded = load_checkpoint(path)
        assert loaded.phantom and loaded.row == 32
        assert (loaded.blocks_checked, loaded.blocks_pruned) == (0, 0)

    @pytest.mark.parametrize("edges", [(0, 10), (0, 3, 10), (0, 1, 4, 9, 10)])
    def test_join_of_slices_is_the_state(self, edges):
        state = replace(self._checkpoint(), blocks_checked=7, blocks_pruned=3)
        parts = [state.slice(c0, c1) for c0, c1 in zip(edges, edges[1:])]
        assert [p.h_row.size for p in parts] == \
            [c1 - c0 for c0, c1 in zip(edges, edges[1:])]
        back = ChainCheckpoint.join(parts)
        assert np.array_equal(back.h_row, state.h_row)
        assert np.array_equal(back.f_row, state.f_row)
        assert (back.row, back.best, back.blocks_checked, back.blocks_pruned,
                back.elapsed_s) == (32, BestCell(5, 3, 4), 7, 3, 1.5)


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
        assert list_segments() == []
        # Idempotent: the second close is a no-op, not a second raise.
        pool.close()

    def test_clean_close_raises_nothing(self):
        pool = WorkerPool(2, max_block_rows=32)
        pool.close()
        pool.close()
        assert list_segments() == []


class _WorkerSpawnFails:
    """Event journal whose ``worker_spawn`` for worker 1 raises: the pool
    already holds its rings, both boards and one started worker."""

    def emit(self, event, **fields):
        if event == "worker_spawn" and fields["worker"] == 1:
            raise OSError(errno.EMFILE, "injected: too many open files")


class TestSpawnFailureReleases:
    """A spawn that fails part-way releases every segment it created and
    stops every worker it started, through both front doors."""

    @pytest.fixture(params=["progress-board", "worker-start"])
    def inject(self, request, monkeypatch):
        if request.param == "worker-start":
            return _WorkerSpawnFails()

        def no_board(*_args, **_kwargs):
            raise OSError(errno.EMFILE, "injected: too many open files")

        monkeypatch.setattr(pool_mod, "ProgressBoard", no_board)
        return None

    @pytest.mark.parametrize("front_door", ["pool", "one-shot"])
    def test_failed_spawn_leaks_nothing(self, rng, inject, front_door):
        before = list_segments()
        with pytest.raises(OSError, match="injected"):
            if front_door == "pool":
                WorkerPool(3, max_block_rows=16, events=inject)
            else:
                align_multi_process(random_codes(rng, 40),
                                    random_codes(rng, 60), DNA_DEFAULT,
                                    workers=3, block_rows=16, events=inject)
        assert list_segments() == before
        assert not [p for p in mp.active_children()
                    if p.name.startswith("mgsw-pool-")]


# ---------------------------------------------------------------------------
# the checkpoint area + retry policy layer
# ---------------------------------------------------------------------------


class TestCheckpointArea:
    def test_publish_assemble_round_trip(self):
        with CheckpointArea([4, 3], history=3) as area:
            area.publish(0, ChainCheckpoint(
                8, np.arange(4, dtype=np.int32), np.zeros(4, dtype=np.int32),
                BestCell(7, 2, 1), 3, 1))
            area.publish(1, ChainCheckpoint(
                8, 10 + np.arange(3, dtype=np.int32),
                np.zeros(3, dtype=np.int32), BestCell(9, 5, 6), 2, 0))
            assert area.consistent_row() == 8
            state = area.assemble(8)
            h, best = state.h_row, state.best
            checked, pruned = state.blocks_checked, state.blocks_pruned
            assert h.tolist() == [0, 1, 2, 3, 10, 11, 12]
            assert best == BestCell(9, 5, 6)
            assert (checked, pruned) == (5, 1)

    def test_consistent_row_is_newest_common(self):
        with CheckpointArea([2, 2], history=4) as area:
            h = np.zeros(2, dtype=np.int32)
            for row in (8, 16, 24):
                area.publish(0, ChainCheckpoint(row, h, h))
            for row in (8, 16):
                area.publish(1, ChainCheckpoint(row, h, h))
            assert area.entries(0)[-1].row == 24
            assert area.entries(1)[-1].row == 16
            assert area.consistent_row() == 16

    def test_no_common_row_resumes_from_scratch(self):
        with CheckpointArea([2, 2], history=2) as area:
            h = np.zeros(2, dtype=np.int32)
            area.publish(0, ChainCheckpoint(8, h, h))
            assert area.consistent_row() == 0

    def test_history_ring_keeps_newest(self):
        with CheckpointArea([1], history=2) as area:
            h = np.zeros(1, dtype=np.int32)
            for row in (8, 16, 24):
                area.publish(0, ChainCheckpoint(row, h, h))
            rows = [e.row for e in area.entries(0)]
            assert rows == [16, 24]

    def test_width_and_slot_validation(self):
        with CheckpointArea([3]) as area:
            h3 = np.zeros(3, dtype=np.int32)
            with pytest.raises(CommError):
                area.publish(0, ChainCheckpoint(
                    8, np.zeros(2, dtype=np.int32), h3))
            with pytest.raises(CommError):
                area.publish(1, ChainCheckpoint(8, h3, h3))
            with pytest.raises(CommError):
                area.assemble(99)

    @pytest.mark.parametrize("pruning", [False, True])
    def test_assembled_row_is_the_chain_checkpoint(self, rng, pruning):
        """One slab, two engines: the simulated chain stopped at row r and
        an in-process slab sweep's checkpoint area assembled at r (on the
        checkpoint ladder) hold the same row state, prune counters
        included when both prune from the same floor."""
        a = random_codes(rng, 200)
        b = np.concatenate([a[:90], random_codes(rng, 70)])
        cfg = ChainConfig(block_rows=8, kernel="scalar", pruning=pruning,
                          dp_dtype="int32")
        r = 5 * CHECKPOINT_BLOCKS * cfg.block_rows
        chain = MultiGpuChain([TESLA_M2090], config=cfg)
        seg = chain.run(MatrixWorkload(a, b, DNA_DEFAULT), stop_row=r)
        want = seg.checkpoint
        assert want.row == r

        slab = Slab(0, 0, b.size)
        with CheckpointArea([b.size]) as area, \
                ProgressBoard(1, label="ckpt-test-progress") as progress:
            task = SlabTask(
                a_codes=a, b_slab=b, slab=slab, scoring=DNA_DEFAULT,
                config=cfg, origin=time.perf_counter(),
                border_timeout_s=1.0, n_cols=b.size, collect_metrics=False,
                checkpoints=area)
            sweep_slab(task, None, None, WallClockRecorder(task.origin),
                       progress,
                       scoreboard=LocalScoreboard(seg.floor.score))
            got = area.assemble(r)
        assert np.array_equal(got.h_row, want.h_row)
        assert np.array_equal(got.f_row, want.f_row)
        assert (got.best, got.blocks_checked, got.blocks_pruned) == \
            (want.best, want.blocks_checked, want.blocks_pruned)
        assert (want.blocks_checked > 0) == pruning


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
        assert list_segments() == []

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
        assert list_segments() == []

    def test_resumed_attempt_starts_from_the_checkpointed_best(
            self, rng, monkeypatch):
        """A resumed attempt starts the scoreboard at the best cell the
        checkpoints hold, a real cell, so the answer stays exact and the
        attempt sweeps fewer cells than one restarted from the seed floor
        alone."""
        a = random_codes(rng, 240)
        b = np.concatenate([a[:120], random_codes(rng, 120)])  # similar pair
        want = sw_score_naive(a, b, DNA_DEFAULT)
        # With a zero seed floor, the checkpoints' best is the only floor.
        monkeypatch.setattr(tiers, "seed_floor",
                            lambda a_codes, b_codes, scoring: Floor())
        reset = SharedScoreboard.reset
        floors = []

        def run(cap):
            def capped(board, floor=0):
                floors.append(min(floor, cap))
                reset(board, floors[-1])

            monkeypatch.setattr(SharedScoreboard, "reset", capped)
            return align_multi_process(
                a, b, DNA_DEFAULT, workers=2, block_rows=16, timeout_s=120.0,
                border_timeout_s=2.0, max_restarts=1, restart_backoff_s=0.01,
                start_method="fork", _fault=(1, 9))

        res = run(cap=10**9)
        assert res.restarts == 1
        assert (res.score, res.best.row, res.best.col) == want
        assert floors[-1] >= 120  # the shared prefix's best, checkpointed
        seed_only = run(cap=0)    # a restart from the seed floor alone
        assert floors[-1] == 0 and seed_only.best == res.best
        # Only the resumed attempts differ: the higher floor sweeps less.
        assert res.cells_swept < seed_only.cells_swept
        assert list_segments() == []

    def test_fail_fast_without_restarts(self, pair):
        """max_restarts=0 keeps the old behaviour: one RuntimeError naming
        the dead worker, nothing leaked."""
        a, b, _ = pair
        with pytest.raises(RuntimeError, match=r"worker 1.*died"):
            align_multi_process(a, b, DNA_DEFAULT, workers=3, block_rows=16,
                                timeout_s=120.0, border_timeout_s=5.0,
                                _fault=(1, 3))
        assert list_segments() == []

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
        assert list_segments() == []


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
        assert list_segments() == []

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
        assert list_segments() == []

    def test_hard_stall_kill_recovers(self, rng):
        """A wedged (SIGSTOPped) worker is killed by the watchdog riding
        the time-series sampler once silent for twice the heartbeat, and
        the kill enters checkpoint recovery: exact score, one restart.
        The border timeout is shorter than the hard stall, so the
        neighbours report an error (and are not dropped) first.  The
        query is long and the slabs narrow: worker 1 has most of its rows
        left at the freeze, while the naive oracle stays cheap."""
        import threading

        a, b = random_codes(rng, 1200), random_codes(rng, 600)
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
        assert list_segments() == []

    def test_fail_fast_marks_pool_broken(self, pair):
        a, b, _ = pair
        with WorkerPool(3, max_block_rows=32, border_timeout_s=5.0) as pool:
            with pytest.raises(RuntimeError, match=r"worker 1.*died"):
                pool.align(a, b, DNA_DEFAULT, block_rows=16,
                           timeout_s=120.0, _fault=(1, 3))
            assert pool.broken
            with pytest.raises(ConfigError, match="broken"):
                pool.align(a, b, DNA_DEFAULT, block_rows=16)
        assert list_segments() == []
