"""Integration tests: repro.multigpu.pool (persistent slab workers)."""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.errors import ConfigError
from repro.multigpu import WorkerPool, align_multi_process
from repro.seq import DNA_DEFAULT
from repro.sw import sw_score_naive

from helpers import mutated_copy, random_codes


class TestReuse:
    def test_workers_survive_across_comparisons(self, rng):
        """The whole point of the pool: same processes, many comparisons."""
        with WorkerPool(3, max_block_rows=64) as pool:
            pids = pool.worker_pids()
            for _ in range(3):
                a = random_codes(rng, 90)
                b = random_codes(rng, 140)
                res = pool.align(a, b, DNA_DEFAULT, block_rows=32)
                want, wi, wj = sw_score_naive(a, b, DNA_DEFAULT)
                assert res.score == want
                if want > 0:
                    assert (res.best.row, res.best.col) == (wi, wj)
            assert pool.worker_pids() == pids

    def test_matches_one_shot_backend(self, rng):
        a = random_codes(rng, 120)
        b = mutated_copy(rng, a, 0.05)
        one_shot = align_multi_process(a, b, DNA_DEFAULT, workers=2, block_rows=32)
        with WorkerPool(2, max_block_rows=32) as pool:
            pooled = pool.align(a, b, DNA_DEFAULT, block_rows=32)
        assert pooled.score == one_shot.score
        assert (pooled.best.row, pooled.best.col) == (one_shot.best.row, one_shot.best.col)

    def test_heterogeneous_weights_shape_the_partition(self, rng):
        a = random_codes(rng, 60)
        b = random_codes(rng, 300)
        with WorkerPool(2, weights=[3.0, 1.0], max_block_rows=32) as pool:
            res = pool.align(a, b, DNA_DEFAULT, block_rows=32)
        assert [s.cols for s in res.partition] == [225, 75]
        want, *_ = sw_score_naive(a, b, DNA_DEFAULT)
        assert res.score == want


class TestLifecycle:
    def test_closed_pool_refuses_work(self, rng):
        pool = WorkerPool(2, max_block_rows=32)
        pool.close()
        pool.close()  # idempotent
        with pytest.raises(ConfigError, match="closed"):
            pool.align(random_codes(rng, 20), random_codes(rng, 20), DNA_DEFAULT)

    def test_validation(self, rng):
        with pytest.raises(ConfigError):
            WorkerPool(0)
        with pytest.raises(ConfigError):
            WorkerPool(2, weights=[1.0])
        with pytest.raises(ConfigError):
            WorkerPool(2, transport="carrier-pigeon")
        with WorkerPool(2, max_block_rows=16) as pool:
            a = random_codes(rng, 30)
            with pytest.raises(ConfigError, match="max_block_rows"):
                pool.align(a, a, DNA_DEFAULT, block_rows=64)
            with pytest.raises(ConfigError, match="narrower"):
                pool.align(a, random_codes(rng, 1), DNA_DEFAULT, block_rows=16)

    def test_killed_worker_breaks_the_pool(self, rng):
        """A SIGKILLed worker yields one descriptive error, then the pool
        refuses further work (its transports can no longer be trusted)."""
        a = random_codes(rng, 600)
        b = random_codes(rng, 300)
        with WorkerPool(3, max_block_rows=16, border_timeout_s=2.0) as pool:
            os.kill(pool.worker_pids()[1], signal.SIGKILL)
            t0 = time.monotonic()
            with pytest.raises(RuntimeError, match="pool worker 1"):
                pool.align(a, b, DNA_DEFAULT, block_rows=16, timeout_s=30.0)
            assert time.monotonic() - t0 < 20.0
            assert pool.broken
            with pytest.raises(ConfigError, match="broken"):
                pool.align(a, b, DNA_DEFAULT, block_rows=16)
