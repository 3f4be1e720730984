"""Unit tests: repro.baselines (single GPU, CPU, inter-task)."""

from __future__ import annotations

import pytest

from repro.baselines import (
    Task,
    run_cpu,
    run_single_gpu,
    schedule_intertask,
    single_task_best_device,
    task_time,
    time_single_gpu,
)
from repro.device import ENV1_HETEROGENEOUS, GTX_680, DeviceSpec
from repro.errors import ConfigError
from repro.seq import DNA_DEFAULT
from repro.sw import sw_score_naive

from helpers import mutated_copy, random_codes


class TestSingleGpu:
    def test_exact_score(self, rng):
        a = random_codes(rng, 60)
        b = random_codes(rng, 80)
        want, *_ = sw_score_naive(a, b, DNA_DEFAULT)
        res = run_single_gpu(a, b, DNA_DEFAULT, GTX_680, block_rows=16)
        assert res.score == want
        assert res.cells == 60 * 80
        assert res.total_time_s > 0

    def test_pruning_reduces_virtual_time(self, rng):
        a = random_codes(rng, 500)
        b = mutated_copy(rng, a, 0.02)
        plain = run_single_gpu(a, b, DNA_DEFAULT, GTX_680, block_rows=32,
                               pruning=False)
        pruned = run_single_gpu(a, b, DNA_DEFAULT, GTX_680, block_rows=32, pruning=True)
        assert pruned.score == plain.score
        assert pruned.pruned_fraction > 0.2
        assert pruned.total_time_s < plain.total_time_s
        assert pruned.gcups > plain.gcups  # same cells over less time

    def test_timing_mode(self):
        res = time_single_gpu(1_000_000, 1_000_000, GTX_680, block_rows=1024)
        assert res.cells == 10**12
        assert res.gcups == pytest.approx(
            GTX_680.effective_rate(1_000_000) / 1e9, rel=1e-6
        )

    def test_timing_mode_with_pruning_fraction(self):
        full = time_single_gpu(10**6, 10**6, GTX_680)
        half = time_single_gpu(10**6, 10**6, GTX_680, pruned_fraction=0.5)
        assert half.total_time_s == pytest.approx(full.total_time_s / 2, rel=1e-6)
        with pytest.raises(ConfigError):
            time_single_gpu(10, 10, GTX_680, pruned_fraction=1.0)


class TestCpu:
    def test_exact_and_timed(self, rng):
        a = random_codes(rng, 100)
        b = random_codes(rng, 100)
        want, *_ = sw_score_naive(a, b, DNA_DEFAULT)
        res = run_cpu(a, b, DNA_DEFAULT)
        assert res.score == want
        assert res.wall_time_s > 0
        assert res.gcups > 0


class TestInterTask:
    def test_task_validation(self):
        with pytest.raises(ConfigError):
            Task(0, 5)

    def test_task_time(self):
        spec = DeviceSpec("x", gcups=1.0, saturation_cols=0)
        assert task_time(Task(1000, 1000), spec) == pytest.approx(1e-3)

    def test_many_small_tasks_use_all_devices(self):
        tasks = [Task(100_000, 100_000) for _ in range(30)]
        res = schedule_intertask(tasks, ENV1_HETEROGENEOUS)
        assert all(b > 0 for b in res.per_device_busy_s)
        # Aggregate throughput approaches the sum of device rates.
        assert res.gcups > 0.7 * sum(d.gcups for d in ENV1_HETEROGENEOUS)

    def test_single_huge_task_wastes_devices(self):
        task = Task(10_000_000, 10_000_000)
        res = single_task_best_device(task, ENV1_HETEROGENEOUS)
        fastest = max(ENV1_HETEROGENEOUS, key=lambda d: d.gcups)
        assert res.makespan_s == pytest.approx(task_time(task, fastest))
        assert sum(1 for b in res.per_device_busy_s if b > 0) == 1
        # This is the contrast the paper motivates: inter-task GCUPS on one
        # huge comparison is bounded by the single fastest device.
        assert res.gcups < fastest.gcups * 1.01

    def test_lpt_beats_naive_upper_bound(self):
        """Makespan never exceeds total-work/slowest-device and is at least
        total-work/aggregate-rate (sanity bounds)."""
        tasks = [Task(int(1e5) * (i + 1), int(1e5)) for i in range(10)]
        res = schedule_intertask(tasks, ENV1_HETEROGENEOUS)
        agg = sum(d.effective_rate(int(1e5)) for d in ENV1_HETEROGENEOUS)
        assert res.makespan_s >= sum(t.cells for t in tasks) / agg * 0.99

    def test_empty_inputs_rejected(self):
        with pytest.raises(ConfigError):
            schedule_intertask([], ENV1_HETEROGENEOUS)
        with pytest.raises(ConfigError):
            schedule_intertask([Task(10, 10)], [])
