"""Unit tests: repro.multigpu.autotune."""

from __future__ import annotations

import pytest

from repro.device import ENV1_HETEROGENEOUS, DeviceSpec
from repro.errors import ConfigError
from repro.multigpu import (
    ChainConfig,
    autotune,
    border_footprint_bytes,
    proportional_partition,
    predict_chain,
    time_multi_gpu,
)


class TestAutotune:
    def test_returns_feasible_config(self):
        t = autotune(ENV1_HETEROGENEOUS, 10_000_000, 10_000_000)
        assert t.config.block_rows in (256, 512, 1024, 2048, 4096, 8192, 16384, 32768)
        assert t.config.channel_capacity in (2, 4, 8, 16)
        assert t.predicted_gcups > 0
        assert t.evaluated > 0

    def test_choice_is_model_optimal(self):
        rows = cols = 5_000_000
        t = autotune(ENV1_HETEROGENEOUS, rows, cols,
                     block_rows_candidates=(512, 4096, 32768),
                     capacity_candidates=(2, 8))
        slabs = proportional_partition(cols, [d.gcups for d in ENV1_HETEROGENEOUS])
        for br in (512, 4096, 32768):
            for cap in (2, 8):
                pred = predict_chain(ENV1_HETEROGENEOUS, slabs, rows,
                                     ChainConfig(block_rows=br, channel_capacity=cap))
                assert t.predicted_total_s <= pred.total_s + 1e-12

    def test_simulator_confirms_choice_beats_bad_config(self):
        rows = cols = 5_000_000
        t = autotune(ENV1_HETEROGENEOUS, rows, cols)
        good = time_multi_gpu(rows, cols, ENV1_HETEROGENEOUS, config=t.config)
        bad = time_multi_gpu(rows, cols, ENV1_HETEROGENEOUS,
                             config=ChainConfig(block_rows=32768,
                                                channel_capacity=2))
        assert good.gcups >= bad.gcups * 0.999

    def test_block_rows_capped_by_matrix(self):
        t = autotune(ENV1_HETEROGENEOUS, 1000, 1_000_000)
        assert t.config.block_rows <= 1000

    def test_memory_limit_respected(self):
        limit = border_footprint_bytes(512, 2, 2) + 1
        t = autotune(ENV1_HETEROGENEOUS, 10_000_000, 10_000_000,
                     device_slots=2, host_buffer_limit_bytes=limit)
        assert border_footprint_bytes(t.config.block_rows,
                                      t.config.channel_capacity, 2) <= limit

    def test_infeasible_raises(self):
        with pytest.raises(ConfigError):
            autotune(ENV1_HETEROGENEOUS, 10, 10_000,
                     block_rows_candidates=(1024,))
        with pytest.raises(ConfigError):
            autotune((), 100, 100)
        with pytest.raises(ConfigError):
            autotune(ENV1_HETEROGENEOUS, 0, 100)

    def test_footprint_formula(self):
        from repro.multigpu import segment_bytes
        assert border_footprint_bytes(512, 4, 2) == segment_bytes(512) * 8


class TestMeasuredAutotune:
    def test_measured_flag_and_cache(self):
        from repro.multigpu.autotune import _MEASURED_CACHE, clear_tuner_caches

        clear_tuner_caches()
        rows = cols = 400_000
        t = autotune(ENV1_HETEROGENEOUS, rows, cols, measured=True,
                     block_rows_candidates=(512, 2048),
                     capacity_candidates=(2, 4))
        assert t.measured and t.evaluated == 4
        assert len(_MEASURED_CACHE) == 1
        again = autotune(ENV1_HETEROGENEOUS, rows, cols, measured=True,
                         block_rows_candidates=(512, 2048),
                         capacity_candidates=(2, 4))
        assert again is t  # memo hit, no re-simulation
        assert not autotune(ENV1_HETEROGENEOUS, rows, cols).measured

    def test_measured_never_loses_to_analytic_on_simulator(self):
        # the X3 acceptance criterion, in unit form: judging candidates by
        # their simulated makespan cannot pick worse than the model does
        rows = cols = 1_000_000
        grid = dict(block_rows_candidates=(256, 1024, 8192),
                    capacity_candidates=(2, 8))
        analytic = autotune(ENV1_HETEROGENEOUS, rows, cols, **grid)
        measured = autotune(ENV1_HETEROGENEOUS, rows, cols,
                            measured=True, **grid)
        sim_an = time_multi_gpu(rows, cols, ENV1_HETEROGENEOUS,
                                config=analytic.config).total_time_s
        sim_me = time_multi_gpu(rows, cols, ENV1_HETEROGENEOUS,
                                config=measured.config).total_time_s
        assert sim_me <= sim_an + 1e-12
        assert abs(measured.predicted_total_s - sim_me) < 1e-9


class TestRebalanceMath:
    def test_no_fire_when_capacity_matches_weights(self):
        from repro.multigpu.autotune import rebalance_weights

        d = rebalance_weights([2.0, 1.0], [200.0, 100.0], threshold=0.25)
        assert not d.fired and d.drift < 1e-12
        assert d.new_weights == (2 / 3, 1 / 3)

    def test_fires_and_renormalises_on_drift(self):
        from repro.multigpu.autotune import rebalance_weights

        d = rebalance_weights([4.0, 1.0], [100.0, 100.0], threshold=0.25)
        assert d.fired
        assert d.drift == pytest.approx((0.5 - 0.2) / 0.2)
        assert d.new_weights == pytest.approx((0.5, 0.5))

    def test_floor_prevents_starvation(self):
        from repro.multigpu.autotune import rebalance_weights

        d = rebalance_weights([1.0, 1.0], [1000.0, 1e-9], threshold=0.1,
                              floor=0.05)
        assert d.fired
        assert min(d.new_weights) >= 0.05 / 1.05 - 1e-12
        assert sum(d.new_weights) == pytest.approx(1.0)

    def test_validation(self):
        from repro.multigpu.autotune import rebalance_weights

        with pytest.raises(ConfigError):
            rebalance_weights([1.0], [1.0, 2.0])
        with pytest.raises(ConfigError):
            rebalance_weights([], [])
        with pytest.raises(ConfigError):
            rebalance_weights([1.0], [1.0], threshold=0.0)
        with pytest.raises(ConfigError):
            rebalance_weights([0.0], [0.0])


def _report(worker, *spans):
    from repro.multigpu.procchain import SlabReport

    return SlabReport(worker=worker, outcome=None, records=list(spans))


class TestProgressSampling:
    def test_rates_and_capacities_from_compute_spans(self):
        from repro.multigpu.autotune import compute_rates, estimate_capacities
        from repro.multigpu.partition import Slab

        reports = [
            # 0.4 s of compute around a long border wait
            _report(0, ("compute", 0.0, 0.2), ("wait", 0.2, 0.9),
                    ("compute", 0.9, 1.1)),
            # 0.8 s of compute
            _report(1, ("wait", 0.0, 0.1), ("compute", 0.1, 0.9),
                    ("d2h", 0.9, 1.0)),
        ]
        rates = compute_rates(reports, 100)
        assert rates == [pytest.approx(250.0), pytest.approx(125.0)]
        caps = estimate_capacities(reports, [Slab(0, 0, 100), Slab(1, 100, 300)],
                                   100)
        # cells per compute-second: waiting is not lost capacity
        assert caps == [pytest.approx(100 * 250.0), pytest.approx(200 * 125.0)]

    def test_neutral_fallback_without_motion(self):
        from repro.multigpu.autotune import compute_rates, estimate_capacities
        from repro.multigpu.partition import Slab

        reports = [_report(0, ("wait", 0.0, 1.0)), _report(1)]
        assert compute_rates(reports, 10) == [0.0, 0.0]
        caps = estimate_capacities(reports, [Slab(0, 0, 70), Slab(1, 70, 100)],
                                   10)
        assert caps == [70.0, 30.0]  # keeps the current shares

    def test_reports_must_match_slabs(self):
        from repro.multigpu.autotune import estimate_capacities
        from repro.multigpu.partition import Slab

        reports = [_report(g, ("compute", 0.0, 1.0)) for g in range(2)]
        assert len(estimate_capacities(
            reports, [Slab(0, 0, 50), Slab(1, 50, 100)], 10)) == 2
        with pytest.raises(ConfigError):
            estimate_capacities(
                reports, [Slab(i, i * 25, (i + 1) * 25) for i in range(4)], 10)


class TestPoolRebalanceIntegration:
    def test_skewed_weights_rebalance_toward_equal(self):
        import numpy as np

        from repro.multigpu import WorkerPool
        from repro.obs import MetricsRegistry
        from repro.seq import DNA_DEFAULT

        rng = np.random.default_rng(77)
        a = rng.integers(0, 4, 1200).astype(np.int8)
        b = rng.integers(0, 4, 16000).astype(np.int8)
        # Equally fast OS workers given a 4:1 slab split: the wide slab's
        # worker spends far more compute time on its rows, its compute
        # spans say so, and the pool re-weights.  Blocks and slabs must
        # be large enough that per-cell cost, not per-block and per-row
        # overhead, dominates a span: at 8-row blocks of a 4000-column
        # matrix the two slabs measure about alike.
        registry = MetricsRegistry()
        with WorkerPool(2, weights=[4.0, 1.0], max_block_rows=64) as pool:
            ref = pool.align(a, b, DNA_DEFAULT, block_rows=64)
            res = pool.align(a, b, DNA_DEFAULT, block_rows=64,
                             rebalance=True, metrics=registry)
            assert res.score == ref.score
            decision = pool.last_rebalance
            assert decision is not None
            assert decision.fired
            share0 = pool.weights[0] / sum(pool.weights)
            assert share0 < 0.8  # strictly more balanced than 4:1
            after = pool.align(a, b, DNA_DEFAULT, block_rows=64)
            assert after.score == ref.score
            assert [s.cols for s in after.partition] != \
                [s.cols for s in ref.partition]
        snap = registry.snapshot()["counters"]
        assert "slab_rebalances" in snap
        assert sum(s["value"] for s in snap["slab_rebalances"]["series"]) == 1
        gauges = registry.snapshot()["gauges"]
        assert "worker_rows_per_s" in gauges
