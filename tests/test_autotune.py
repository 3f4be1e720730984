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

