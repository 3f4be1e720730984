"""Integration tests: repro.multigpu.chain — the paper's core engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.device import (
    ENV1_HETEROGENEOUS,
    ENV2_HOMOGENEOUS,
    DeviceSpec,
    homogeneous,
)
from repro.errors import ConfigError
from repro.multigpu import (
    ChainConfig,
    MatrixWorkload,
    MultiGpuChain,
    PhantomWorkload,
    align_multi_gpu,
    explicit_partition,
    time_multi_gpu,
)
from repro.seq import DNA_DEFAULT
from repro.sw import sw_score_naive

from helpers import mutated_copy, random_codes, random_scoring


class TestExactness:
    def test_matches_oracle_over_random_configs(self, rng):
        for _ in range(12):
            m = int(rng.integers(5, 120))
            n = int(rng.integers(20, 250))
            a = random_codes(rng, m, with_n=True)
            b = random_codes(rng, n, with_n=True)
            sc = random_scoring(rng)
            cfg = ChainConfig(
                block_rows=int(rng.integers(1, 30)),
                channel_capacity=int(rng.integers(1, 6)),
                device_slots=int(rng.integers(1, 4)),
                async_transfers=bool(rng.integers(0, 2)),
            )
            want, wi, wj = sw_score_naive(a, b, sc)
            res = align_multi_gpu(a, b, sc, ENV1_HETEROGENEOUS, config=cfg)
            assert res.score == want
            if want > 0:
                assert (res.best.row, res.best.col) == (wi, wj)

    def test_alignment_crossing_every_slab_boundary(self, rng):
        """A high-identity pair aligns end to end, so the optimal path runs
        through every GPU's slab and every border segment matters."""
        a = random_codes(rng, 150)
        b = mutated_copy(rng, a, 0.03)
        want, *_ = sw_score_naive(a, b, DNA_DEFAULT)
        res = align_multi_gpu(a, b, DNA_DEFAULT, homogeneous(ENV2_HOMOGENEOUS[0], 5),
                              config=ChainConfig(block_rows=16))
        assert res.score == want

    def test_single_device_chain(self, rng):
        a = random_codes(rng, 40)
        b = random_codes(rng, 40)
        want, *_ = sw_score_naive(a, b, DNA_DEFAULT)
        res = align_multi_gpu(a, b, DNA_DEFAULT, ENV1_HETEROGENEOUS[:1])
        assert res.score == want
        assert res.channels == []

    def test_deterministic(self, rng):
        a = random_codes(rng, 80)
        b = random_codes(rng, 90)
        r1 = align_multi_gpu(a, b, DNA_DEFAULT, ENV1_HETEROGENEOUS)
        r2 = align_multi_gpu(a, b, DNA_DEFAULT, ENV1_HETEROGENEOUS)
        assert r1.score == r2.score
        assert r1.total_time_s == r2.total_time_s  # bit-identical virtual time


class TestTimingModel:
    def test_phantom_and_compute_same_virtual_time(self, rng):
        """Timing mode must be time-faithful to compute mode: identical
        configuration → identical virtual clock."""
        a = random_codes(rng, 64)
        b = random_codes(rng, 96)
        # A phantom run cannot prune, so the compute run must not either.
        cfg = ChainConfig(block_rows=8, channel_capacity=3, pruning=False)
        chain = MultiGpuChain(ENV1_HETEROGENEOUS, config=cfg)
        t_compute = chain.run(MatrixWorkload(a, b, DNA_DEFAULT)).total_time_s
        t_phantom = chain.run(PhantomWorkload(64, 96)).total_time_s
        assert t_compute == pytest.approx(t_phantom, rel=1e-12)

    def test_paper_headline_gcups(self):
        """ENV1 at chr22 scale sustains ~140.3 GCUPS (paper: 140.36)."""
        res = time_multi_gpu(35_194_566, 35_083_970, ENV1_HETEROGENEOUS,
                             config=ChainConfig(block_rows=4096, channel_capacity=8))
        assert res.gcups == pytest.approx(140.3, abs=1.0)

    def test_homogeneous_scaling_near_linear(self):
        base = time_multi_gpu(4_000_000, 4_000_000, homogeneous(ENV2_HOMOGENEOUS[0], 1),
                              config=ChainConfig(block_rows=2048)).gcups
        for k in (2, 4, 8):
            g = time_multi_gpu(4_000_000, 4_000_000,
                               homogeneous(ENV2_HOMOGENEOUS[0], k),
                               config=ChainConfig(block_rows=2048)).gcups
            assert g / base == pytest.approx(k, rel=0.08)

    def test_proportional_beats_equal_on_heterogeneous(self):
        rows = cols = 8_000_000
        cfg = ChainConfig(block_rows=2048)
        prop = time_multi_gpu(rows, cols, ENV1_HETEROGENEOUS, config=cfg)
        k = len(ENV1_HETEROGENEOUS)
        eq_widths = [cols // k] * (k - 1) + [cols - (k - 1) * (cols // k)]
        equal = time_multi_gpu(rows, cols, ENV1_HETEROGENEOUS, config=cfg,
                               partition=explicit_partition(cols, eq_widths))
        assert prop.gcups > equal.gcups * 1.2  # slowest device gates equal split

    def test_tiny_buffer_hurts_when_transfers_matter(self):
        """With a slow PCIe link, shrinking the circular buffer to one slot
        must cost throughput (communication no longer hidden)."""
        slow_pcie = tuple(
            DeviceSpec(d.name, gcups=d.gcups, pcie_gbps=0.001,
                       pcie_latency_s=5e-3, saturation_cols=d.saturation_cols)
            for d in ENV2_HOMOGENEOUS
        )
        rows = cols = 1_000_000
        big = time_multi_gpu(rows, cols, slow_pcie,
                             config=ChainConfig(block_rows=1024, channel_capacity=16))
        tiny = time_multi_gpu(rows, cols, slow_pcie,
                              config=ChainConfig(block_rows=1024, channel_capacity=1,
                                                 device_slots=1))
        assert tiny.total_time_s > big.total_time_s

    def test_counters_consistent(self):
        res = time_multi_gpu(2_000_000, 2_000_000, ENV2_HOMOGENEOUS,
                             config=ChainConfig(block_rows=1024))
        total_cells = sum(g.counters.cells for g in res.gpus)
        assert total_cells == res.cells
        for g, bd in zip(res.gpus, res.breakdown()):
            assert 0.0 <= bd["idle"] <= 1.0
            assert g.finished_at <= res.total_time_s + 1e-9

    def test_border_traffic_accounted(self):
        res = time_multi_gpu(1_000_000, 1_000_000, ENV2_HOMOGENEOUS,
                             config=ChainConfig(block_rows=1000))
        # 1000 block rows x (1000*8 + 4) bytes leave GPU 0.
        assert res.gpus[0].counters.bytes_out == 1000 * 8004
        assert res.gpus[1].counters.bytes_in == 1000 * 8004
        assert res.gpus[1].counters.bytes_out == 0


class TestValidation:
    def test_empty_devices_rejected(self):
        with pytest.raises(ConfigError):
            MultiGpuChain([])

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigError):
            ChainConfig(block_rows=0)
        with pytest.raises(ConfigError):
            ChainConfig(channel_capacity=0)
        with pytest.raises(ConfigError):
            ChainConfig(device_slots=-1)

    def test_phantom_bad_dims(self):
        with pytest.raises(ConfigError):
            PhantomWorkload(0, 5)

    def test_empty_sequences_rejected(self):
        with pytest.raises(ConfigError):
            MatrixWorkload(np.array([], dtype=np.uint8),
                           np.array([1], dtype=np.uint8), DNA_DEFAULT)

    def test_mismatched_explicit_partition(self):
        chain = MultiGpuChain(ENV2_HOMOGENEOUS,
                              partition=explicit_partition(100, [50, 50]))
        with pytest.raises(ConfigError):
            chain.run(PhantomWorkload(10, 99))
