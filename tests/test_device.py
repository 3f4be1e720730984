"""Unit tests: repro.device.spec and repro.device.gpu."""

from __future__ import annotations

import pytest

from repro.device import (
    ENV1_HETEROGENEOUS,
    ENV2_HOMOGENEOUS,
    DeviceSpec,
    Engine,
    SimulatedGPU,
    homogeneous,
)
from repro.errors import DeviceError


class TestDeviceSpec:
    def test_env1_aggregate_matches_paper_headline(self):
        total = sum(d.gcups for d in ENV1_HETEROGENEOUS)
        assert abs(total - 140.36) < 0.1

    def test_env2_is_homogeneous_pair(self):
        assert len(ENV2_HOMOGENEOUS) == 2
        assert ENV2_HOMOGENEOUS[0] == ENV2_HOMOGENEOUS[1]

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(gcups=0),
            dict(gcups=-1),
            dict(pcie_gbps=0),
            dict(pcie_latency_s=-1e-6),
            dict(mem_bytes=0),
            dict(saturation_cols=-1),
            dict(copy_engines=3),
        ],
    )
    def test_validation(self, kwargs):
        base = dict(name="x", gcups=10.0)
        base.update(kwargs)
        with pytest.raises(DeviceError):
            DeviceSpec(**base)

    def test_effective_rate_saturates(self):
        spec = DeviceSpec("x", gcups=10.0, saturation_cols=1000)
        assert spec.effective_rate(1000) == pytest.approx(5e9)
        assert spec.effective_rate(10**9) == pytest.approx(10e9, rel=1e-3)

    def test_effective_rate_monotone(self):
        spec = DeviceSpec("x", gcups=10.0, saturation_cols=500)
        rates = [spec.effective_rate(w) for w in (1, 10, 100, 1000, 10000)]
        assert rates == sorted(rates)

    def test_saturation_zero_disables_occupancy(self):
        spec = DeviceSpec("x", gcups=10.0, saturation_cols=0)
        assert spec.effective_rate(1) == 10e9

    def test_effective_rate_rejects_bad_width(self):
        with pytest.raises(DeviceError):
            DeviceSpec("x", gcups=1.0).effective_rate(0)

    def test_transfer_time(self):
        spec = DeviceSpec("x", gcups=1.0, pcie_gbps=8.0, pcie_latency_s=1e-5)
        assert spec.transfer_time(8_000_000_000) == pytest.approx(1.0 + 1e-5)
        assert spec.transfer_time(0) == pytest.approx(1e-5)
        with pytest.raises(DeviceError):
            spec.transfer_time(-1)

    def test_with_rate(self):
        spec = DeviceSpec("x", gcups=1.0).with_rate(5.0)
        assert spec.gcups == 5.0 and spec.name == "x"

    def test_homogeneous(self):
        devs = homogeneous(ENV2_HOMOGENEOUS[0], 4)
        assert len(devs) == 4
        with pytest.raises(DeviceError):
            homogeneous(ENV2_HOMOGENEOUS[0], 0)


class TestSimulatedGPU:
    def test_compute_charges_time_and_counts(self):
        eng = Engine()
        spec = DeviceSpec("x", gcups=1.0, saturation_cols=0)
        gpu = SimulatedGPU(eng, spec)

        def proc():
            yield from gpu.compute(2_000_000_000, 1024)

        eng.process(proc())
        total = eng.run()
        assert total == pytest.approx(2.0)
        assert gpu.counters.cells == 2_000_000_000
        assert gpu.counters.compute_s == pytest.approx(2.0)

    def test_compute_serialises_on_one_device(self):
        eng = Engine()
        gpu = SimulatedGPU(eng, DeviceSpec("x", gcups=1.0, saturation_cols=0))

        def proc():
            yield from gpu.compute(1_000_000_000, 10)

        eng.process(proc())
        eng.process(proc())
        assert eng.run() == pytest.approx(2.0)  # not 1.0: same compute engine

    def test_single_copy_engine_serialises_directions(self):
        eng = Engine()
        spec = DeviceSpec("x", gcups=1.0, pcie_gbps=1.0, pcie_latency_s=0.0, copy_engines=1)
        gpu = SimulatedGPU(eng, spec)

        def proc():
            yield from gpu.copy_to_host(1_000_000_000)

        def proc2():
            yield from gpu.copy_to_device(1_000_000_000)

        eng.process(proc())
        eng.process(proc2())
        assert eng.run() == pytest.approx(2.0)

    def test_dual_copy_engines_full_duplex(self):
        eng = Engine()
        spec = DeviceSpec("x", gcups=1.0, pcie_gbps=1.0, pcie_latency_s=0.0, copy_engines=2)
        gpu = SimulatedGPU(eng, spec)

        def proc():
            yield from gpu.copy_to_host(1_000_000_000)

        def proc2():
            yield from gpu.copy_to_device(1_000_000_000)

        eng.process(proc())
        eng.process(proc2())
        assert eng.run() == pytest.approx(1.0)

    def test_byte_counters(self):
        eng = Engine()
        gpu = SimulatedGPU(eng, DeviceSpec("x", gcups=1.0))

        def proc():
            yield from gpu.copy_to_host(100)
            yield from gpu.copy_to_device(50)

        eng.process(proc())
        eng.run()
        assert gpu.counters.bytes_out == 100
        assert gpu.counters.bytes_in == 50

    def test_zero_cells_rejected(self):
        eng = Engine()
        gpu = SimulatedGPU(eng, DeviceSpec("x", gcups=1.0))
        with pytest.raises(DeviceError):
            next(gpu.compute(0, 10))

    def test_breakdown_sums_to_one(self):
        eng = Engine()
        gpu = SimulatedGPU(eng, DeviceSpec("x", gcups=1.0, saturation_cols=0))

        def proc():
            yield from gpu.compute(500_000_000, 10)
            yield eng.timeout(0.5)  # idle

        eng.process(proc())
        total = eng.run()
        bd = gpu.counters.breakdown(total)
        assert sum(bd.values()) == pytest.approx(1.0)
        assert bd["compute"] == pytest.approx(0.5)
        assert bd["idle"] == pytest.approx(0.5)

    def test_breakdown_rejects_zero_total(self):
        eng = Engine()
        gpu = SimulatedGPU(eng, DeviceSpec("x", gcups=1.0))
        with pytest.raises(DeviceError):
            gpu.counters.breakdown(0.0)
