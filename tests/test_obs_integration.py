"""Acceptance tests: telemetry across all four engines.

The unified metrics registry must tell one consistent story regardless
of which engine produced it: every block a chain owes (block rows x
workers) is accounted for as computed or pruned, per-device counters sum
to the engine's own totals, and the heartbeat watchdog turns a killed
worker into an error that names the victim's last completed row.
"""

from __future__ import annotations

import math

import pytest

from repro.device import ENV2_HOMOGENEOUS, GTX_680
from repro.errors import ObsError
from repro.multigpu import WorkerPool, align_multi_gpu, align_multi_process
from repro.multigpu.chain import ChainConfig
from repro.baselines import run_single_gpu
from repro.obs import MetricsRegistry
from repro.obs.heartbeat import StallReport
from repro.obs.instruments import SWEEP_BUCKETS
from repro.seq import DNA_DEFAULT
from repro.sw import sw_score_naive

from helpers import mutated_copy, random_codes


def _block_totals(reg: MetricsRegistry) -> tuple[int, int]:
    return (reg.counter("blocks_computed").total(),
            reg.counter("blocks_pruned").total())


class TestProcessChainAccounting:
    def test_per_worker_counters_sum_to_block_grid(self, rng):
        """blocks_computed + blocks_pruned == block rows x workers, and
        each worker's share is exactly its column of the grid."""
        a = random_codes(rng, 700)
        b = random_codes(rng, 900)
        reg = MetricsRegistry()
        res = align_multi_process(a, b, DNA_DEFAULT, workers=3, block_rows=64,
                                  metrics=reg)
        n_rows = math.ceil(a.size / 64)
        computed, pruned = _block_totals(reg)
        assert pruned == 0  # pruning off
        assert computed == n_rows * 3
        for g in range(3):
            assert reg.counter("blocks_computed").value(
                device=f"worker{g}") == n_rows
        # And the run still scores correctly with telemetry attached.
        assert res.score == sw_score_naive(a, b, DNA_DEFAULT)[0]

    def test_pruned_plus_computed_covers_grid_under_pruning(self, rng):
        """With distributed pruning on a self-alignment, pruned blocks
        appear in the registry and the grid total still balances."""
        a = random_codes(rng, 600)
        b = mutated_copy(rng, a, 0.02)
        reg = MetricsRegistry()
        res = align_multi_process(a, b, DNA_DEFAULT, workers=3, block_rows=64,
                                  pruning=True, metrics=reg)
        computed, pruned = _block_totals(reg)
        assert computed + pruned == math.ceil(a.size / 64) * 3
        assert pruned == res.blocks_pruned
        assert res.blocks_pruned > 0  # homologs prune on this workload

    def test_cells_and_border_bytes_consistent(self, rng):
        a = random_codes(rng, 256)
        b = random_codes(rng, 384)
        reg = MetricsRegistry()
        align_multi_process(a, b, DNA_DEFAULT, workers=2, block_rows=64,
                            metrics=reg)
        assert reg.counter("cells_computed").total() == a.size * b.size
        # One internal boundary: worker0 sends, worker1 receives, byte
        # for byte.
        sent = reg.counter("border_bytes_sent").value(device="worker0")
        recv = reg.counter("border_bytes_received").value(device="worker1")
        assert sent == recv > 0
        assert reg.counter("border_bytes_sent").value(device="worker1") == 0

    def test_run_summary_gauges(self, rng):
        a = random_codes(rng, 200)
        b = random_codes(rng, 200)
        reg = MetricsRegistry()
        res = align_multi_process(a, b, DNA_DEFAULT, workers=2, block_rows=32,
                                  metrics=reg)
        assert reg.counter("alignments_total").value(backend="process") == 1
        assert reg.gauge("last_run_gcups").value(
            backend="process") == pytest.approx(res.gcups)
        assert reg.gauge("last_run_wall_time_s").value(backend="process") > 0
        # Sweep latencies landed in the histogram, one per block.
        hist = reg.histogram("block_sweep_seconds", buckets=SWEEP_BUCKETS)
        sweeps = sum(hist.count(device=f"worker{g}") for g in range(2))
        assert sweeps == reg.counter("blocks_computed").total()

    def test_no_metrics_families_without_registry(self, rng):
        """metrics=None must stay a no-op: the run works and no registry
        is invented behind the caller's back."""
        a = random_codes(rng, 120)
        b = random_codes(rng, 150)
        res = align_multi_process(a, b, DNA_DEFAULT, workers=2, block_rows=32)
        assert res.score == sw_score_naive(a, b, DNA_DEFAULT)[0]


class TestPoolAccounting:
    def test_counters_accumulate_across_comparisons(self, rng):
        """The pool merges every run into the same registry: two runs of
        the same shape double the block counters."""
        reg = MetricsRegistry()
        with WorkerPool(2, max_block_rows=64) as pool:
            a = random_codes(rng, 300)
            b = random_codes(rng, 300)
            for _ in range(2):
                res = pool.align(a, b, DNA_DEFAULT, block_rows=64, metrics=reg)
            assert res.score == sw_score_naive(a, b, DNA_DEFAULT)[0]
        n_rows = math.ceil(300 / 64)
        computed, pruned = _block_totals(reg)
        assert (computed, pruned) == (n_rows * 2 * 2, 0)
        assert reg.counter("alignments_total").value(backend="pool") == 2

    def test_pool_pruning_balances_grid(self, rng):
        a = random_codes(rng, 400)
        b = mutated_copy(rng, a, 0.02)
        reg = MetricsRegistry()
        with WorkerPool(2, max_block_rows=64) as pool:
            res = pool.align(a, b, DNA_DEFAULT, block_rows=64, pruning=True,
                             metrics=reg)
        computed, pruned = _block_totals(reg)
        assert computed + pruned == math.ceil(400 / 64) * 2
        assert pruned == res.blocks_pruned


class TestSimChainAccounting:
    def test_sim_chain_counters_match_grid_and_cells(self, rng):
        a = random_codes(rng, 500)
        b = random_codes(rng, 640)
        reg = MetricsRegistry()
        res = align_multi_gpu(a, b, DNA_DEFAULT, ENV2_HOMOGENEOUS,
                              config=ChainConfig(block_rows=64), metrics=reg)
        n_gpus = len(ENV2_HOMOGENEOUS)
        computed, pruned = _block_totals(reg)
        assert pruned == 0
        assert computed == math.ceil(a.size / 64) * n_gpus
        assert reg.counter("cells_computed").total() == a.size * b.size
        assert reg.counter("alignments_total").value(backend="sim") == 1
        assert reg.gauge("last_run_gcups").value(
            backend="sim") == pytest.approx(res.gcups)
        # Every GPU has its own device series ("[i] <spec name>").
        for i, spec in enumerate(ENV2_HOMOGENEOUS):
            assert reg.counter("blocks_computed").value(
                device=f"[{i}] {spec.name}") > 0

    def test_sim_border_traffic_symmetric(self, rng):
        a = random_codes(rng, 256)
        b = random_codes(rng, 512)
        reg = MetricsRegistry()
        align_multi_gpu(a, b, DNA_DEFAULT, ENV2_HOMOGENEOUS,
                        config=ChainConfig(block_rows=64), metrics=reg)
        assert reg.counter("border_bytes_sent").total() == \
            reg.counter("border_bytes_received").total() > 0


class TestSingleGpuAccounting:
    def test_cells_and_blocks_without_pruning(self, rng):
        a = random_codes(rng, 300)
        b = random_codes(rng, 400)
        reg = MetricsRegistry()
        res = run_single_gpu(a, b, DNA_DEFAULT, GTX_680, block_rows=64,
                             metrics=reg)
        assert reg.counter("cells_computed").total() == a.size * b.size
        assert reg.counter("blocks_computed").value(
            device="single-gpu") == math.ceil(a.size / 64)
        assert reg.counter("blocks_pruned").total() == 0
        assert reg.gauge("last_run_gcups").value(
            backend="single") == pytest.approx(res.gcups)

    def test_pruned_blocks_recorded(self, rng):
        a = random_codes(rng, 512)
        b = mutated_copy(rng, a, 0.02)
        reg = MetricsRegistry()
        res = run_single_gpu(a, b, DNA_DEFAULT, GTX_680, block_rows=64,
                             pruning=True, metrics=reg)
        assert res.blocks_pruned > 0
        assert reg.counter("blocks_pruned").value(
            device="single-gpu") == res.blocks_pruned
        assert reg.counter("cells_computed").total() == res.cells_computed


class TestWatchdogOnWorkerDeath:
    def test_killed_worker_error_names_last_completed_row(self, rng):
        """The acceptance scenario: kill worker 1 mid-run with the
        heartbeat armed; the propagated error must say what the victim
        had finished."""
        a = random_codes(rng, 700)
        b = random_codes(rng, 900)
        stalls: list[StallReport] = []
        with pytest.raises(RuntimeError) as err:
            align_multi_process(a, b, DNA_DEFAULT, workers=3, block_rows=64,
                                heartbeat_s=0.5, on_stall=stalls.append,
                                _fault=(1, 3))
        msg = str(err.value)
        assert "worker 1" in msg
        assert "last completed row" in msg
        # The fault fires at block 3, i.e. after 3 completed block rows.
        assert "last completed row 192" in msg
        # The dead worker stalls; its neighbours (blocked on borders that
        # will never move) may be reported too.
        victim = [s for s in stalls if s.worker == 1]
        assert victim and victim[0].rows_done == 192

    def test_death_without_heartbeat_still_reported(self, rng):
        """heartbeat off -> the plain liveness diagnosis, no row detail."""
        a = random_codes(rng, 700)
        b = random_codes(rng, 900)
        with pytest.raises(RuntimeError) as err:
            align_multi_process(a, b, DNA_DEFAULT, workers=3, block_rows=64,
                                _fault=(1, 3))
        assert "worker 1" in str(err.value)
        assert "last completed row" not in str(err.value)

    def test_clean_run_with_heartbeat_reports_no_stalls(self, rng):
        a = random_codes(rng, 200)
        b = random_codes(rng, 240)
        stalls: list[StallReport] = []
        reg = MetricsRegistry()
        res = align_multi_process(a, b, DNA_DEFAULT, workers=2, block_rows=32,
                                  heartbeat_s=30.0, on_stall=stalls.append,
                                  metrics=reg)
        assert res.score == sw_score_naive(a, b, DNA_DEFAULT)[0]
        assert stalls == []
        assert reg.counter("worker_stalls").total() == 0
        # The final tick recorded each worker's full row count.
        for g in range(2):
            assert reg.gauge("worker_rows_done").value(
                device=f"worker{g}") == a.size


class TestTelemetryIsObsOnly:
    def test_obs_errors_are_distinct_type(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ObsError):
            reg.gauge("x")
