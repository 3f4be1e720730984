"""Additional coverage: trace rendering paths, cluster+checkpoint combos,
autotune with the SM model attached."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.device import GTX_680, TESLA_M2090, Tracer, calibrated, render_gantt
from repro.multigpu import (
    ChainConfig,
    ClusterChain,
    MatrixWorkload,
    Node,
    autotune,
    time_multi_gpu,
)
from repro.seq import DNA_DEFAULT
from repro.sw import sw_score_naive

from helpers import random_codes


class TestGanttRenderingPaths:
    def test_makespan_inferred_from_intervals(self):
        t = Tracer()
        t.record("a", "compute", 0.0, 4.0)
        t.record("a", "d2h", 4.0, 5.0)
        art = render_gantt(t, width=10)
        assert "#" in art and ">" in art

    def test_h2d_and_wait_glyphs(self):
        t = Tracer()
        t.record("b", "h2d", 0.0, 5.0)
        t.record("b", "wait", 5.0, 10.0)
        art = render_gantt(t, width=10)
        assert "<" in art and "." in art

    def test_dominant_kind_wins_bucket(self):
        t = Tracer()
        t.record("a", "compute", 0.0, 0.9)
        t.record("a", "d2h", 0.9, 1.0)
        art = render_gantt(t, width=1)
        assert "#" in art.splitlines()[0]

    def test_zero_length_trace(self):
        t = Tracer()
        t.record("a", "compute", 0.0, 0.0)
        assert "zero-length" in render_gantt(t)


class TestClusterCheckpoint:
    def test_checkpoint_moves_between_cluster_and_single_host(self, rng):
        """Stop on a cluster, resume on a plain multi-GPU chain."""
        a = random_codes(rng, 160)
        b = random_codes(rng, 200)
        want, *_ = sw_score_naive(a, b, DNA_DEFAULT)
        wl = MatrixWorkload(a, b, DNA_DEFAULT)

        cluster = ClusterChain(
            [Node("n0", (TESLA_M2090,)), Node("n1", (TESLA_M2090,))],
            config=ChainConfig(block_rows=16),
        )
        ck = cluster.run(wl, stop_row=80).checkpoint
        assert ck is not None

        from repro.multigpu import MultiGpuChain
        plain = MultiGpuChain((GTX_680,), config=ChainConfig(block_rows=16))
        assert plain.run(wl, resume=ck).score == want

    def test_cluster_with_tracer(self, rng):
        a = random_codes(rng, 100)
        tracer = Tracer()
        cluster = ClusterChain(
            [Node("n0", (TESLA_M2090,)), Node("n1", (TESLA_M2090,))],
            config=ChainConfig(block_rows=16),
        )
        cluster.run(MatrixWorkload(a, a, DNA_DEFAULT), tracer=tracer)
        assert len(tracer.actors()) == 2
        # Cross-node traffic shows up as both D2H (sender) and H2D (receiver).
        names = tracer.actors()
        assert tracer.total(names[0], "d2h") > 0
        assert tracer.total(names[1], "h2d") > 0


class TestAutotuneWithSMModel:
    def test_sm_model_pushes_block_height_up(self):
        """With the intra-GPU pipeline model, tiny block rows starve the
        device, so the tuner must avoid the smallest candidates."""
        sm = calibrated(GTX_680.gcups, sm_count=8, min_block_cols=2048,
                        rows_per_step=8)
        dev = replace(GTX_680, sm_model=sm)
        t = autotune((dev, dev), 2_000_000, 2_000_000,
                     block_rows_candidates=(64, 256, 4096, 16384))
        assert t.config.block_rows >= 4096
        # Confirm on the simulator: the tuned config beats the smallest.
        tuned = time_multi_gpu(2_000_000, 2_000_000, (dev, dev), config=t.config)
        tiny = time_multi_gpu(2_000_000, 2_000_000, (dev, dev),
                              config=ChainConfig(block_rows=64,
                                                 channel_capacity=t.config.channel_capacity))
        assert tuned.gcups > tiny.gcups
