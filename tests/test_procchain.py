"""Integration tests: repro.multigpu.procchain (real OS processes)."""

from __future__ import annotations

import multiprocessing as mp
import time

import pytest

from repro.device.trace import Tracer
from repro.errors import ConfigError
from repro.multigpu import TRANSPORTS, align_multi_process, pick_context
from repro.seq import DNA_DEFAULT
from repro.sw import sw_score_naive

from helpers import mutated_copy, random_codes


class TestExactness:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_matches_oracle(self, rng, workers):
        a = random_codes(rng, 90)
        b = random_codes(rng, 140)
        want, wi, wj = sw_score_naive(a, b, DNA_DEFAULT)
        res = align_multi_process(a, b, DNA_DEFAULT, workers=workers,
                                  block_rows=16)
        assert res.score == want
        if want > 0:
            assert (res.best.row, res.best.col) == (wi, wj)
        assert res.workers == workers
        assert res.wall_time_s > 0
        assert res.gcups > 0

    def test_homolog_path_crosses_worker_boundaries(self, rng):
        a = random_codes(rng, 200)
        b = mutated_copy(rng, a, 0.04)
        want, *_ = sw_score_naive(a, b, DNA_DEFAULT)
        res = align_multi_process(a, b, DNA_DEFAULT, workers=3, block_rows=32)
        assert res.score == want

    def test_deterministic(self, rng):
        a = random_codes(rng, 80)
        b = random_codes(rng, 80)
        r1 = align_multi_process(a, b, DNA_DEFAULT, workers=2, block_rows=16)
        r2 = align_multi_process(a, b, DNA_DEFAULT, workers=2, block_rows=16)
        assert (r1.score, r1.best.row, r1.best.col) == (r2.score, r2.best.row, r2.best.col)

    def test_agrees_with_simulated_chain(self, rng):
        from repro.device import ENV2_HOMOGENEOUS
        from repro.multigpu import align_multi_gpu

        a = random_codes(rng, 120)
        b = random_codes(rng, 150)
        sim = align_multi_gpu(a, b, DNA_DEFAULT, ENV2_HOMOGENEOUS)
        real = align_multi_process(a, b, DNA_DEFAULT, workers=2, block_rows=16)
        assert sim.score == real.score
        assert (sim.best.row, sim.best.col) == (real.best.row, real.best.col)


class TestTransportsAndContexts:
    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_transports_are_bit_identical(self, rng, transport):
        a = random_codes(rng, 100)
        b = random_codes(rng, 160)
        want, wi, wj = sw_score_naive(a, b, DNA_DEFAULT)
        res = align_multi_process(a, b, DNA_DEFAULT, workers=3, block_rows=16,
                                  transport=transport)
        assert res.score == want
        if want > 0:
            assert (res.best.row, res.best.col) == (wi, wj)
        assert res.transport == transport

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_spawn_context_regression(self, rng, transport):
        """The backend must work with spawn-safe worker arguments — the
        portability fix over the old hard-coded fork context."""
        a = random_codes(rng, 80)
        b = random_codes(rng, 120)
        want, *_ = sw_score_naive(a, b, DNA_DEFAULT)
        res = align_multi_process(a, b, DNA_DEFAULT, workers=2, block_rows=16,
                                  transport=transport, start_method="spawn")
        assert res.score == want
        assert res.start_method == "spawn"

    def test_default_context_prefers_fork(self):
        methods = mp.get_all_start_methods()
        ctx = pick_context()
        if "fork" in methods:
            assert ctx.get_start_method() == "fork"
        else:  # pragma: no cover - non-POSIX platforms
            assert ctx.get_start_method() == "spawn"
        with pytest.raises(ConfigError):
            pick_context("not-a-method")
        # The inline tiers stamp the same default without multiprocessing.
        from repro.multigpu.front import default_start_method

        assert default_start_method() == ctx.get_start_method()

    def test_proportional_weights(self, rng):
        a = random_codes(rng, 60)
        b = random_codes(rng, 400)
        res = align_multi_process(a, b, DNA_DEFAULT, workers=2, block_rows=16,
                                  weights=[3.0, 1.0])
        assert [s.cols for s in res.partition] == [300, 100]
        want, *_ = sw_score_naive(a, b, DNA_DEFAULT)
        assert res.score == want


class TestObservability:
    def test_tracer_and_breakdown(self, rng):
        a = random_codes(rng, 150)
        b = random_codes(rng, 200)
        tracer = Tracer()
        res = align_multi_process(a, b, DNA_DEFAULT, workers=2, block_rows=32,
                                  tracer=tracer, pruning=False)
        assert res.tracer is tracer
        assert tracer.actors() == ["worker0", "worker1"]
        # Every worker computed; the downstream worker waited on borders.
        assert tracer.total("worker0", "compute") > 0
        assert tracer.total("worker1", "compute") > 0
        bd = res.breakdown()
        assert len(bd) == 2
        for row in bd:
            assert set(row) == {"compute", "transfer", "wait", "idle"}
            assert 0.0 <= sum(row.values()) <= 1.0 + 1e-9

    def test_process_report_renders(self, rng):
        from repro.perf.report import process_report, process_result_dict

        a = random_codes(rng, 80)
        b = random_codes(rng, 100)
        res = align_multi_process(a, b, DNA_DEFAULT, workers=2, block_rows=32)
        text = process_report(res)
        assert "worker0" in text and "transport=shm" in text
        d = process_result_dict(res)
        assert d["config"]["workers"] == 2
        assert len(d["workers"]) == 2
        assert d["gcups"] == pytest.approx(res.gcups)

    def test_gcups_routes_through_metrics(self):
        """One documented behaviour: non-positive time raises, never 0.0."""
        from repro.multigpu.procchain import ProcessChainResult
        from repro.sw.kernel import BestCell

        bad = ProcessChainResult(best=BestCell.none(), wall_time_s=0.0,
                                 cells=100, workers=1)
        with pytest.raises(ValueError):
            bad.gcups


class TestInlineTiers:
    @pytest.mark.parametrize("mode", ["banded", "xdrop"])
    def test_inline_tier_reports_a_parent_span_and_partition(self, rng, mode):
        """A tier answered inline reports what the parent did: one
        ``compute`` span of actor ``parent`` over the one slab it swept,
        with no worker started and no shared-memory segment left."""
        from repro.comm import list_segments
        from repro.obs import EventJournal

        a = random_codes(rng, 150)
        b = mutated_copy(rng, a, 0.03)
        before = list_segments()
        journal = EventJournal()
        res = align_multi_process(a, b, DNA_DEFAULT, workers=2, mode=mode,
                                  events=journal)
        assert list_segments() == before
        assert journal.count("worker_spawn") == 0
        assert res.workers == 0 and res.tier == mode
        assert [(iv.actor, iv.kind) for iv in res.tracer.intervals] == \
            [("parent", "compute")]
        assert 0 < res.tracer.intervals[0].duration <= res.wall_time_s
        assert [(s.col0, s.col1) for s in res.partition] == [(0, b.size)]


class TestFailureHandling:
    def test_killed_worker_raises_descriptively(self, rng):
        """Failure injection: a worker hard-crashes mid-run; the parent
        reports it cleanly, well within the run timeout."""
        a = random_codes(rng, 400)
        b = random_codes(rng, 240)
        t0 = time.monotonic()
        with pytest.raises(RuntimeError, match=r"worker 1.*died"):
            align_multi_process(a, b, DNA_DEFAULT, workers=3, block_rows=16,
                                timeout_s=30.0, border_timeout_s=5.0,
                                _fault=(1, 2))
        assert time.monotonic() - t0 < 20.0

    def test_killed_worker_leaves_no_shm(self, rng):
        from repro.comm import list_segments

        before = set(list_segments())
        a = random_codes(rng, 200)
        b = random_codes(rng, 150)
        with pytest.raises(RuntimeError):
            align_multi_process(a, b, DNA_DEFAULT, workers=2, block_rows=16,
                                timeout_s=20.0, border_timeout_s=3.0,
                                _fault=(0, 1))
        assert set(list_segments()) <= before

    def test_deterministic_error_ordering(self, rng):
        """Worker failures are reported in worker-id order."""
        a = random_codes(rng, 300)
        b = random_codes(rng, 200)
        with pytest.raises(RuntimeError) as err:
            align_multi_process(a, b, DNA_DEFAULT, workers=3, block_rows=16,
                                timeout_s=20.0, border_timeout_s=2.0,
                                _fault=(0, 1))
        text = str(err.value)
        positions = [text.find(f"worker {g}") for g in range(3)
                     if f"worker {g}" in text]
        assert positions == sorted(positions)


class TestValidation:
    def test_bad_parameters(self, rng, monkeypatch):
        """Every refusal happens before any worker process starts."""
        started = []
        monkeypatch.setattr(mp.process.BaseProcess, "start",
                            lambda proc: started.append(proc))
        a = random_codes(rng, 10)
        cases = [
            (a, dict(workers=0)),
            (a, dict(workers=2, block_rows=0)),
            (random_codes(rng, 1), dict(workers=2)),
            (a, dict(workers=2, transport="udp")),
            (a, dict(workers=2, weights=[1.0])),
            (a, dict(workers=2, capacity=0)),
            (a, dict(workers=2, kernel="no-such-kernel")),
            (a, dict(workers=2, mode="no-such-mode")),
            (a, dict(workers=2, dp_dtype="int4")),
            (a, dict(workers=2, mode="banded", band_width=-1)),
            (a, dict(workers=2, mode="xdrop", xdrop_x=0)),
            (a, dict(workers=2, mode="xdrop", transport="udp")),
            (a, dict(workers=2, start_method="not-a-method")),
            (a, dict(workers=2, max_restarts=-1)),
        ]
        for b, kwargs in cases:
            with pytest.raises(ConfigError):
                align_multi_process(a, b, DNA_DEFAULT, **kwargs)
            assert started == [], kwargs
            assert mp.active_children() == [], kwargs

    def test_empty_sequences_rejected(self):
        import numpy as np
        with pytest.raises(ConfigError):
            align_multi_process(np.array([], dtype=np.uint8),
                                np.array([1], dtype=np.uint8), DNA_DEFAULT)
