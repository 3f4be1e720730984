"""The real-process engine's block height: ``block_rows`` is a cap, and
:func:`~repro.sw.config.block_height` derives the height a comparison
runs from its query length and worker count (INTERNALS.md section 15).

The rule must not change any answer: a hypothesis differential runs the
derived height through every front door of the real-process engine
(``align_multi_process``, ``WorkerPool.align`` and the serve daemon)
against the naive oracle and the simulated chain at an exact 512 rows,
and a recovery run keeps the height it started with.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import random_codes
from repro.comm import list_segments
from repro.device import TESLA_M2090
from repro.multigpu import (ChainConfig, WorkerPool, align_multi_gpu,
                            align_multi_process)
from repro.seq import DNA_DEFAULT
from repro.serve import JobSpec, ServeConfig, ServeDaemon
from repro.sw import sw_score, sw_score_naive
from repro.sw.config import MIN_BLOCK_ROWS, block_height
from repro.workloads import HUMAN_CHIMP, mutate


class TestRule:
    def test_clamps_at_the_floor(self):
        assert block_height(512, 1, 1) == MIN_BLOCK_ROWS == 64
        assert block_height(512, 1000, 2) == 64     # ceil(1000 / 16) = 63
        assert block_height(512, 1025, 2) == 65

    def test_clamps_at_the_cap(self):
        assert block_height(512, 16_384, 2) == 512  # ceil(16384 / 16) = 1024
        assert block_height(512, 10**7, 8) == 512
        assert block_height(2048, 10**7, 8) == 2048

    def test_eight_block_rows_per_worker(self):
        """Once the query has 512 rows per worker the floor cannot bind."""
        for workers in (1, 2, 3, 4, 8):
            for m in range(512 * workers, 40 * 512 * workers, 997):
                height = block_height(512, m, workers)
                assert math.ceil(m / height) >= 8 * workers, (m, workers)

    @pytest.mark.parametrize("cap", [1, 16, 63])
    def test_a_smaller_explicit_height_wins(self, cap):
        for m, workers in ((1, 1), (1000, 2), (10**6, 3)):
            assert block_height(cap, m, workers) == cap

    def test_a_larger_explicit_height_is_a_cap(self):
        assert block_height(4096, 1000, 2) == 64
        assert block_height(4096, 10**6, 2) == 4096


def _pair(seed: int, m: int, n: int, homolog: bool):
    rng = np.random.default_rng(seed)
    a = random_codes(rng, m)
    if homolog:
        b = mutate(a, HUMAN_CHIMP, rng=rng)[:n]
        if b.size < n:
            b = np.concatenate([b, random_codes(rng, n - b.size)])
    else:
        b = random_codes(rng, n)
    return a, b


def _check_prune_counters(res, height: int, rows: int) -> None:
    """Pruning on: every worker checks each of its block rows once."""
    per_worker = math.ceil(rows / height)
    assert [c for c, _ in res.worker_blocks] == [per_worker] * res.workers
    assert res.blocks_checked == per_worker * res.workers
    assert all(0 <= p <= c for c, p in res.worker_blocks)
    assert res.blocks_pruned == sum(p for _, p in res.worker_blocks)


@pytest.fixture(scope="class")
def daemon():
    d = ServeDaemon(ServeConfig(pools=1, workers=2, queue_depth=8,
                                cache_entries=0), status_port=None)
    d.start()
    yield d
    d.stop()


class TestDerivedHeightDifferential:
    """The derived height answers exactly what the oracle and the
    simulated chain at an exact 512 answer, through every front door."""

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        m=st.integers(min_value=1, max_value=1200),
        n=st.integers(min_value=3, max_value=160),
        workers=st.integers(min_value=1, max_value=3),
        cap=st.sampled_from([16, 64, 100, 128, 256, 512]),
        pruning=st.booleans(),
        homolog=st.booleans(),
    )
    def test_front_doors_agree(self, daemon, seed, m, n, workers, cap,
                               pruning, homolog):
        a, b = _pair(seed, m, n, homolog)
        segments = list_segments()  # the daemon's pool holds its own
        want = sw_score_naive(a, b, DNA_DEFAULT)
        sim = align_multi_gpu(a, b, DNA_DEFAULT, [TESLA_M2090] * workers,
                              config=ChainConfig(block_rows=512))

        height = block_height(cap, m, workers)
        one_shot = align_multi_process(a, b, DNA_DEFAULT, workers=workers,
                                       block_rows=cap, pruning=pruning)
        with WorkerPool(workers, max_block_rows=512) as pool:
            pooled = pool.align(a, b, DNA_DEFAULT, block_rows=cap,
                                pruning=pruning)
        for res in (one_shot, pooled):
            assert res.config.block_rows == height
            if pruning:
                _check_prune_counters(res, height, m)

        record = daemon.submit(JobSpec(a_codes=a, b_codes=b,
                                       scoring=DNA_DEFAULT, block_rows=cap,
                                       pruning=pruning, use_cache=False))
        record = daemon.queue.wait_for(record.id, timeout=60.0)
        assert record.state == "done", record.error
        got = record.result
        served = (got["score"], got["row"], got["col"])

        for res in (sim, one_shot, pooled):
            assert res.score == want[0]
        assert served[0] == want[0]
        if want[0] > 0:
            for cell in (served, *((r.score, r.best.row, r.best.col)
                                   for r in (sim, one_shot, pooled))):
                assert cell == want
        assert list_segments() == segments


class TestRecoveryKeepsItsHeight:
    def test_killed_worker_resumes_at_the_same_height(self, rng):
        """Three workers derive 125 rows for a 3000-row query; after one
        dies the two survivors (which would derive 188) resume at 125,
        so the checkpoint rows line up, and the score is exact."""
        a = random_codes(rng, 3000)
        b = random_codes(rng, 150)
        ref = sw_score(a, b, DNA_DEFAULT)
        height = block_height(512, 3000, 3)
        assert height == 125 != block_height(512, 3000, 2)
        res = align_multi_process(
            a, b, DNA_DEFAULT, workers=3, block_rows=512, timeout_s=120.0,
            border_timeout_s=2.0, max_restarts=1, restart_backoff_s=0.01,
            _fault=(1, 9))  # block 9 is off the checkpoint ladder (stride 4)
        assert res.restarts == 1 and res.workers == 2
        assert res.rows_recomputed > 0
        assert res.config.block_rows == height
        assert (res.score, res.best.row, res.best.col) == \
            (ref.score, ref.row, ref.col)
        assert list_segments() == []
