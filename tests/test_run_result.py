"""One result core: every engine answers with a
:class:`~repro.sw.tiers.RunResult`, whose counters are a
:class:`~repro.sw.tiers.SweepTally` summed once from the engine's parts.
"""

from __future__ import annotations

import math
from dataclasses import fields

import numpy as np
import pytest

from repro.baselines.single_gpu import run_single_gpu
from repro.device.spec import GTX_580, GTX_680, TESLA_K20
from repro.multigpu import WorkerPool, align_multi_gpu, align_multi_process
from repro.multigpu.chain import ChainConfig
from repro.perf.report import result_dict
from repro.seq import DNA_DEFAULT
from repro.sw import sw_score_naive
from repro.sw.tiers import RunResult, SweepTally

from helpers import mutated_copy, random_codes

DEVICES = [GTX_580, GTX_680, TESLA_K20]
#: The result-dict sections every engine writes through one helper each.
SHARED_SECTIONS = ("cells", "score", "end", "pruning", "floor", "heuristic",
                   "dtype")


def _engines(a, b, pool, **config):
    """One run of *a* x *b* through each engine, by name (the last on
    *pool*)."""
    yield "single", run_single_gpu(a, b, DNA_DEFAULT, GTX_580,
                                   block_rows=32, **config)
    yield "sim", align_multi_gpu(a, b, DNA_DEFAULT, DEVICES,
                                 config=ChainConfig(block_rows=32, **config))
    yield "process", align_multi_process(a, b, DNA_DEFAULT, workers=2,
                                         block_rows=32, **config)
    yield "pool", pool.align(a, b, DNA_DEFAULT, block_rows=32, **config)


def test_every_engine_answers_with_one_result_core(rng):
    """One homolog pair through all four engines: each result is a
    :class:`RunResult` with every counter and every shared result-dict
    section, a chain's tally is its devices' sum, and a pool's (no
    failure) its workers' outcomes' sum."""
    a = random_codes(rng, 300)
    b = mutated_copy(rng, a, 0.05)
    want = sw_score_naive(a, b, DNA_DEFAULT)
    collected = []
    with WorkerPool(2) as pool:
        collect = pool._collect

        def spy(*args, **kwargs):
            collected.append(collect(*args, **kwargs))
            return collected[-1]

        pool._collect = spy
        results = dict(_engines(a, b, pool, dp_dtype="int16"))
    for name, res in results.items():
        assert isinstance(res, RunResult), name
        assert (res.score, res.best.row, res.best.col) == want, name
        for f in fields(SweepTally):
            assert isinstance(getattr(res, f.name), int), (name, f.name)
        assert res.blocks_checked > 0 and res.cells_swept > 0, name
        assert res.blocks_narrow > 0, name
        d = result_dict(res)
        assert set(SHARED_SECTIONS) <= set(d), name
        assert d["pruning"] is not None and d["dtype"] is not None, name

    chain = results["sim"]
    assert chain.tally == sum((g.tally for g in chain.gpus), SweepTally())

    [(reports, failures)] = collected
    pooled = results["pool"]
    assert not failures and pooled.restarts == 0
    outcomes = [reports[g].outcome for g in sorted(reports)]
    assert pooled.tally == sum((o.tally for o in outcomes), SweepTally())
    assert list(pooled.worker_blocks) == [
        (o.tally.blocks_checked, o.tally.blocks_pruned) for o in outcomes]


@pytest.mark.parametrize("pair", ["identical", "no-match"])
def test_gcups_stays_finite_on_every_engine(rng, pair):
    """Every engine's ``gcups`` goes through :func:`repro.perf.metrics.gcups`,
    which refuses a non-positive time.  An identical pair prunes the most,
    but the block holding the best cell is always swept (pruning needs a
    bound below the best); a pair with no matching base prunes nothing."""
    a = random_codes(rng, 300)
    if pair == "identical":
        b = a.copy()
    else:
        a, b = np.zeros(300, dtype=a.dtype), np.full(300, 1, dtype=a.dtype)
    with WorkerPool(2) as pool:
        results = dict(_engines(a, b, pool))
    for name, res in results.items():
        assert math.isfinite(res.gcups) and res.gcups > 0, name
        assert res.score == (300 if pair == "identical" else 0), name
