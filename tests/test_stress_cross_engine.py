"""Stress tests: every engine agrees, on fixed and randomized workloads.

Part one: one moderately large compute-mode comparison (1000 x 1200 with
indels and an N-run) pushed through ALL six score paths — monolithic
kernel, blocked executor, pruned blocked executor, simulated multi-GPU
chain, cluster chain, real-process chain — plus the full traceback.

Part two: a hypothesis-driven differential suite that draws the sequences,
the scoring scheme, the worker count, the block height, AND the slab ratio,
then demands bit-identical scores and end points from the naive oracle, the
simulated chain, and the shared-memory process backend.  The single most
important end-to-end guarantee of the library lives in this file.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.single_gpu import run_single_gpu
from repro.comm import NetworkLink
from repro.device import ENV1_HETEROGENEOUS, TESLA_M2090
from repro.multigpu import (
    ChainConfig,
    ClusterChain,
    MatrixWorkload,
    MultiGpuChain,
    Node,
    WorkerPool,
    align_multi_gpu,
    align_multi_process,
)
from repro.multigpu.partition import proportional_partition
from repro.seq import DNA_DEFAULT, Scoring
from repro.sw import (
    BlockJob,
    BlockPruner,
    align_local,
    build_profile,
    compute_blocked,
    grid_specs,
    sw_score,
    sw_score_diagonal,
    sw_score_naive,
    sweep_block,
    sweep_wavefront,
    xdrop_score,
)
from repro.sw.banded import banded_score
from repro.sw.constants import DTYPE
from repro.workloads import insert_n_runs, mutate, HUMAN_CHIMP, random_dna


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(2024)
    a = random_dna(1000, rng=rng)
    a = insert_n_runs(a, rng=rng, run_count=1, run_fraction=0.02)
    b = mutate(a, HUMAN_CHIMP, rng=rng)[:1200]
    if b.size < 1200:
        b = np.concatenate([b, random_dna(1200 - b.size, rng=rng)])
    return a, b


@pytest.fixture(scope="module")
def reference(workload):
    a, b = workload
    return sw_score(a, b, DNA_DEFAULT)


class TestAllEnginesAgree:
    def test_blocked(self, workload, reference):
        a, b = workload
        out = compute_blocked(a, b, DNA_DEFAULT, block_rows=64, block_cols=96)
        assert out.best.score == reference.score
        assert (out.best.row, out.best.col) == (reference.row, reference.col)

    def test_blocked_pruned(self, workload, reference):
        a, b = workload
        out = compute_blocked(a, b, DNA_DEFAULT, block_rows=64, block_cols=64,
                              pruner=BlockPruner(match=DNA_DEFAULT.match))
        assert out.best.score == reference.score
        assert out.cells_pruned > 0  # similarity high enough to prune

    def test_multi_gpu_chain(self, workload, reference):
        a, b = workload
        res = align_multi_gpu(a, b, DNA_DEFAULT, ENV1_HETEROGENEOUS,
                              config=ChainConfig(block_rows=128))
        assert res.score == reference.score
        assert (res.best.row, res.best.col) == (reference.row, reference.col)

    def test_cluster_chain(self, workload, reference):
        a, b = workload
        nodes = [Node("n0", (TESLA_M2090,), uplink=NetworkLink(gbps=1.25)),
                 Node("n1", (TESLA_M2090, TESLA_M2090))]
        res = ClusterChain(nodes, config=ChainConfig(block_rows=128)).run(
            MatrixWorkload(a, b, DNA_DEFAULT))
        assert res.score == reference.score

    def test_process_chain(self, workload, reference):
        a, b = workload
        res = align_multi_process(a, b, DNA_DEFAULT, workers=3, block_rows=128)
        assert res.score == reference.score
        assert (res.best.row, res.best.col) == (reference.row, reference.col)

    def test_banded_wide(self, workload, reference):
        a, b = workload
        got = banded_score(a, b, DNA_DEFAULT, half_width=400)
        assert got.score == reference.score

    def test_full_traceback(self, workload, reference):
        a, b = workload
        aln = align_local(a, b, DNA_DEFAULT, special_interval=128)
        assert aln.score == reference.score
        aln.validate(a, b, DNA_DEFAULT)
        assert aln.end_i == reference.row + 1
        assert aln.end_j == reference.col + 1


class TestDifferentialRandomized:
    """Hypothesis drives the full configuration space through three engines.

    Every example is one randomized comparison run through (1) the naive
    full-matrix oracle, (2) the simulated device chain with an explicit
    proportional partition, and (3) the shared-memory real-process backend
    with the same slab ratio.  All three must agree bit-exactly on the
    score and on the end point the traceback would start from.
    """

    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        m=st.integers(min_value=24, max_value=140),
        n=st.integers(min_value=36, max_value=180),
        match=st.integers(min_value=1, max_value=4),
        mismatch=st.integers(min_value=-4, max_value=0),
        gap_open=st.integers(min_value=0, max_value=5),
        gap_extend=st.integers(min_value=1, max_value=3),
        workers=st.integers(min_value=1, max_value=3),
        block_rows=st.integers(min_value=5, max_value=64),
        ratios=st.lists(st.floats(min_value=0.5, max_value=4.0),
                        min_size=3, max_size=3),
        homolog=st.booleans(),
    )
    def test_three_engines_bit_identical(self, seed, m, n, match, mismatch,
                                         gap_open, gap_extend, workers,
                                         block_rows, ratios, homolog):
        rng = np.random.default_rng(seed)
        a = random_dna(m, rng=rng)
        b = mutate(a, HUMAN_CHIMP, rng=rng) if homolog else random_dna(n, rng=rng)
        b = b[:n] if b.size >= n else np.concatenate(
            [b, random_dna(n - b.size, rng=rng)])
        scoring = Scoring(match=match, mismatch=mismatch,
                          gap_open=gap_open, gap_extend=gap_extend)
        weights = ratios[:workers]
        partition = proportional_partition(n, weights)

        want, wi, wj = sw_score_naive(a, b, scoring)

        sim = MultiGpuChain([TESLA_M2090] * workers,
                            config=ChainConfig(block_rows=block_rows),
                            partition=partition).run(
            MatrixWorkload(a, b, scoring))
        assert sim.score == want

        real = align_multi_process(a, b, scoring, workers=workers,
                                   block_rows=block_rows, transport="shm",
                                   weights=weights)
        assert real.score == want
        assert [s.cols for s in real.partition] == [s.cols for s in partition]

        if want > 0:
            assert (sim.best.row, sim.best.col) == (wi, wj)
            assert (real.best.row, real.best.col) == (wi, wj)


class TestBatchedKernelDifferential:
    """Hypothesis drives the batched wavefront kernel against the scalar one.

    Two levels: (1) block level — a random wavefront of ragged blocks with
    random boundary state, ``sweep_wavefront`` vs per-job ``sweep_block``,
    bit-exact on every border, corner, and best cell, in local AND global
    mode; (2) matrix level — ``compute_blocked(kernel="batched")`` (with
    and without pruning) vs the scalar executor AND the independent
    anti-diagonal oracle ``sw_score_diagonal``.
    """

    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        blocks=st.integers(min_value=1, max_value=6),
        max_rows=st.integers(min_value=1, max_value=40),
        max_cols=st.integers(min_value=1, max_value=40),
        match=st.integers(min_value=1, max_value=4),
        mismatch=st.integers(min_value=-4, max_value=0),
        gap_open=st.integers(min_value=0, max_value=5),
        gap_extend=st.integers(min_value=1, max_value=3),
        local=st.booleans(),
    )
    def test_wavefront_blockwise_bit_identical(self, seed, blocks, max_rows,
                                               max_cols, match, mismatch,
                                               gap_open, gap_extend, local):
        rng = np.random.default_rng(seed)
        scoring = Scoring(match=match, mismatch=mismatch,
                          gap_open=gap_open, gap_extend=gap_extend)
        jobs = []
        for _ in range(blocks):
            rows = int(rng.integers(1, max_rows + 1))
            cols = int(rng.integers(1, max_cols + 1))
            b = rng.integers(0, 5, cols).astype(np.uint8)
            jobs.append(BlockJob(
                a_codes=rng.integers(0, 5, rows).astype(np.uint8),
                profile=build_profile(b, scoring),
                h_top=rng.integers(-80, 90, cols).astype(DTYPE),
                f_top=rng.integers(-150, 60, cols).astype(DTYPE),
                h_left=rng.integers(-80, 90, rows).astype(DTYPE),
                e_left=rng.integers(-150, 60, rows).astype(DTYPE),
                h_diag=int(rng.integers(-80, 90)),
            ))
        results = sweep_wavefront(jobs, scoring, local=local)
        for job, got in zip(jobs, results):
            want = sweep_block(job.a_codes, job.profile, job.h_top, job.f_top,
                               job.h_left, job.e_left, job.h_diag, scoring,
                               local=local)
            np.testing.assert_array_equal(got.h_bottom, want.h_bottom)
            np.testing.assert_array_equal(got.f_bottom, want.f_bottom)
            np.testing.assert_array_equal(got.h_right, want.h_right)
            np.testing.assert_array_equal(got.e_right, want.e_right)
            assert got.corner == want.corner
            assert got.best == want.best

    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        m=st.integers(min_value=3, max_value=130),
        n=st.integers(min_value=3, max_value=170),
        block_rows=st.integers(min_value=1, max_value=48),
        block_cols=st.integers(min_value=1, max_value=48),
        match=st.integers(min_value=1, max_value=4),
        mismatch=st.integers(min_value=-4, max_value=0),
        gap_open=st.integers(min_value=0, max_value=5),
        gap_extend=st.integers(min_value=1, max_value=3),
        homolog=st.booleans(),
        prune=st.booleans(),
    )
    def test_blocked_executor_bit_identical(self, seed, m, n, block_rows,
                                            block_cols, match, mismatch,
                                            gap_open, gap_extend, homolog,
                                            prune):
        rng = np.random.default_rng(seed)
        a = random_dna(m, rng=rng)
        b = mutate(a, HUMAN_CHIMP, rng=rng) if homolog else random_dna(n, rng=rng)
        b = b[:n] if b.size >= n else np.concatenate(
            [b, random_dna(n - b.size, rng=rng)])
        scoring = Scoring(match=match, mismatch=mismatch,
                          gap_open=gap_open, gap_extend=gap_extend)

        def run(kernel, pruned):
            pruner = BlockPruner(match=scoring.match) if pruned else None
            return compute_blocked(a, b, scoring, block_rows=block_rows,
                                   block_cols=block_cols, pruner=pruner,
                                   kernel=kernel)

        oracle = sw_score_diagonal(a, b, scoring)
        scalar = run("scalar", prune)
        batched = run("batched", prune)
        assert batched.best == scalar.best
        if oracle.score > 0:
            assert batched.best == oracle
        else:
            assert batched.best.row == -1  # no positive cell anywhere


class TestDistributedPruningDifferential:
    """Hypothesis proves distributed pruning is a pure optimisation.

    High-similarity mutated self-comparisons (the workload pruning is for)
    run with pruning on and off through the simulated chain and the
    real-process backend, under both block kernels.  Every combination
    must report the bit-identical score AND end cell; the end cell is
    further cross-checked against the full traceback pipeline
    (``align_local``), so a pruning bug that shifted the optimum's
    endpoint — and thus every stage-2/3 special row downstream — cannot
    hide behind a coincidentally equal score.
    """

    @settings(max_examples=5, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        m=st.integers(min_value=80, max_value=200),
        workers=st.integers(min_value=1, max_value=3),
        block_rows=st.integers(min_value=8, max_value=48),
        kernel=st.sampled_from(["scalar", "batched"]),
    )
    def test_pruning_on_equals_off(self, seed, m, workers, block_rows, kernel):
        rng = np.random.default_rng(seed)
        a = random_dna(m, rng=rng)
        b = mutate(a, HUMAN_CHIMP, rng=rng)
        n = int(b.size)
        scoring = DNA_DEFAULT

        ref = align_multi_gpu(
            a, b, scoring, [TESLA_M2090] * workers,
            config=ChainConfig(block_rows=block_rows, kernel=kernel))

        sim = align_multi_gpu(
            a, b, scoring, [TESLA_M2090] * workers,
            config=ChainConfig(block_rows=block_rows, kernel=kernel,
                               pruning=True))
        assert sim.score == ref.score
        assert (sim.best.row, sim.best.col) == (ref.best.row, ref.best.col)
        assert sim.blocks_checked > 0

        real_off = align_multi_process(a, b, scoring, workers=min(workers, n),
                                       block_rows=block_rows, kernel=kernel)
        real_on = align_multi_process(a, b, scoring, workers=min(workers, n),
                                      block_rows=block_rows, kernel=kernel,
                                      pruning=True)
        assert real_off.score == ref.score
        assert real_on.score == ref.score
        assert (real_on.best.row, real_on.best.col) == \
            (ref.best.row, ref.best.col)
        assert real_on.blocks_checked > 0
        assert not real_off.pruning and real_off.blocks_checked == 0

        # Traceback cross-check: the endpoint every engine agreed on is the
        # one the stage-2/3 pipeline actually walks back from.
        if ref.score > 0:
            aln = align_local(a, b, scoring)
            assert aln.score == ref.score
            assert (aln.end_i - 1, aln.end_j - 1) == \
                (ref.best.row, ref.best.col)


def _counter_total(registry, name: str) -> float:
    fam = registry.snapshot()["counters"].get(name)
    return sum(s["value"] for s in fam["series"]) if fam else 0


def _front_doors(a, b, **tiers):
    """One run per public front door — single device, simulated chain,
    one-shot process engine and a persistent pool — each a callable
    taking the metrics registry to record into."""
    def pooled(reg):
        with WorkerPool(2, max_block_rows=64) as pool:
            return pool.align(a, b, DNA_DEFAULT, block_rows=64, metrics=reg,
                              **tiers)

    return (
        lambda reg: run_single_gpu(a, b, DNA_DEFAULT, TESLA_M2090,
                                   block_rows=64, metrics=reg, **tiers),
        lambda reg: align_multi_gpu(
            a, b, DNA_DEFAULT, [TESLA_M2090] * 2,
            config=ChainConfig(block_rows=64, **tiers), metrics=reg),
        lambda reg: align_multi_process(a, b, DNA_DEFAULT, workers=2,
                                        block_rows=64, metrics=reg, **tiers),
        pooled,
    )


class TestHeuristicDifferential:
    """The ``mode="auto"`` contract, differentially, across engines.

    On similar pairs (the <= 5%-divergence traffic the heuristic tier is
    for) auto must return the bit-exact score of the exact engines while
    answering from the banded tier; on divergent pairs the confidence
    check must force an escalation and the final answer must again equal
    exact.  The tier taken is asserted through the metrics registry
    (``heuristic_hits`` / ``escalations``), not just the result fields,
    so the reporting path is pinned too.
    """

    @settings(max_examples=5, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        m=st.integers(min_value=100, max_value=220),
        workers=st.integers(min_value=1, max_value=3),
        block_rows=st.integers(min_value=16, max_value=64),
        kernel=st.sampled_from(["scalar", "batched"]),
    )
    def test_auto_matches_exact_on_similar_pairs(self, seed, m, workers,
                                                 block_rows, kernel):
        rng = np.random.default_rng(seed)
        a = random_dna(m, rng=rng)
        b = mutate(a, HUMAN_CHIMP, rng=rng)
        scoring = DNA_DEFAULT
        want, wi, wj = sw_score_naive(a, b, scoring)

        sim = align_multi_gpu(
            a, b, scoring, [TESLA_M2090] * workers,
            config=ChainConfig(block_rows=block_rows, kernel=kernel,
                               mode="auto"))
        assert sim.score == want
        assert sim.mode == "auto" and not sim.escalated
        assert sim.tier == "banded"
        assert (sim.best.row, sim.best.col) == (wi, wj)

        real = align_multi_process(
            a, b, scoring, workers=min(workers, int(b.size)),
            block_rows=block_rows, kernel=kernel, mode="auto")
        assert real.score == want
        assert not real.escalated and real.tier == "banded"

        single = run_single_gpu(a, b, scoring, TESLA_M2090,
                                block_rows=block_rows, mode="auto")
        assert single.score == want
        assert not single.escalated

    @settings(max_examples=5, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        workers=st.integers(min_value=1, max_value=3),
        kernel=st.sampled_from(["scalar", "batched"]),
    )
    def test_divergent_pair_escalates_to_exact(self, seed, workers, kernel):
        """Unrelated sequences produce an insignificant heuristic score:
        auto must escalate, and the escalated answer must equal the exact
        engines bit-for-bit."""
        rng = np.random.default_rng(seed)
        a = random_dna(300, rng=rng)
        b = random_dna(300, rng=rng)
        scoring = DNA_DEFAULT
        want, *_ = sw_score_naive(a, b, scoring)

        sim = align_multi_gpu(
            a, b, scoring, [TESLA_M2090] * workers,
            config=ChainConfig(block_rows=64, kernel=kernel, mode="auto"))
        assert sim.escalated and sim.tier == "exact"
        assert sim.score == want

        real = align_multi_process(a, b, scoring, workers=workers,
                                   block_rows=64, kernel=kernel, mode="auto")
        assert real.escalated and real.tier == "exact"
        assert real.score == want

    def test_heuristic_hit_recorded_once(self, rng):
        """A similar-pair auto run answers from the heuristic tier:
        exactly one ``heuristic_hits``, zero ``escalations``, and one
        ``alignments_total`` (the sub-run must not double-finalize)."""
        from repro.obs import MetricsRegistry

        a = random_dna(400, rng=rng)
        b = mutate(a, HUMAN_CHIMP, rng=rng)
        for run in _front_doors(a, b, mode="auto"):
            registry = MetricsRegistry()
            res = run(registry)
            assert not res.escalated
            assert _counter_total(registry, "heuristic_hits") == 1
            assert _counter_total(registry, "escalations") == 0
            assert _counter_total(registry, "alignments_total") == 1

    def test_escalation_recorded_once(self, rng):
        """A divergent-pair auto run records exactly one escalation and
        still finalizes run-level metrics once."""
        from repro.obs import MetricsRegistry

        a = random_dna(400, rng=rng)
        b = random_dna(400, rng=rng)
        for run in _front_doors(a, b, mode="auto"):
            registry = MetricsRegistry()
            res = run(registry)
            assert res.escalated
            assert _counter_total(registry, "escalations") == 1
            assert _counter_total(registry, "heuristic_hits") == 0
            assert _counter_total(registry, "alignments_total") == 1

    def test_xdrop_mode_through_every_front_door(self, rng):
        """``mode="xdrop"`` is the inline extension on every engine: the
        score is :func:`xdrop_score`'s, the tier says so, and the run is
        finalized exactly once."""
        from repro.obs import MetricsRegistry

        a = random_dna(300, rng=rng)
        b = mutate(a, HUMAN_CHIMP, rng=rng)
        want = xdrop_score(a, b, DNA_DEFAULT, 25).score
        for run in _front_doors(a, b, mode="xdrop", xdrop_x=25):
            registry = MetricsRegistry()
            res = run(registry)
            assert res.score == want
            assert res.mode == res.tier == "xdrop" and not res.escalated
            assert _counter_total(registry, "alignments_total") == 1

    def test_dtype_escalation_journaled_alike(self):
        """One ``dtype_escalation`` rule on every engine: an escalating
        auto run with a narrow DP dtype journals one event per swept tier
        whose narrow kernel escalated — the same count on the simulated
        chain, the one-shot process engine and a persistent pool."""
        from repro.obs import EventJournal

        hot = Scoring(match=2000, mismatch=-3, gap_open=3, gap_extend=2)
        rng = np.random.default_rng(3)
        a = random_dna(600, rng=rng)
        b = mutate(a, HUMAN_CHIMP, rng=rng)
        counts = []
        journal = EventJournal()
        sim = align_multi_gpu(
            a, b, hot, [TESLA_M2090] * 2,
            config=ChainConfig(block_rows=64, dp_dtype="int16", mode="auto"),
            events=journal)
        counts.append(journal.count("dtype_escalation"))
        journal = EventJournal()
        real = align_multi_process(a, b, hot, workers=2, block_rows=64,
                                   dp_dtype="int16", mode="auto",
                                   events=journal)
        counts.append(journal.count("dtype_escalation"))
        journal = EventJournal()
        with WorkerPool(2, max_block_rows=64, events=journal) as pool:
            pooled = pool.align(a, b, hot, block_rows=64, dp_dtype="int16",
                                mode="auto")
        counts.append(journal.count("dtype_escalation"))
        for res in (sim, real, pooled):
            assert res.escalated and res.dtype_escalations > 0
        assert sim.score == real.score == pooled.score
        assert counts[0] >= 1 and counts == [counts[0]] * 3, counts

    def test_banded_mode_skips_blocks(self, rng):
        """``mode="banded"`` must actually skip off-band blocks on every
        engine — the single device included — counted on the result AND
        in the metrics registry, while still matching exact on a similar
        pair."""
        from repro.obs import MetricsRegistry

        a = random_dna(900, rng=rng)
        b = mutate(a, HUMAN_CHIMP, rng=rng)
        want, *_ = sw_score_naive(a, b, DNA_DEFAULT)

        registry = MetricsRegistry()
        sim = align_multi_gpu(
            a, b, DNA_DEFAULT, [TESLA_M2090] * 3,
            config=ChainConfig(block_rows=96, mode="banded", band_width=64),
            metrics=registry)
        assert sim.score == want
        assert sim.blocks_skipped_band > 0
        assert _counter_total(registry, "blocks_skipped_band") == \
            sim.blocks_skipped_band

        registry = MetricsRegistry()
        real = align_multi_process(a, b, DNA_DEFAULT, workers=2,
                                   block_rows=96, mode="banded",
                                   band_width=64, metrics=registry)
        assert real.score == want
        assert real.blocks_skipped_band > 0
        assert _counter_total(registry, "blocks_skipped_band") == \
            real.blocks_skipped_band

        registry = MetricsRegistry()
        single = run_single_gpu(a, b, DNA_DEFAULT, TESLA_M2090,
                                block_rows=96, mode="banded", band_width=64,
                                metrics=registry)
        assert single.score == want
        assert single.blocks_skipped_band > 0
        assert _counter_total(registry, "blocks_skipped_band") == \
            single.blocks_skipped_band

    def test_banded_compounds_with_pruning(self, rng):
        """Band skipping and distributed pruning are disjoint counters
        that compose.  The band handles off-diagonal blocks; to make
        pruning fire *in-band* the pair shares a strong prefix and then
        diverges — once the prefix seals a high best score, the divergent
        tail's diagonal blocks cannot beat it and are pruned."""
        prefix = random_dna(1200, rng=rng)
        a = np.concatenate([prefix, random_dna(1200, rng=rng)])
        b = np.concatenate([prefix, random_dna(1200, rng=rng)])
        exact = align_multi_gpu(a, b, DNA_DEFAULT, [TESLA_M2090] * 3,
                                config=ChainConfig(block_rows=96))
        want = exact.score
        res = align_multi_gpu(
            a, b, DNA_DEFAULT, [TESLA_M2090] * 3,
            config=ChainConfig(block_rows=96, mode="banded", band_width=64,
                               pruning=True))
        assert res.score == want
        assert res.blocks_skipped_band > 0
        assert res.blocks_pruned > 0
        # Disjoint: a skipped block is never also counted as pruned.
        per_gpu_total = sum(g.blocks_checked for g in res.gpus)
        assert res.blocks_pruned <= per_gpu_total


class TestDpDtypeDifferential:
    """Narrow DP dtypes are bit-identical to int32 across every engine.

    The same drawn workload runs through the simulated chain, the
    real-process chain, and the persistent worker pool under both block
    kernels, once wide and once narrow; scores AND end cells must match
    exactly.  A second suite repeats the exercise with a hot scoring
    scheme that forces mid-sweep escalations, so the recompute path is
    held to the same standard — and the escalations are visible in the
    engine counters.
    """

    @settings(max_examples=4, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        m=st.integers(min_value=80, max_value=180),
        workers=st.integers(min_value=1, max_value=3),
        block_rows=st.integers(min_value=8, max_value=48),
        kernel=st.sampled_from(["scalar", "batched"]),
        dtype=st.sampled_from(["int16", "auto"]),
    )
    def test_narrow_matches_wide_across_engines(self, seed, m, workers,
                                                block_rows, kernel, dtype):
        rng = np.random.default_rng(seed)
        a = random_dna(m, rng=rng)
        b = mutate(a, HUMAN_CHIMP, rng=rng)
        scoring = DNA_DEFAULT

        ref = align_multi_gpu(
            a, b, scoring, [TESLA_M2090] * workers,
            config=ChainConfig(block_rows=block_rows, kernel=kernel,
                               dp_dtype="int32"))
        assert ref.dp_dtype == "int32"

        sim = align_multi_gpu(
            a, b, scoring, [TESLA_M2090] * workers,
            config=ChainConfig(block_rows=block_rows, kernel=kernel,
                               dp_dtype=dtype))
        assert sim.score == ref.score
        assert (sim.best.row, sim.best.col) == (ref.best.row, ref.best.col)
        assert sim.dp_dtype != "int32"  # small matrices always fit narrow
        assert sim.blocks_narrow > 0 and sim.dtype_escalations == 0

        real = align_multi_process(a, b, scoring, workers=workers,
                                   block_rows=block_rows, kernel=kernel,
                                   dp_dtype=dtype)
        assert real.score == ref.score
        assert (real.best.row, real.best.col) == (ref.best.row, ref.best.col)
        assert real.dp_dtype == sim.dp_dtype

        with WorkerPool(workers, max_block_rows=max(block_rows, 8)) as pool:
            pooled = pool.align(a, b, scoring, block_rows=block_rows,
                                kernel=kernel, dp_dtype=dtype)
        assert pooled.score == ref.score
        assert (pooled.best.row, pooled.best.col) == \
            (ref.best.row, ref.best.col)

    @settings(max_examples=3, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        workers=st.integers(min_value=1, max_value=2),
        kernel=st.sampled_from(["scalar", "batched"]),
    )
    def test_forced_escalation_stays_exact(self, seed, workers, kernel):
        # per-cell gain 1500 overwhelms the int16 overflow cap on any
        # decent diagonal run, so narrow attempts must escalate mid-run
        hot = Scoring(match=1500, mismatch=-3, gap_open=3, gap_extend=2)
        rng = np.random.default_rng(seed)
        a = random_dna(160, rng=rng)
        b = mutate(a, HUMAN_CHIMP, rng=rng)

        ref = align_multi_gpu(
            a, b, hot, [TESLA_M2090] * workers,
            config=ChainConfig(block_rows=32, kernel=kernel,
                               dp_dtype="int32"))
        sim = align_multi_gpu(
            a, b, hot, [TESLA_M2090] * workers,
            config=ChainConfig(block_rows=32, kernel=kernel,
                               dp_dtype="int16"))
        assert sim.score == ref.score
        assert (sim.best.row, sim.best.col) == (ref.best.row, ref.best.col)
        assert sim.dtype_escalations > 0
        # every computed block is accounted narrow or wide, never both
        assert sim.blocks_narrow + sim.blocks_wide == \
            sum(g.blocks_narrow + g.blocks_wide for g in sim.gpus) > 0

        real = align_multi_process(a, b, hot, workers=workers,
                                   block_rows=32, kernel=kernel,
                                   dp_dtype="int16")
        assert real.score == ref.score
        assert real.dtype_escalations > 0

    def test_auto_stays_wide_when_scores_could_overflow(self, rng):
        # megabase-scale dims: match * min(m, n) tops the int16 cap, so
        # auto must refuse to go narrow (the never-slower guarantee)
        a = random_dna(300, rng=rng)
        b = mutate(a, HUMAN_CHIMP, rng=rng)
        res = align_multi_gpu(a, b, DNA_DEFAULT, [TESLA_M2090],
                              config=ChainConfig(block_rows=64))
        assert res.dp_dtype in ("int8", "int16")  # this one fits fine
        big = ChainConfig(block_rows=64, dp_dtype="auto")
        from repro.sw.constants import resolve_dp_dtype
        assert resolve_dp_dtype(big.dp_dtype, DNA_DEFAULT, block_cols=2048,
                                m=10**7, n=10**7).name == "int32"


class TestCompiledDifferential:
    """The compiled backend agrees bit-exactly with the scalar kernel on
    every engine, in every mode, under every DP dtype — including the
    pruned and forced-escalation paths.

    On machines without numba these tests exercise the fallback, where
    ``compiled`` is the scalar sweep itself; the CI numba leg runs the
    same suite through the real JIT.  Either way the contract is identical:
    ``kernel="compiled"`` may only change *when* a cell is computed,
    never *what* it evaluates to.
    """

    @settings(max_examples=4, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        m=st.integers(min_value=80, max_value=180),
        workers=st.integers(min_value=1, max_value=3),
        block_rows=st.integers(min_value=8, max_value=48),
        dtype=st.sampled_from(["int32", "int16", "auto"]),
        prune=st.booleans(),
    )
    def test_compiled_matches_scalar_across_engines(self, seed, m, workers,
                                                    block_rows, dtype, prune):
        rng = np.random.default_rng(seed)
        a = random_dna(m, rng=rng)
        b = mutate(a, HUMAN_CHIMP, rng=rng)
        scoring = DNA_DEFAULT

        ref = align_multi_gpu(
            a, b, scoring, [TESLA_M2090] * workers,
            config=ChainConfig(block_rows=block_rows, kernel="scalar",
                               pruning=prune, dp_dtype=dtype))

        sim = align_multi_gpu(
            a, b, scoring, [TESLA_M2090] * workers,
            config=ChainConfig(block_rows=block_rows, kernel="compiled",
                               pruning=prune, dp_dtype=dtype))
        assert sim.score == ref.score
        assert (sim.best.row, sim.best.col) == (ref.best.row, ref.best.col)
        assert sim.dp_dtype == ref.dp_dtype
        assert sim.blocks_narrow == ref.blocks_narrow
        assert sim.dtype_escalations == ref.dtype_escalations

        real = align_multi_process(a, b, scoring, workers=workers,
                                   block_rows=block_rows, kernel="compiled",
                                   pruning=prune, dp_dtype=dtype)
        assert real.score == ref.score
        assert (real.best.row, real.best.col) == (ref.best.row, ref.best.col)
        assert real.dp_dtype == ref.dp_dtype

        single = run_single_gpu(a, b, scoring, TESLA_M2090,
                                block_rows=block_rows, kernel="compiled",
                                dp_dtype=dtype)
        assert single.score == ref.score
        assert (single.best.row, single.best.col) == \
            (ref.best.row, ref.best.col)
        assert single.kernel == "compiled"

        with WorkerPool(workers, max_block_rows=max(block_rows, 8)) as pool:
            pooled = pool.align(a, b, scoring, block_rows=block_rows,
                                kernel="compiled", pruning=prune,
                                dp_dtype=dtype)
        assert pooled.score == ref.score
        assert (pooled.best.row, pooled.best.col) == \
            (ref.best.row, ref.best.col)

    @settings(max_examples=3, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        workers=st.integers(min_value=1, max_value=2),
        mode=st.sampled_from(["banded", "auto"]),
    )
    def test_compiled_heuristic_modes_match_scalar(self, seed, workers, mode):
        rng = np.random.default_rng(seed)
        a = random_dna(160, rng=rng)
        b = mutate(a, HUMAN_CHIMP, rng=rng)
        scoring = DNA_DEFAULT

        ref = align_multi_gpu(
            a, b, scoring, [TESLA_M2090] * workers,
            config=ChainConfig(block_rows=32, kernel="scalar", mode=mode))
        sim = align_multi_gpu(
            a, b, scoring, [TESLA_M2090] * workers,
            config=ChainConfig(block_rows=32, kernel="compiled", mode=mode))
        assert sim.score == ref.score
        assert sim.tier == ref.tier and sim.escalated == ref.escalated

        real = align_multi_process(a, b, scoring, workers=workers,
                                   block_rows=32, kernel="compiled",
                                   mode=mode)
        assert real.score == ref.score
        assert real.tier == ref.tier

    @settings(max_examples=3, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        workers=st.integers(min_value=1, max_value=2),
    )
    def test_compiled_forced_escalation_stays_exact(self, seed, workers):
        # per-cell gain 1500 overwhelms the int16 cap mid-run: the
        # compiled kernel must take the same escalations as scalar and
        # land on the same bits.
        hot = Scoring(match=1500, mismatch=-3, gap_open=3, gap_extend=2)
        rng = np.random.default_rng(seed)
        a = random_dna(160, rng=rng)
        b = mutate(a, HUMAN_CHIMP, rng=rng)

        ref = align_multi_gpu(
            a, b, hot, [TESLA_M2090] * workers,
            config=ChainConfig(block_rows=32, kernel="scalar",
                               dp_dtype="int16"))
        sim = align_multi_gpu(
            a, b, hot, [TESLA_M2090] * workers,
            config=ChainConfig(block_rows=32, kernel="compiled",
                               dp_dtype="int16"))
        assert sim.score == ref.score
        assert (sim.best.row, sim.best.col) == (ref.best.row, ref.best.col)
        assert sim.dtype_escalations == ref.dtype_escalations > 0
        assert sim.blocks_narrow == ref.blocks_narrow
        assert sim.blocks_wide == ref.blocks_wide

        real = align_multi_process(a, b, hot, workers=workers,
                                   block_rows=32, kernel="compiled",
                                   dp_dtype="int16")
        assert real.score == ref.score
        assert real.dtype_escalations > 0
