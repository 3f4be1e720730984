"""Batched wavefront kernel: bit-identity, amortisers, engine selectors.

The cross-kernel contract is that :func:`repro.sw.batched.sweep_wavefront`
over any job list equals per-job :func:`repro.sw.kernel.sweep_block` calls
bit-for-bit — all four borders, the corner, and the best cell including its
row-major tie-break.  This file pins that contract on hand-built wavefronts
(uniform, ragged, local and global, with row sinks), exercises the
:class:`~repro.sw.batched.KernelWorkspace` and
:class:`~repro.sw.kernel.ProfileCache` amortisers, and checks the
``kernel="batched"`` selector end-to-end in every engine and the CLI.
The randomized hypothesis sweep lives in ``test_stress_cross_engine.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from helpers import mutated_copy, random_codes, random_scoring
from repro.errors import ConfigError
from repro.multigpu import ChainConfig, align_multi_gpu, align_multi_process
from repro.multigpu.pool import WorkerPool
from repro.seq import DNA_DEFAULT
from repro.sw import (
    KERNELS,
    BlockJob,
    KernelWorkspace,
    ProfileCache,
    cached_profile,
    compute_blocked,
    sweep_block,
    sweep_wavefront,
)
from repro.sw.backend import validate_kernel
from repro.sw.constants import DTYPE
from repro.sw.kernel import build_profile


def random_job(rng, rows, cols, scoring):
    """One block with fully random (but plausible) boundary state."""
    b = random_codes(rng, cols, with_n=True)
    return BlockJob(
        a_codes=random_codes(rng, rows, with_n=True),
        profile=build_profile(b, scoring),
        h_top=rng.integers(-60, 80, cols).astype(DTYPE),
        f_top=rng.integers(-120, 40, cols).astype(DTYPE),
        h_left=rng.integers(-60, 80, rows).astype(DTYPE),
        e_left=rng.integers(-120, 40, rows).astype(DTYPE),
        h_diag=int(rng.integers(-60, 80)),
    )


def scalar_reference(job, scoring, **kw):
    return sweep_block(job.a_codes, job.profile, job.h_top, job.f_top,
                       job.h_left, job.e_left, job.h_diag, scoring, **kw)


def assert_results_equal(got, want):
    np.testing.assert_array_equal(got.h_bottom, want.h_bottom)
    np.testing.assert_array_equal(got.f_bottom, want.f_bottom)
    np.testing.assert_array_equal(got.h_right, want.h_right)
    np.testing.assert_array_equal(got.e_right, want.e_right)
    assert got.corner == want.corner
    assert got.best == want.best


class TestSweepWavefront:
    @pytest.mark.parametrize("local", [True, False])
    def test_uniform_blocks_match_scalar(self, rng, local):
        scoring = random_scoring(rng)
        jobs = [random_job(rng, 17, 23, scoring) for _ in range(5)]
        results = sweep_wavefront(jobs, scoring, local=local)
        for job, got in zip(jobs, results):
            assert_results_equal(got, scalar_reference(job, scoring, local=local))

    @pytest.mark.parametrize("local", [True, False])
    def test_ragged_blocks_match_scalar(self, rng, local):
        scoring = random_scoring(rng)
        shapes = [(19, 31), (19, 7), (4, 31), (1, 1), (11, 13)]
        jobs = [random_job(rng, r, c, scoring) for r, c in shapes]
        results = sweep_wavefront(jobs, scoring, local=local)
        for job, got in zip(jobs, results):
            assert_results_equal(got, scalar_reference(job, scoring, local=local))

    def test_single_job_matches_scalar(self, rng):
        scoring = random_scoring(rng)
        job = random_job(rng, 30, 12, scoring)
        [got] = sweep_wavefront([job], scoring)
        assert_results_equal(got, scalar_reference(job, scoring))

    def test_track_best_off(self, rng):
        job = random_job(rng, 9, 9, DNA_DEFAULT)
        [got] = sweep_wavefront([job], DNA_DEFAULT, track_best=False)
        want = scalar_reference(job, DNA_DEFAULT, track_best=False)
        assert_results_equal(got, want)
        assert got.best.row == -1

    def test_tie_break_is_row_major(self, rng):
        # Identical blocks -> identical per-block best; and within a block
        # the first (row, col) hit of the max must win, like the scalar.
        scoring = DNA_DEFAULT
        a = random_codes(rng, 25)
        b = np.concatenate([a, a])  # duplicated columns force score ties
        job = BlockJob(a, build_profile(b, scoring),
                       np.zeros(b.size, dtype=DTYPE),
                       np.full(b.size, -(1 << 30), dtype=DTYPE),
                       np.zeros(a.size, dtype=DTYPE),
                       np.full(a.size, -(1 << 30), dtype=DTYPE), 0)
        [got] = sweep_wavefront([job, job], scoring)[:1]
        assert got.best == scalar_reference(job, scoring).best

    def test_row_sink_matches_scalar_per_job(self, rng):
        scoring = random_scoring(rng)
        jobs = [random_job(rng, r, c, scoring)
                for r, c in [(16, 20), (9, 20), (16, 5)]]
        batch_rows: dict[tuple[int, int], tuple] = {}

        def batch_sink(k, i, H, E, F):
            batch_rows[(k, i)] = (H.copy(), E.copy(), F.copy())

        sweep_wavefront(jobs, scoring, row_sink=batch_sink, sink_interval=4)
        for k, job in enumerate(jobs):
            scalar_rows: dict[int, tuple] = {}

            def scalar_sink(i, H, E, F):
                scalar_rows[i] = (H.copy(), E.copy(), F.copy())

            scalar_reference(job, scoring, row_sink=scalar_sink, sink_interval=4)
            assert {i for (kk, i) in batch_rows if kk == k} == set(scalar_rows)
            for i, want in scalar_rows.items():
                for got_arr, want_arr in zip(batch_rows[(k, i)], want):
                    np.testing.assert_array_equal(got_arr, want_arr)

    def test_empty_job_list(self):
        assert sweep_wavefront([], DNA_DEFAULT) == []

    def test_validation(self, rng):
        job = random_job(rng, 6, 6, DNA_DEFAULT)
        with pytest.raises(ConfigError):
            sweep_wavefront([job], DNA_DEFAULT, row_sink=lambda *a: None)
        bad = BlockJob(job.a_codes, job.profile, job.h_top[:-1], job.f_top,
                       job.h_left, job.e_left, 0)
        with pytest.raises(ConfigError):
            sweep_wavefront([bad], DNA_DEFAULT)
        empty = BlockJob(job.a_codes[:0], job.profile, job.h_top, job.f_top,
                         np.empty(0, dtype=DTYPE), np.empty(0, dtype=DTYPE), 0)
        with pytest.raises(ConfigError):
            sweep_wavefront([empty], DNA_DEFAULT)


class TestKernelWorkspace:
    def test_reuse_and_growth(self):
        ws = KernelWorkspace()
        first = ws.take("t", (4, 8))
        assert first.shape == (4, 8) and ws.misses == 1
        again = ws.take("t", (2, 8))  # smaller: prefix view, no allocation
        assert again.shape == (2, 8) and ws.hits == 1
        bigger = ws.take("t", (8, 8))  # grows the high-water mark
        assert bigger.shape == (8, 8) and ws.misses == 2
        assert len(ws) == 1  # still one buffer for the tag

    def test_dtype_keys_are_distinct(self):
        ws = KernelWorkspace()
        a = ws.take("t", (4,), dtype=np.int32)
        b = ws.take("t", (4,), dtype=bool)
        assert a.dtype != b.dtype and len(ws) == 2

    def test_ramp_prefix(self):
        ws = KernelWorkspace()
        wide = ws.ramp(10, 3).copy()
        narrow = ws.ramp(4, 3)
        np.testing.assert_array_equal(narrow, wide[:4])
        np.testing.assert_array_equal(narrow, np.arange(4) * 3)
        assert ws.hits == 1

    def test_sweep_reuses_workspace(self, rng):
        scoring = DNA_DEFAULT
        ws = KernelWorkspace()
        jobs = [random_job(rng, 12, 12, scoring) for _ in range(3)]
        sweep_wavefront(jobs, scoring, workspace=ws)
        misses = ws.misses
        results = sweep_wavefront(jobs, scoring, workspace=ws)
        assert ws.misses == misses  # second sweep allocated nothing new
        for job, got in zip(jobs, results):
            assert_results_equal(got, scalar_reference(job, scoring))
        assert ws.nbytes > 0
        ws.clear()
        assert len(ws) == 0


class TestProfileCache:
    def test_hit_on_equal_content(self, rng):
        cache = ProfileCache(capacity=2)
        b = random_codes(rng, 50)
        p1 = cache.get(b, DNA_DEFAULT)
        p2 = cache.get(b.copy(), DNA_DEFAULT)  # fresh array, same value
        assert p1 is p2
        assert (cache.hits, cache.misses) == (1, 1)
        np.testing.assert_array_equal(p1, build_profile(b, DNA_DEFAULT))

    def test_scoring_is_part_of_the_key(self, rng):
        cache = ProfileCache()
        b = random_codes(rng, 30)
        p1 = cache.get(b, DNA_DEFAULT)
        p2 = cache.get(b, random_scoring(np.random.default_rng(99)))
        assert p1 is not p2 and cache.misses == 2

    def test_a_protein_matrix_is_the_key(self, rng):
        """A substitution-matrix scheme has no mismatch: the cache keys
        on the matrix itself."""
        from repro.seq import BLOSUM62_SCORING, CustomScoring

        tweaked = BLOSUM62_SCORING.matrix.copy()
        tweaked[0, 1] = tweaked[1, 0] = 3
        cache = ProfileCache()
        b = rng.integers(0, 20, 30).astype(np.uint8)
        p1 = cache.get(b, BLOSUM62_SCORING)
        assert cache.get(b, CustomScoring(BLOSUM62_SCORING.matrix.copy())) is p1
        p2 = cache.get(b, CustomScoring(tweaked))
        assert p2 is not p1 and (cache.hits, cache.misses) == (1, 2)
        np.testing.assert_array_equal(p2, build_profile(b, CustomScoring(tweaked)))

    def test_lru_eviction(self, rng):
        cache = ProfileCache(capacity=2)
        seqs = [random_codes(rng, 20) for _ in range(3)]
        for s in seqs:
            cache.get(s, DNA_DEFAULT)
        assert cache.evictions == 1 and len(cache) == 2
        cache.get(seqs[0], DNA_DEFAULT)  # evicted -> rebuild
        assert cache.misses == 4
        cache.get(seqs[2], DNA_DEFAULT)  # still resident
        assert cache.hits == 1

    def test_capacity_validation(self):
        with pytest.raises(ConfigError):
            ProfileCache(capacity=0)

    def test_cached_profile_default_cache(self, rng):
        b = random_codes(rng, 40)
        assert cached_profile(b, DNA_DEFAULT) is cached_profile(b, DNA_DEFAULT)


class TestKernelSelector:
    def test_validate_kernel(self):
        for k in KERNELS:
            assert validate_kernel(k) == k
        with pytest.raises(ConfigError):
            validate_kernel("simd")
        with pytest.raises(ConfigError):
            ChainConfig(kernel="simd")
        with pytest.raises(ConfigError):
            compute_blocked(np.zeros(4, np.uint8), np.zeros(4, np.uint8),
                            DNA_DEFAULT, kernel="simd")

    def test_compute_blocked_batched_equals_scalar(self, rng):
        scoring = random_scoring(rng)
        a = random_codes(rng, 150, with_n=True)
        b = random_codes(rng, 190, with_n=True)
        ref = compute_blocked(a, b, scoring, block_rows=32, block_cols=48)
        ws = KernelWorkspace()
        got = compute_blocked(a, b, scoring, block_rows=32, block_cols=48,
                              kernel="batched", workspace=ws)
        assert got.best == ref.best
        misses = ws.misses
        again = compute_blocked(a, b, scoring, block_rows=32, block_cols=48,
                                kernel="batched", workspace=ws)
        assert again.best == ref.best
        assert ws.misses == misses  # workspace amortised the second run

    def test_compute_blocked_batched_with_pruning(self, rng):
        a = random_codes(rng, 300)
        b = mutated_copy(rng, a, snp_rate=0.03)
        ref = compute_blocked(a, b, DNA_DEFAULT, block_rows=32, block_cols=32,
                              pruning=True)
        got = compute_blocked(a, b, DNA_DEFAULT, block_rows=32, block_cols=32,
                              pruning=True, kernel="batched")
        assert got.best == ref.best
        assert got.tally.blocks_pruned > 0  # the batched schedule still prunes

    def test_chain_batched(self, rng):
        from repro.device import ENV1_HETEROGENEOUS

        a, b = random_codes(rng, 300), random_codes(rng, 400)
        runs = [align_multi_gpu(a, b, DNA_DEFAULT, ENV1_HETEROGENEOUS,
                                config=ChainConfig(block_rows=64, kernel=k))
                for k in KERNELS]
        assert runs[0].best == runs[1].best
        assert runs[1].config.kernel == "batched"

    def test_procchain_batched(self, rng):
        a, b = random_codes(rng, 200), random_codes(rng, 260)
        runs = [align_multi_process(a, b, DNA_DEFAULT, workers=2,
                                    block_rows=64, kernel=k)
                for k in KERNELS]
        assert runs[0].best == runs[1].best
        assert runs[1].kernel == "batched"

    def test_pool_batched(self, rng):
        a, b = random_codes(rng, 200), random_codes(rng, 260)
        with WorkerPool(2, max_block_rows=64) as pool:
            runs = [pool.align(a, b, DNA_DEFAULT, block_rows=64, kernel=k)
                    for k in KERNELS]
        assert runs[0].best == runs[1].best
        assert runs[1].kernel == "batched"

    def test_pool_rejects_bad_kernel(self, rng):
        a, b = random_codes(rng, 40), random_codes(rng, 40)
        with WorkerPool(1, max_block_rows=64) as pool:
            with pytest.raises(ConfigError):
                pool.align(a, b, DNA_DEFAULT, block_rows=32, kernel="simd")


class TestCli:
    def _fasta_pair(self, tmp_path, rng):
        from repro import seq

        pa, pb = tmp_path / "a.fa", tmp_path / "b.fa"
        a = random_codes(rng, 300)
        seq.write_fasta(pa, seq.FastaRecord("a", "", a))
        seq.write_fasta(pb, seq.FastaRecord("b", "", mutated_copy(rng, a, 0.05)))
        return str(pa), str(pb)

    @pytest.mark.parametrize("backend_args", [
        [], ["--backend", "process", "--workers", "2"],
    ])
    def test_align_kernel_flag(self, tmp_path, rng, capsys, backend_args):
        from repro.cli import main

        pa, pb = self._fasta_pair(tmp_path, rng)
        rc = main(["align", pa, pb, "--block-rows", "64",
                   "--kernel", "batched", *backend_args])
        assert rc == 0
        assert "kernel=batched" in capsys.readouterr().out

    def test_align_rejects_bad_kernel(self, tmp_path, rng, capsys):
        from repro.cli import main

        pa, pb = self._fasta_pair(tmp_path, rng)
        for flag, bad in (("--kernel", "simd"), ("--dp-dtype", "int8")):
            with pytest.raises(SystemExit) as exc:
                main(["align", pa, pb, flag, bad])
            assert exc.value.code == 2
            assert f"invalid choice: '{bad}'" in capsys.readouterr().err
