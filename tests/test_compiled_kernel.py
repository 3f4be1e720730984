"""Compiled backend unit tests: scan helpers, registry, fallback, warmup.

Four layers, bottom up:

* the shared E-scan helpers are *property-tested* against a
  hand-written sequential reference of Gotoh's horizontal recurrence
  (hypothesis draws the values and dtype);
* the kernel backend registry: capability probing, the strict
  (``require_kernel``) vs degrading (``resolve_kernel("auto")``)
  resolution split, and the numba-absent import shim;
* ``sweep_block_compiled`` differentially against ``sweep_block`` for
  every dtype policy, mode, and the forced-escalation path — these run
  identically with or without numba (without it ``compiled`` is the
  scalar sweep, and these pin that fallback);
* the warmup hook: idempotence, the ``MGSW_WARMUP_DELAY`` test injector,
  and the end-to-end telemetry guarantee that compile time lands in
  ``warmup`` tracer spans and never in compute spans (the pool engine,
  lazily and at spawn).
"""

from __future__ import annotations

import importlib
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.seq import DNA_DEFAULT, Scoring
from repro.sw import backend, compiled
from repro.sw.blocks import compute_blocked
from repro.sw.config import AlignConfig
from repro.sw.constants import DTYPE, get_policy
from repro.sw.kernel import build_profile, local_boundaries, sweep_block
from repro.sw.naive import sw_score_naive
from repro.sw.pruning import BlockPruner
from repro.sw.scan import escan_row, escan_segmented
from repro.workloads import random_dna

from helpers import mutated_copy, random_codes

INT_DTYPES = (np.int16, np.int32, np.int64)


# ---------------------------------------------------------------------------
# E-scan helpers vs the sequential reference recurrence
# ---------------------------------------------------------------------------

def _escan_reference(temp, h_left_i, e_left_i, open_, ext):
    """Gotoh's horizontal recurrence, evaluated cell by cell in Python
    ints: ``E[j] = max(E[j-1], H_final[j-1] - open) - ext`` seeded by the
    left border.  The ground truth for both helper layouts."""
    out = []
    prev_e, prev_h = int(e_left_i), int(h_left_i)
    for j in range(temp.size):
        cur = max(prev_e, prev_h - int(open_)) - int(ext)
        out.append(cur)
        prev_e, prev_h = cur, int(temp[j])
    return np.array(out)


class TestEscanHelpers:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           w=st.integers(min_value=1, max_value=64),
           open_=st.integers(min_value=0, max_value=5),
           ext=st.integers(min_value=1, max_value=3),
           dtype=st.sampled_from(INT_DTYPES))
    def test_escan_row_matches_reference(self, seed, w, open_, ext, dtype):
        rng = np.random.default_rng(seed)
        temp = rng.integers(-60, 60, w).astype(dtype)
        h_left_i = dtype(rng.integers(-60, 60))
        e_left_i = dtype(rng.integers(-60, 60))
        j_ext = (np.arange(w, dtype=dtype) * dtype(ext)).astype(dtype)
        scan = np.empty(w, dtype=dtype)
        e_row = np.empty(w, dtype=dtype)
        escan_row(temp, h_left_i, e_left_i, dtype(open_), dtype(ext),
                  j_ext, scan, e_row)
        want = _escan_reference(temp, h_left_i, e_left_i, open_, ext)
        np.testing.assert_array_equal(e_row.astype(np.int64), want)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           b=st.integers(min_value=1, max_value=5),
           w=st.integers(min_value=1, max_value=48),
           open_=st.integers(min_value=0, max_value=5),
           ext=st.integers(min_value=1, max_value=3))
    def test_escan_segmented_matches_rowwise(self, seed, b, w, open_, ext):
        dtype = DTYPE
        rng = np.random.default_rng(seed)
        temp = rng.integers(-60, 60, (b, w)).astype(dtype)
        h_left_col = rng.integers(-60, 60, b).astype(dtype)
        e_left_col = rng.integers(-60, 60, b).astype(dtype)
        j_ext = (np.arange(w, dtype=dtype) * dtype(ext)).astype(dtype)
        scan = np.empty((b, w), dtype=dtype)
        e_row = np.empty((b, w), dtype=dtype)
        e0 = np.empty(b, dtype=dtype)
        escan_segmented(temp, h_left_col, e_left_col, dtype(open_),
                        dtype(ext), j_ext, scan, e_row, e0)
        for lane in range(b):
            want = _escan_reference(temp[lane], h_left_col[lane],
                                    e_left_col[lane], open_, ext)
            np.testing.assert_array_equal(e_row[lane].astype(np.int64), want)


# ---------------------------------------------------------------------------
# backend registry / capability probing
# ---------------------------------------------------------------------------

class TestBackendRegistry:
    def test_kernel_universe(self):
        assert backend.KERNELS == ("scalar", "batched", "compiled")
        assert backend.KERNEL_CHOICES == ("auto",) + backend.KERNELS
        for k in backend.CORE_KERNELS:
            assert k in backend.available_kernels()

    def test_validate_rejects_unknown(self):
        with pytest.raises(ConfigError, match="unknown kernel"):
            backend.validate_kernel("vectorised")
        # membership only: compiled passes even where numba is absent
        assert backend.validate_kernel("compiled") == "compiled"

    def test_without_numba_require_errors_and_auto_degrades(self, monkeypatch):
        monkeypatch.setattr(backend, "NUMBA", None)
        compiled.reset_jit()
        try:
            assert backend.available_kernels() == ("scalar", "batched")
            assert not backend.numba_available()
            with pytest.raises(ConfigError, match="numba"):
                backend.require_kernel("compiled")
            assert backend.resolve_kernel("auto") == "scalar"
            assert AlignConfig(kernel="auto").concrete().kernel == "scalar"
            assert backend.resolve_kernel("scalar") == "scalar"
            assert backend.resolve_kernel("batched") == "batched"
        finally:
            compiled.reset_jit()

    def test_with_numba_auto_prefers_compiled(self, monkeypatch):
        monkeypatch.setattr(backend, "NUMBA", object())  # fake probe success
        compiled.reset_jit()
        try:
            assert backend.available_kernels() == backend.KERNELS
            assert backend.require_kernel("compiled") == "compiled"
            assert backend.resolve_kernel("auto") == "compiled"
        finally:
            compiled.reset_jit()

    def test_broken_numba_degrades_to_oracle_once(self, monkeypatch, rng):
        """A numba whose jit build fails must not take the library down:
        the failure is sticky, ``jit_available()`` answers False, and the
        sweep transparently runs the scalar sweep."""
        monkeypatch.setattr(backend, "NUMBA", object())
        compiled.reset_jit()
        try:
            assert not compiled.jit_available()
            a = random_codes(rng, 24)
            b = random_codes(rng, 30)
            profile = build_profile(b, DNA_DEFAULT)
            h_top, f_top, h_left, e_left, corner = local_boundaries(24, 30)
            got = compiled.sweep_block_compiled(
                a, profile, h_top, f_top, h_left, e_left, corner, DNA_DEFAULT)
            want = sweep_block(a, profile, h_top, f_top, h_left, e_left,
                               corner, DNA_DEFAULT)
            assert got.best == want.best
            np.testing.assert_array_equal(got.h_bottom, want.h_bottom)
        finally:
            compiled.reset_jit()

    def test_numba_absent_import_shim(self):
        """Reloading the registry under a poisoned ``sys.modules`` entry
        (raises on import, exactly like an uninstalled numba) must leave
        a working degraded registry — and a second clean reload restores
        whatever this machine actually has."""
        with pytest.MonkeyPatch.context() as mp:
            mp.setitem(sys.modules, "numba", None)  # import raises ImportError
            importlib.reload(backend)
            assert backend.NUMBA is None
            assert backend.available_kernels() == ("scalar", "batched")
            with pytest.raises(ConfigError, match="numba"):
                backend.require_kernel("compiled")
        importlib.reload(backend)
        compiled.reset_jit()

    def test_mgsw_no_numba_forces_fallback(self, monkeypatch):
        monkeypatch.setenv("MGSW_NO_NUMBA", "1")
        assert backend._probe_numba() is None


# ---------------------------------------------------------------------------
# compiled sweep vs scalar kernel (runs with or without numba)
# ---------------------------------------------------------------------------

def _assert_block_equal(got, want):
    np.testing.assert_array_equal(got.h_bottom, want.h_bottom)
    np.testing.assert_array_equal(got.f_bottom, want.f_bottom)
    np.testing.assert_array_equal(got.h_right, want.h_right)
    np.testing.assert_array_equal(got.e_right, want.e_right)
    assert got.corner == want.corner
    assert got.best == want.best
    assert got.dtype == want.dtype
    assert got.escalated == want.escalated


class TestCompiledSweepDifferential:
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           rows=st.integers(min_value=1, max_value=40),
           cols=st.integers(min_value=1, max_value=40),
           local=st.booleans(),
           dp_name=st.sampled_from(["int32", "int16", "int8"]))
    def test_local_boundaries_all_dtypes(self, seed, rows, cols, local,
                                         dp_name):
        rng = np.random.default_rng(seed)
        a = random_codes(rng, rows, with_n=True)
        b = random_codes(rng, cols, with_n=True)
        profile = build_profile(b, DNA_DEFAULT)
        h_top, f_top, h_left, e_left, corner = local_boundaries(rows, cols)
        pol = get_policy(dp_name)
        dp = pol if pol.narrow and cols <= pol.max_width(DNA_DEFAULT) else None
        got = compiled.sweep_block_compiled(
            a, profile, h_top, f_top, h_left, e_left, corner, DNA_DEFAULT,
            local=local, dp=dp)
        want = sweep_block(a, profile, h_top, f_top, h_left, e_left, corner,
                           DNA_DEFAULT, local=local, dp=dp)
        _assert_block_equal(got, want)

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           rows=st.integers(min_value=1, max_value=32),
           cols=st.integers(min_value=1, max_value=32),
           local=st.booleans())
    def test_random_interior_boundaries(self, seed, rows, cols, local):
        """Mid-matrix blocks: arbitrary (negative-going) border state."""
        rng = np.random.default_rng(seed)
        a = random_codes(rng, rows)
        b = random_codes(rng, cols)
        profile = build_profile(b, DNA_DEFAULT)
        h_top = rng.integers(-80, 90, cols).astype(DTYPE)
        f_top = rng.integers(-150, 60, cols).astype(DTYPE)
        h_left = rng.integers(-80, 90, rows).astype(DTYPE)
        e_left = rng.integers(-150, 60, rows).astype(DTYPE)
        corner = int(rng.integers(-80, 90))
        got = compiled.sweep_block_compiled(
            a, profile, h_top, f_top, h_left, e_left, corner, DNA_DEFAULT,
            local=local)
        want = sweep_block(a, profile, h_top, f_top, h_left, e_left, corner,
                           DNA_DEFAULT, local=local)
        _assert_block_equal(got, want)

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_forced_int16_escalation_parity(self, seed):
        """match=1500 overflows the int16 cap on any decent run: both
        kernels must escalate identically and agree bit-for-bit."""
        hot = Scoring(match=1500, mismatch=-3, gap_open=3, gap_extend=2)
        rng = np.random.default_rng(seed)
        a = random_codes(rng, 30)
        b = a.copy()  # perfect diagonal: 30*1500 tops any int16 cap
        profile = build_profile(b, hot)
        h_top, f_top, h_left, e_left, corner = local_boundaries(a.size, b.size)
        dp = get_policy("int16")
        assert b.size <= dp.max_width(hot)
        got = compiled.sweep_block_compiled(
            a, profile, h_top, f_top, h_left, e_left, corner, hot, dp=dp)
        want = sweep_block(a, profile, h_top, f_top, h_left, e_left, corner,
                           hot, dp=dp)
        _assert_block_equal(got, want)
        assert want.escalated  # the scheme really does overflow int16

    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           prune=st.booleans(),
           dp_dtype=st.sampled_from(["int32", "int16", "auto"]))
    def test_compute_blocked_matches_scalar(self, seed, prune, dp_dtype):
        rng = np.random.default_rng(seed)
        a = random_dna(120, rng=rng)
        b = mutated_copy(rng, a, 0.04)

        def run(kernel):
            pruner = BlockPruner(match=DNA_DEFAULT.match) if prune else None
            return compute_blocked(a, b, DNA_DEFAULT, block_rows=32,
                                   block_cols=48, pruner=pruner,
                                   kernel=kernel, dp_dtype=dp_dtype)

        scalar = run("scalar")
        comp = run("compiled")
        assert comp.best == scalar.best
        # Same rolling-border schedule → identical pruning decisions and
        # identical narrow/wide accounting, block for block.
        assert comp.blocks_pruned == scalar.blocks_pruned
        assert comp.cells_pruned == scalar.cells_pruned
        assert comp.blocks_narrow == scalar.blocks_narrow
        assert comp.blocks_wide == scalar.blocks_wide
        assert comp.dtype_escalations == scalar.dtype_escalations
        assert comp.dp_dtype == scalar.dp_dtype


# ---------------------------------------------------------------------------
# warmup hook + telemetry exclusion
# ---------------------------------------------------------------------------

class TestWarmup:
    def test_idempotent_and_returns_seconds(self):
        first = compiled.warmup()
        again = compiled.warmup()
        assert first >= 0.0 and again >= 0.0

    def test_delay_hook_injects_cost(self, monkeypatch):
        monkeypatch.setenv("MGSW_WARMUP_DELAY", "0.05")
        assert compiled.warmup() >= 0.05

    def test_warmup_spans_cover_delay_in_process_engine(self, monkeypatch,
                                                        rng):
        """``align_multi_process`` workers: the injected warmup cost must land
        in per-worker ``warmup`` tracer spans, and every compute span
        must stay well under it (compile time never pollutes blocks)."""
        from repro.device.trace import Tracer
        from repro.multigpu import align_multi_process

        delay = 0.15
        monkeypatch.setenv("MGSW_WARMUP_DELAY", str(delay))
        a = random_dna(200, rng=rng)
        b = mutated_copy(rng, a, 0.03)
        tracer = Tracer()
        res = align_multi_process(a, b, DNA_DEFAULT, workers=2,
                                  block_rows=64, kernel="compiled",
                                  tracer=tracer)
        want, *_ = sw_score_naive(a, b, DNA_DEFAULT)
        assert res.score == want
        for g in range(2):
            assert tracer.total(f"worker{g}", "warmup") >= delay * 0.9
        computes = [iv for iv in tracer.intervals if iv.kind == "compute"]
        assert computes and all(iv.duration < delay for iv in computes)

    def test_pool_lazy_warm_once_per_process(self, monkeypatch, rng):
        """Pool workers warm lazily on their first compiled task — spans
        appear in the first comparison's trace and never again."""
        from repro.device.trace import Tracer
        from repro.multigpu import WorkerPool

        delay = 0.15
        monkeypatch.setenv("MGSW_WARMUP_DELAY", str(delay))
        a = random_dna(200, rng=rng)
        b = mutated_copy(rng, a, 0.03)
        with WorkerPool(2, max_block_rows=64) as pool:
            t1 = Tracer()
            first = pool.align(a, b, DNA_DEFAULT, block_rows=64,
                               kernel="compiled", tracer=t1)
            t2 = Tracer()
            second = pool.align(a, b, DNA_DEFAULT, block_rows=64,
                                kernel="compiled", tracer=t2)
        assert first.score == second.score
        for g in range(2):
            assert t1.total(f"worker{g}", "warmup") >= delay * 0.9
            assert t2.total(f"worker{g}", "warmup") == 0.0
        assert all(iv.duration < delay for iv in t1.intervals
                   if iv.kind == "compute")

    def test_pool_spawn_warm_hook(self, monkeypatch, rng):
        """``warm_kernels=("compiled",)`` compiles at spawn, before the
        first slab: no warmup span in any comparison's trace, and no
        compute span carries the injected cost either."""
        from repro.device.trace import Tracer
        from repro.multigpu import WorkerPool

        delay = 0.15
        monkeypatch.setenv("MGSW_WARMUP_DELAY", str(delay))
        a = random_dna(160, rng=rng)
        b = mutated_copy(rng, a, 0.03)
        with WorkerPool(2, max_block_rows=64,
                        warm_kernels=("compiled",)) as pool:
            tracer = Tracer()
            res = pool.align(a, b, DNA_DEFAULT, block_rows=64,
                             kernel="compiled", tracer=tracer)
        assert res.score > 0
        assert not any(iv.kind == "warmup" for iv in tracer.intervals)
        assert all(iv.duration < delay for iv in tracer.intervals
                   if iv.kind == "compute")

    def test_pool_rejects_unknown_warm_kernel(self):
        from repro.multigpu import WorkerPool

        with pytest.raises(ConfigError, match="warm kernel"):
            WorkerPool(1, warm_kernels=("cuda",))
