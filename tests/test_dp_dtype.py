"""The DP dtype policy layer: headroom math, narrow kernels, escalation.

Covers the :mod:`repro.sw.constants` policy objects (sentinels, overflow
caps, width limits, resolution rules), the narrow paths of
:func:`~repro.sw.kernel.sweep_block` and
:func:`~repro.sw.batched.sweep_wavefront` (bit-identical to int32,
including forced escalation), the dtype-keyed caches, and the
``blocks_narrow``/``blocks_wide``/``dtype_escalations`` telemetry
contract (fired once per block, absent entirely on wide runs).
"""

from __future__ import annotations

import numpy as np
import pytest
from helpers import DNA_X256, mutated_copy, random_codes
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.seq import DNA_DEFAULT, Scoring, encode
from repro.sw.batched import BlockJob, KernelWorkspace, sweep_wavefront
from repro.sw.blocks import compute_blocked
from repro.sw.constants import (
    DP_DTYPE_CHOICES,
    MAX_SWEEP_WIDTH,
    NEG_INF,
    POLICIES,
    get_policy,
    resolve_dp_dtype,
    validate_dp_dtype,
)
from repro.sw.kernel import (
    ProfileCache,
    build_profile,
    local_boundaries,
    narrow_entry_ok,
    sweep_block,
)

#: A scheme whose per-cell gain is so large that any decent diagonal run
#: blows through the int16 overflow cap — the must-escalate probe.
HOT = Scoring(match=2000, mismatch=-3, gap_open=3, gap_extend=2)


def _block_inputs(rng, rows, cols, scoring, *, similar=True):
    a = random_codes(rng, rows)
    if similar:
        b = mutated_copy(rng, a[:cols] if cols <= rows else
                         np.resize(a, cols), 0.05)
    else:
        b = random_codes(rng, cols)
    profile = build_profile(b, scoring)
    h_top, f_top, h_left, e_left, h_diag = local_boundaries(rows, cols)
    return a, profile, h_top, f_top, h_left, e_left, h_diag


def _assert_results_equal(got, want):
    assert got.best.score == want.best.score
    assert (got.best.row, got.best.col) == (want.best.row, want.best.col)
    assert np.array_equal(got.h_bottom, want.h_bottom)
    assert np.array_equal(got.f_bottom, want.f_bottom)
    assert np.array_equal(got.h_right, want.h_right)
    assert np.array_equal(got.e_right, want.e_right)
    assert got.corner == want.corner


# -- policy objects ----------------------------------------------------------

def test_policy_sentinels_and_kinds():
    assert POLICIES["int32"].neg_inf == NEG_INF
    assert POLICIES["int16"].neg_inf == -(1 << 13)
    assert not POLICIES["int32"].narrow
    assert POLICIES["int16"].narrow
    assert sorted(POLICIES) == ["int16", "int32"]
    for name, policy in POLICIES.items():
        assert policy.kind == np.dtype(name).type
        assert policy.lo <= policy.neg_inf < 0 < policy.min_cap <= policy.hi


def test_max_width_formula_dna_default():
    s = DNA_DEFAULT
    assert POLICIES["int32"].max_width(s) == MAX_SWEEP_WIDTH
    p = POLICIES["int16"]
    for scoring in (s, DNA_X256):
        w = p.max_width(scoring)
        # widest W with overflow_limit(s, W) >= min_cap, and one more fails
        assert p.overflow_limit(scoring, w) >= p.min_cap
        assert p.overflow_limit(scoring, w + 1) < p.min_cap
    assert p.max_width(s) == 12288
    assert p.max_width(DNA_X256) == 48


def test_overflow_limit_arithmetic():
    p = POLICIES["int16"]
    s = DNA_DEFAULT
    assert p.overflow_limit(s, 1) == p.hi - s.match
    assert p.overflow_limit(s, 10) == p.hi - s.match - 9 * s.gap_extend


def test_supports_rejects_oversized_penalties():
    # one kernel step from the int16 sentinel must not wrap past int16
    # min: -8192 - (4 + 2 + 30000) = -38198 < -32768
    heavy = Scoring(match=2, mismatch=-30000, gap_open=4, gap_extend=2)
    assert not POLICIES["int16"].supports(heavy)
    assert POLICIES["int32"].supports(heavy)
    # the sentinel must sit below every real value: -8192 > -2 * 4200
    assert not POLICIES["int16"].supports(
        Scoring(match=2, mismatch=-3, gap_open=4000, gap_extend=200))
    assert POLICIES["int32"].supports(DNA_DEFAULT)
    assert POLICIES["int16"].supports(DNA_DEFAULT)


def test_validate_and_get_policy_errors():
    for name in DP_DTYPE_CHOICES:
        assert validate_dp_dtype(name) == name
    assert DP_DTYPE_CHOICES == ("auto", "int32", "int16")
    for bad in ("float16", "int8"):
        with pytest.raises(ConfigError, match="choose from"):
            validate_dp_dtype(bad)
        with pytest.raises(ConfigError, match="choose from"):
            get_policy(bad)
    with pytest.raises(ConfigError):
        get_policy("auto")  # auto is a knob value, not a policy


# -- resolution rules --------------------------------------------------------

def test_resolve_auto_picks_narrowest_guaranteed():
    s = DNA_DEFAULT
    # tiny and medium: int16 fits (width and the match*min(m,n) < cap
    # guarantee)
    assert resolve_dp_dtype("auto", s, block_cols=32, m=20, n=20).name == "int16"
    assert resolve_dp_dtype("auto", s, block_cols=512, m=4000, n=4000).name == "int16"
    # too wide for int16 under this scoring: wide, though a sweep this
    # short could never overflow
    assert resolve_dp_dtype("auto", DNA_X256, block_cols=64,
                            m=20, n=64).name == "int32"
    # huge best-possible score: must stay wide (escalation would be certain)
    assert resolve_dp_dtype("auto", s, block_cols=512,
                            m=10**6, n=10**6).name == "int32"
    # non-local sweeps always resolve wide
    assert resolve_dp_dtype("auto", s, block_cols=32, m=20, n=20,
                            local=False).name == "int32"


def test_resolve_explicit_boundary():
    s = DNA_DEFAULT
    w16 = POLICIES["int16"].max_width(s)
    assert resolve_dp_dtype("int16", s, block_cols=w16,
                            m=10**6, n=10**6).name == "int16"
    with pytest.raises(ConfigError):
        resolve_dp_dtype("int16", s, block_cols=w16 + 1, m=10**6, n=10**6)
    # eff width is min(block_cols, n): a short B sequence rescues a wide grid
    assert resolve_dp_dtype("int16", s, block_cols=w16 + 100,
                            m=100, n=40).name == "int16"
    with pytest.raises(ConfigError):
        resolve_dp_dtype("int16", s, block_cols=64, m=100, n=100, local=False)
    heavy = Scoring(match=2, mismatch=-30000, gap_open=4, gap_extend=2)
    with pytest.raises(ConfigError):
        resolve_dp_dtype("int16", heavy, block_cols=8, m=10, n=10)


def test_narrow_entry_gate():
    p = POLICIES["int16"]
    cap = p.overflow_limit(DNA_DEFAULT, 8)
    h_top, f_top, h_left, e_left, h_diag = local_boundaries(6, 8)
    assert narrow_entry_ok(h_top, f_top, h_left, e_left, h_diag, cap)
    assert not narrow_entry_ok(h_top, f_top, h_left, e_left, -1, cap)
    assert not narrow_entry_ok(h_top, f_top, h_left, e_left, cap, cap)
    bad = h_top.copy()
    bad[3] = cap  # at-cap border breaks the induction base
    assert not narrow_entry_ok(bad, f_top, h_left, e_left, 0, cap)
    bad[3] = -1  # negative H border breaks plain widening
    assert not narrow_entry_ok(bad, f_top, h_left, e_left, 0, cap)


# -- narrow kernels bit-identical to int32 -----------------------------------

@pytest.mark.parametrize("dtype", ["int16"])
def test_scalar_narrow_matches_wide(dtype):
    rng = np.random.default_rng(7)
    p = POLICIES[dtype]
    cols = min(32, p.max_width(DNA_DEFAULT))
    for trial in range(5):
        args = _block_inputs(rng, 48, cols, DNA_DEFAULT)
        wide = sweep_block(*args, DNA_DEFAULT)
        got = sweep_block(*args, DNA_DEFAULT, dp=p)
        assert got.dtype == dtype and not got.escalated
        _assert_results_equal(got, wide)


@settings(max_examples=40, deadline=None)
@given(
    a_text=st.text(alphabet="ACGT", min_size=1, max_size=48),
    b_text=st.text(alphabet="ACGT", min_size=1, max_size=40),
    match=st.integers(1, 5),
    mismatch=st.integers(-5, 0),
    gap_open=st.integers(0, 5),
    gap_extend=st.integers(1, 3),
)
def test_property_narrow_equals_wide(a_text, b_text, match, mismatch,
                                     gap_open, gap_extend):
    s = Scoring(match=match, mismatch=mismatch,
                gap_open=gap_open, gap_extend=gap_extend)
    a, b = encode(a_text), encode(b_text)
    profile = build_profile(b, s)
    bounds = local_boundaries(a.size, b.size)
    wide = sweep_block(a, profile, *bounds, s)
    got = sweep_block(a, profile, *bounds, s, dp=POLICIES["int16"])
    _assert_results_equal(got, wide)


def test_scalar_escalation_is_exact():
    rng = np.random.default_rng(11)
    a = random_codes(rng, 40)
    b = a.copy()  # identical -> a 2000/cell diagonal blows the int16 cap
    profile = build_profile(b, HOT)
    bounds = local_boundaries(a.size, b.size)
    wide = sweep_block(a, profile, *bounds, HOT)
    got = sweep_block(a, profile, *bounds, HOT, dp=POLICIES["int16"])
    assert got.escalated and got.dtype == "int32"
    _assert_results_equal(got, wide)
    assert got.best.score == wide.best.score >= 40 * HOT.match - 100


def test_scalar_width_over_policy_limit_raises():
    rng = np.random.default_rng(3)
    args = _block_inputs(rng, 8, 64, DNA_X256)
    with pytest.raises(ConfigError, match="max sweep width 48"):
        sweep_block(*args, DNA_X256, dp=POLICIES["int16"])  # 64 > 48


def test_batched_narrow_matches_wide_with_mixed_escalation():
    rng = np.random.default_rng(19)
    jobs = []
    # ragged wavefront: benign DNA jobs plus one crafted hot job that
    # must escalate, exercising the splice-back ordering
    for rows, cols in ((24, 20), (31, 17), (16, 25)):
        a, profile, *bounds = _block_inputs(rng, rows, cols, DNA_DEFAULT)
        jobs.append(BlockJob(a, profile, *bounds))
    hot_a = random_codes(rng, 28)
    hot_bounds = local_boundaries(28, 28)
    jobs.insert(1, BlockJob(hot_a, build_profile(hot_a.copy(), HOT),
                            *hot_bounds))
    # all jobs share one scoring per call, so run the hot job separately
    dna_jobs = [jobs[0], jobs[2], jobs[3]]
    wide = sweep_wavefront(dna_jobs, DNA_DEFAULT)
    got = sweep_wavefront(dna_jobs, DNA_DEFAULT, dp=POLICIES["int16"])
    for g, w in zip(got, wide):
        assert g.dtype == "int16" and not g.escalated
        _assert_results_equal(g, w)

    hot_wide = sweep_wavefront([jobs[1]], HOT)
    hot_got = sweep_wavefront([jobs[1]], HOT, dp=POLICIES["int16"])
    assert hot_got[0].escalated
    _assert_results_equal(hot_got[0], hot_wide[0])


def test_batched_partial_escalation_splices_in_order():
    # same scoring, lanes differ: similar pair overflows, random pair not
    rng = np.random.default_rng(23)
    s = Scoring(match=900, mismatch=-600, gap_open=400, gap_extend=300)
    assert POLICIES["int16"].supports(s)
    ident = random_codes(rng, 30)
    rand_a, rand_b = random_codes(rng, 30), random_codes(rng, 22)
    jobs = [
        BlockJob(ident, build_profile(ident.copy(), s),
                 *local_boundaries(30, 30)),
        BlockJob(rand_a, build_profile(rand_b, s),
                 *local_boundaries(30, 22)),
    ]
    wide = sweep_wavefront(jobs, s)
    got = sweep_wavefront(jobs, s, dp=POLICIES["int16"])
    assert got[0].escalated  # the identical pair trips the cap
    for g, w in zip(got, wide):
        _assert_results_equal(g, w)


# -- dtype-keyed caches (latent-bug regressions) -----------------------------

def test_ramp_cache_is_dtype_keyed():
    ws = KernelWorkspace()
    narrow_ramp = ws.ramp(8, 2, dtype=np.int16)
    assert narrow_ramp.dtype == np.int16
    wide_ramp = ws.ramp(8, 2)
    # a mixed-dtype run must never be handed the other width class's ramp
    assert wide_ramp.dtype == np.int32
    assert np.array_equal(wide_ramp, np.arange(8, dtype=np.int32) * 2)
    again = ws.ramp(4, 2, dtype=np.int16)
    assert again.dtype == np.int16 and again.size == 4


def test_profile_cache_is_dtype_keyed():
    rng = np.random.default_rng(5)
    cache = ProfileCache(capacity=4)
    b = random_codes(rng, 64)
    wide = cache.get(b, DNA_DEFAULT)
    narrow = cache.get(b, DNA_DEFAULT, "int16")
    assert wide.dtype == np.int32 and narrow.dtype == np.int16
    assert len(cache) == 2 and cache.misses == 2
    assert cache.get(b, DNA_DEFAULT, "int16") is narrow
    assert cache.hits == 1
    assert np.array_equal(narrow, wide.astype(np.int16))


# -- blocked engine + telemetry ----------------------------------------------

@pytest.mark.parametrize("kernel", ["scalar", "compiled", "batched"])
def test_compute_blocked_narrow_exact_with_escalation(kernel):
    rng = np.random.default_rng(31)
    a = random_codes(rng, 150)
    b = mutated_copy(rng, a, 0.04)  # similar -> high scores -> escalations
    wide = compute_blocked(a, b, HOT, block_rows=32, block_cols=32,
                           kernel=kernel, dp_dtype="int32")
    got = compute_blocked(a, b, HOT, block_rows=32, block_cols=32,
                          kernel=kernel, dp_dtype="int16")
    assert got.best.score == wide.best.score
    assert (got.best.row, got.best.col) == (wide.best.row, wide.best.col)
    assert got.dp_dtype == "int16"
    assert got.tally.blocks_narrow + got.tally.blocks_wide == got.blocks_total
    assert got.tally.dtype_escalations > 0
    assert wide.tally.blocks_narrow == wide.tally.blocks_wide == 0


def test_metrics_fire_once_per_block_and_stay_absent_wide():
    from repro.baselines.single_gpu import run_single_gpu
    from repro.device.spec import GTX_580
    from repro.obs import MetricsRegistry

    rng = np.random.default_rng(41)
    a = random_codes(rng, 120)
    b = mutated_copy(rng, a, 0.04)

    registry = MetricsRegistry()
    res = run_single_gpu(a, b, HOT, GTX_580, block_rows=32,
                         dp_dtype="int16", metrics=registry, pruning=False)
    snap = registry.snapshot()["counters"]

    def total(name):
        # zero-valued dtype counters are never registered at all
        if name not in snap:
            return 0
        return sum(s["value"] for s in snap[name]["series"])

    # one count per swept block, escalations counted exactly once each
    assert total("blocks_narrow") == res.blocks_narrow
    assert total("blocks_wide") == res.blocks_wide
    assert total("dtype_escalations") == res.dtype_escalations > 0
    assert res.blocks_narrow + res.blocks_wide == 16  # the full 4x4 grid

    wide_reg = MetricsRegistry()
    wide = run_single_gpu(a, b, HOT, GTX_580, block_rows=32,
                          dp_dtype="int32", metrics=wide_reg)
    wide_snap = wide_reg.snapshot()["counters"]
    # wide runs carry no dtype series at all (X9 overhead bound)
    for name in ("blocks_narrow", "blocks_wide", "dtype_escalations"):
        assert name not in wide_snap
    assert wide.score == res.score
