"""Compiled backend unit tests: scan helpers, registry, build, engine, warmup.

Five layers, bottom up:

* the shared E-scan helpers are *property-tested* against a
  hand-written sequential reference of Gotoh's horizontal recurrence
  (hypothesis draws the values and dtype);
* the kernel backend registry: the strict (``require_kernel``) vs
  degrading (``resolve_kernel("auto")``) resolution split, with and
  without a C compiler;
* the build of the C engine: concurrent builders, an unwritable cache,
  a truncated library and ``CC=false`` each end in a checked library or
  the NumPy fallback, never a crash;
* the C engine differentially against the NumPy engine through
  ``sweep_protocol`` (hypothesis draws dtypes, windows, escalations,
  global sweeps, tie-heavy alphabets and BLOSUM62), and
  ``sweep_block_compiled`` against ``sweep_block``;
* the warmup hook: idempotence, the ``MGSW_WARMUP_DELAY`` test injector,
  and the end-to-end telemetry guarantee that warmup lands in
  ``warmup`` tracer spans and never in compute spans (the pool engine,
  lazily and at spawn).
"""

from __future__ import annotations

import importlib
import os
import pathlib
import subprocess
import sys
import tempfile
from functools import partial

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.errors import ConfigError
from repro.seq import BLOSUM62_SCORING, DNA_DEFAULT, Scoring
from repro.sw import backend, compiled
from repro.sw.blocks import compute_blocked
from repro.sw.config import AlignConfig
from repro.sw.constants import DTYPE, NEG_INF, get_policy
from repro.sw.kernel import (LiveWindow, _row_loop, build_profile,
                             local_boundaries, sweep_block, sweep_protocol)
from repro.sw.naive import sw_score_naive
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
# backend registry, and the build: cache, fallback, robustness
# ---------------------------------------------------------------------------

def _env(**extra) -> dict:
    """Our environment with this checkout on ``PYTHONPATH``, plus *extra*."""
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p), **extra)


def _python(code: str, **env) -> subprocess.CompletedProcess:
    """Run *code* in a fresh interpreter with *env* on top of ours."""
    return subprocess.run([sys.executable, "-c", code], env=_env(**env),
                          capture_output=True, text=True, timeout=300)


#: Prints the loaded engine's file and one swept block's answer.
_LOAD = """
import numpy as np
from repro.seq import DNA_DEFAULT
from repro.sw import compiled
from repro.sw.kernel import build_profile, local_boundaries
eng = compiled.engine()
a = np.arange(40, dtype=np.uint8) % 4
res = compiled.sweep_block_compiled(a, build_profile(a, DNA_DEFAULT),
                                    *local_boundaries(40, 40), DNA_DEFAULT)
print(eng.path if eng else None, res.best.score, res.h_bottom.sum())
"""


@pytest.fixture
def no_compiler(monkeypatch, tmp_path):
    """``CC=false`` and an empty cache: no engine in this process."""
    monkeypatch.setenv("CC", "false")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    compiled.engine.cache_clear()
    yield
    compiled.engine.cache_clear()


class TestBackendRegistry:
    def test_kernel_universe(self):
        assert backend.KERNELS == ("scalar", "batched", "compiled")
        assert backend.KERNEL_CHOICES == ("auto",) + backend.KERNELS
        for k in backend.CORE_KERNELS:
            assert k in backend.available_kernels()

    def test_validate_rejects_unknown(self):
        with pytest.raises(ConfigError, match="unknown kernel"):
            backend.validate_kernel("vectorised")
        # membership only: compiled passes even without the C engine
        assert backend.validate_kernel("compiled") == "compiled"

    def test_without_numba_require_errors_and_auto_degrades(self,
                                                            no_compiler):
        """No kernel uses numba any more, and without a C compiler the
        compiled kernel is unavailable: an explicit pick errors and
        ``auto`` degrades to scalar."""
        assert backend.available_kernels() == ("scalar", "batched")
        assert not backend.engine_available()
        with pytest.raises(ConfigError, match="C row engine"):
            backend.require_kernel("compiled")
        assert backend.resolve_kernel("auto") == "scalar"
        assert AlignConfig().concrete().kernel == "scalar"
        assert backend.resolve_kernel("scalar") == "scalar"
        assert backend.resolve_kernel("batched") == "batched"

    def test_with_engine_auto_prefers_compiled(self):
        assert backend.engine_available(), "no C engine: is cc on PATH?"
        assert backend.available_kernels() == backend.KERNELS
        assert backend.require_kernel("compiled") == "compiled"
        assert backend.resolve_kernel("auto") == "compiled"
        assert AlignConfig().kernel == "auto"
        assert AlignConfig().concrete().kernel == "compiled"

    def test_broken_engine_degrades_to_oracle_once(self, monkeypatch,
                                                   tmp_path, rng):
        """A compiler that writes a library which will not load must not
        take the library down: the failure is remembered for the
        process (one build attempt per cache dir, not one per block),
        and the sweep runs the scalar sweep."""
        log = tmp_path / "calls"
        fake = tmp_path / "fakecc"
        fake.write_text("#!/bin/sh\n"
                        f"echo \"$@\" >> {log}\n"
                        'for a; do [ "$prev" = -o ] && echo junk > "$a"; '
                        'prev=$a; done\n')
        fake.chmod(0o755)
        monkeypatch.setenv("CC", str(fake))
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        monkeypatch.setenv("TMPDIR", str(tmp_path / "tmp"))
        monkeypatch.setattr(tempfile, "tempdir", None)
        (tmp_path / "tmp").mkdir()
        compiled.engine.cache_clear()
        try:
            a = random_codes(rng, 24)
            b = random_codes(rng, 30)
            profile = build_profile(b, DNA_DEFAULT)
            for _ in range(3):
                got = compiled.sweep_block_compiled(
                    a, profile, *local_boundaries(24, 30), DNA_DEFAULT)
                want = sweep_block(a, profile, *local_boundaries(24, 30),
                                   DNA_DEFAULT)
                _assert_block_equal(got, want)
            assert compiled.engine() is None
            builds = [ln for ln in log.read_text().splitlines()
                      if "--version" not in ln]
            assert len(builds) == 2  # the user cache, then the temp dir
        finally:
            compiled.engine.cache_clear()

    def test_numba_absent_import_shim(self):
        """The registry never imports numba: with ``import numba``
        poisoned, a reloaded registry answers exactly as before."""
        before = backend.available_kernels()
        with pytest.MonkeyPatch.context() as mp:
            mp.setitem(sys.modules, "numba", None)  # import raises ImportError
            importlib.reload(backend)
            assert backend.available_kernels() == before
            assert backend.resolve_kernel("auto") == (
                "compiled" if "compiled" in before else "scalar")
        importlib.reload(backend)


class TestEngineBuild:
    """Every way the build can go wrong ends in a checked library or the
    NumPy fallback, never a crash."""

    def test_concurrent_builders_share_one_library(self, tmp_path):
        """Three builders start on one empty cache at once."""
        env = _env(XDG_CACHE_HOME=str(tmp_path))
        procs = [subprocess.Popen([sys.executable, "-c", _LOAD], env=env,
                                  stdout=subprocess.PIPE, text=True)
                 for _ in range(3)]
        outs = [p.communicate(timeout=300)[0].split() for p in procs]
        assert all(p.returncode == 0 for p in procs)
        assert all(out == outs[0] for out in outs) and outs[0][0] != "None"
        built = sorted(p.name for p in (tmp_path / "mgsw").iterdir())
        assert len(built) == 1 and built[0].endswith(".so")  # no temp left

    def test_unwritable_cache_dir_falls_back_to_temp(self, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")  # mkdir under a file fails, even for root
        tmp = tmp_path / "tmp"
        tmp.mkdir()
        out = _python(_LOAD, XDG_CACHE_HOME=str(blocker), TMPDIR=str(tmp))
        assert out.returncode == 0, out.stderr
        path = pathlib.Path(out.stdout.split()[0])
        assert path.parent == tmp / f"mgsw-{os.getuid()}"
        assert path.parent.stat().st_mode & 0o777 == 0o700

    def test_truncated_library_is_rebuilt(self, tmp_path):
        env = dict(XDG_CACHE_HOME=str(tmp_path))
        first = _python(_LOAD, **env)
        assert first.returncode == 0, first.stderr
        lib = pathlib.Path(first.stdout.split()[0])
        size = lib.stat().st_size
        with open(lib, "r+b") as fh:
            fh.truncate(size // 2)
        again = _python(_LOAD, **env)
        assert again.returncode == 0, again.stderr
        assert again.stdout == first.stdout
        assert lib.stat().st_size == size

    def test_cc_false_degrades_every_front_door(self, no_compiler, tmp_path,
                                                rng):
        assert backend.resolve_kernel("auto") == "scalar"
        a = random_dna(90, rng=rng)
        b = mutated_copy(rng, a, 0.05)
        got = compute_blocked(a, b, DNA_DEFAULT, block_rows=32,
                              block_cols=40, kernel="compiled")
        want, *_ = sw_score_naive(a, b, DNA_DEFAULT)
        assert got.best.score == want
        fa, fb = tmp_path / "a.fa", tmp_path / "b.fa"
        fa.write_text(">a\nACGTACGTTGCA\n")
        fb.write_text(">b\nACGTACCTTGCA\n")
        code = ("import sys; from repro.cli import main; "
                f"sys.exit(main(['align', {str(fa)!r}, {str(fb)!r}, "
                "'--kernel', 'compiled']))")
        out = _python(code)
        assert out.returncode == 1
        assert "C row engine" in out.stderr
        assert "Traceback" not in out.stderr


# ---------------------------------------------------------------------------
# compiled sweep vs scalar kernel (the C engine; the scalar sweep without it)
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


def _windowed_cases(rng, count):
    """Random windowed sweeps: tie-heavy blocks of 1-11 rows and 1-40
    columns, top borders live inside the window's hull only, live or
    restart left borders, floors from 0 up, and (under the match-1500
    scheme) int16 sweeps that must escalate."""
    hot = Scoring(match=1500, mismatch=-3, gap_open=3, gap_extend=2)
    for _ in range(count):
        scoring = hot if rng.random() < 0.3 else DNA_DEFAULT
        rows, cols = int(rng.integers(1, 12)), int(rng.integers(1, 41))
        letters = int(rng.integers(2, 4))
        a = rng.integers(0, letters, rows).astype(np.uint8)
        b = rng.integers(0, letters, cols).astype(np.uint8)
        lo = int(rng.integers(0, cols + 1))
        hi = int(rng.integers(lo, cols + 1))
        h_top = np.zeros(cols, dtype=DTYPE)
        f_top = np.full(cols, NEG_INF, dtype=DTYPE)
        h_top[lo:hi] = rng.integers(0, 30, hi - lo) * scoring.match
        f_top[lo:hi] = rng.integers(-60, 20, hi - lo)
        h_left = (rng.integers(0, 30, rows) * (rng.random(rows) < 0.5)
                  * scoring.match).astype(DTYPE)
        e_left = np.where(rng.random(rows) < 0.5, NEG_INF,
                          rng.integers(-60, 20, rows)).astype(DTYPE)
        window = LiveWindow(
            best=int(rng.integers(0, 60)) * scoring.match,
            match=scoring.match, rows_left=rows - 1 + int(rng.integers(0, 30)),
            cols_left=cols - 1 + int(rng.integers(0, 30)), lo=lo, hi=hi)
        dp = get_policy("int16") if rng.random() < 0.5 else None
        yield ((a, build_profile(b, scoring), h_top, f_top, h_left, e_left,
                int(rng.integers(0, 30)), scoring),
               dict(dp=dp, window=window))


def _assert_windowed_equal(got, want):
    _assert_block_equal(got, want)
    assert (got.cells, got.live) == (want.cells, want.live)
    assert want.cells is not None


#: Scoring schemes the engine differentials draw: DNA, a match score
#: that overflows int16 within a few cells, and BLOSUM62.
HOT = Scoring(match=1500, mismatch=-3, gap_open=3, gap_extend=2)
SCHEMES = (DNA_DEFAULT, HOT, BLOSUM62_SCORING)


@st.composite
def protocol_blocks(draw, windowed: bool):
    """One ``sweep_protocol`` call: codes, profile, borders, scoring and
    keywords.  Blocks are 1-24 rows by 1-48 columns over 2 letters (tie
    heavy) up to the scheme's alphabet, often with a homologous diagonal;
    the DP dtype is int32 or int16; a windowed block draws its
    ``LiveWindow`` (best, hull, rows and columns left) and keeps its top
    border live inside the hull only; an unwindowed one may be global
    with arbitrary interior borders."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scoring = draw(st.sampled_from(SCHEMES))
    rows = draw(st.sampled_from([1, 2, 3, 8, 17, 24]))
    cols = draw(st.sampled_from([1, 2, 5, 16, 33, 48]))
    letters = draw(st.sampled_from([2, 4, scoring.matrix.shape[0]]))
    a = rng.integers(0, letters, rows).astype(np.uint8)
    b = rng.integers(0, letters, cols).astype(np.uint8)
    if draw(st.booleans()):
        k = min(rows, cols)
        b[:k] = a[:k]
    unit = scoring.match
    local = windowed or draw(st.booleans())
    if local:
        h_top = rng.integers(0, 30, cols) * unit
        f_top = rng.integers(-60, 20, cols)
        h_left = rng.integers(0, 30, rows) * unit * (rng.random(rows) < 0.5)
        e_left = np.where(rng.random(rows) < 0.5, NEG_INF,
                          rng.integers(-60, 20, rows))
        corner = int(rng.integers(0, 30)) * unit
    else:
        h_top = rng.integers(-80, 90, cols)
        f_top = rng.integers(-150, 60, cols)
        h_left = rng.integers(-80, 90, rows)
        e_left = rng.integers(-150, 60, rows)
        corner = int(rng.integers(-80, 90))
    window = None
    if windowed:
        lo = draw(st.integers(0, cols))
        hi = draw(st.integers(lo, cols))
        h_top[:lo] = h_top[hi:] = 0
        f_top[:lo] = f_top[hi:] = NEG_INF
        window = LiveWindow(best=draw(st.integers(0, 60)) * unit, match=unit,
                            rows_left=rows - 1 + draw(st.integers(0, 30)),
                            cols_left=cols - 1 + draw(st.integers(0, 30)),
                            lo=lo, hi=hi)
    dp = None
    if local and draw(st.booleans()):
        dp = get_policy("int16")
    borders = [np.asarray(v, dtype=DTYPE) for v in (h_top, f_top, h_left,
                                                    e_left)]
    return ((a, build_profile(b, scoring), *borders, corner, scoring),
            dict(local=local, track_best=True, dp=dp, window=window))


def _protocol_pair(args, kwargs):
    """The block through ``sweep_protocol`` on the C engine and on the
    NumPy engine (``_row_loop``, ``_window_loop`` with a window)."""
    eng = compiled.engine()
    assert eng is not None, "no C engine: is cc on PATH?"
    got = sweep_protocol(partial(compiled._run_c, eng), *args, **kwargs)
    want = sweep_protocol(_row_loop, *args, **kwargs)
    return got, want


class TestCompiledSweepDifferential:
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           rows=st.integers(min_value=1, max_value=40),
           cols=st.integers(min_value=1, max_value=40),
           local=st.booleans(),
           dp_name=st.sampled_from(["int32", "int16"]))
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

    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(block=protocol_blocks(windowed=False))
    def test_c_engine_matches_numpy_engine(self, block):
        """Every field of every result, int16 escalations included."""
        got, want = _protocol_pair(*block)
        _assert_block_equal(got, want)
        assert (got.cells, got.live) == (want.cells, want.live) == (None,
                                                                    None)

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(block=protocol_blocks(windowed=True))
    def test_windowed_c_engine_matches_numpy_engine(self, block):
        """The window (open, E widening, stale reset, trim, hull) too."""
        got, want = _protocol_pair(*block)
        _assert_windowed_equal(got, want)

    def test_windowed_sweep_matches_numpy(self, rng):
        """A live window through the compiled path, on the C engine."""
        for args, kwargs in _windowed_cases(rng, 60):
            _assert_windowed_equal(
                compiled.sweep_block_compiled(*args, **kwargs),
                sweep_block(*args, **kwargs))

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
            return compute_blocked(a, b, DNA_DEFAULT, block_rows=32,
                                   block_cols=48, pruning=prune,
                                   kernel=kernel, dp_dtype=dp_dtype)

        scalar = run("scalar")
        comp = run("compiled")
        assert comp.best == scalar.best
        # Same rolling-border schedule → identical pruning decisions and
        # identical narrow/wide accounting, block for block.
        assert comp.tally.blocks_pruned == scalar.tally.blocks_pruned
        assert comp.cells_pruned == scalar.cells_pruned
        assert comp.tally.blocks_narrow == scalar.tally.blocks_narrow
        assert comp.tally.blocks_wide == scalar.tally.blocks_wide
        assert (comp.tally.dtype_escalations
                == scalar.tally.dtype_escalations)
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
