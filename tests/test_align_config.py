"""AlignConfig: the seven comparison knobs, validated once for every
front door (library engines, serve, CLI)."""

from __future__ import annotations

import multiprocessing as mp
import time
from dataclasses import asdict

import pytest

from repro.baselines.single_gpu import run_single_gpu
from repro.cli import build_parser
from repro.device import GTX_680
from repro.errors import ConfigError
from repro.multigpu import ChainConfig, WorkerPool, align_multi_process
from repro.seq import DNA_DEFAULT
from repro.serve.jobs import JobSpec
from repro.sw import AlignConfig, resolve_config
from repro.sw.config import CONFIG_FIELDS

from helpers import random_codes

BAD_VALUES = [
    {"block_rows": 0},
    {"block_rows": 2.5},
    {"kernel": "bogus"},
    {"mode": "x"},
    {"band_width": -1},
    {"xdrop_x": 0},
    {"dp_dtype": "int7"},
    {"pruning": "no"},
]


def _error(fn) -> str:
    with pytest.raises(ConfigError) as err:
        fn()
    return str(err.value)


@pytest.fixture(scope="module")
def pool():
    with WorkerPool(2) as p:
        yield p


class TestOneValidator:
    @pytest.mark.parametrize("bad", BAD_VALUES, ids=lambda d: repr(d))
    def test_every_front_door_refuses_alike(self, bad, pool, monkeypatch,
                                            rng):
        a, b = random_codes(rng, 40), random_codes(rng, 50)
        want = _error(lambda: AlignConfig(**bad))
        pids = pool.worker_pids()
        assert _error(lambda: pool.align(a, b, DNA_DEFAULT, **bad)) == want
        assert not pool.broken and pool.worker_pids() == pids
        started = []
        monkeypatch.setattr(mp.process.BaseProcess, "start",
                            lambda proc: started.append(proc))
        assert _error(lambda: ChainConfig(**bad)) == want
        assert _error(lambda: run_single_gpu(a, b, DNA_DEFAULT, GTX_680,
                                             **bad)) == want
        assert _error(lambda: align_multi_process(
            a, b, DNA_DEFAULT, workers=2, **bad)) == want
        assert _error(lambda: JobSpec(a_codes=a, b_codes=b,
                                      scoring=DNA_DEFAULT, **bad)) == want
        assert started == []

    def test_bool_is_not_an_int_and_int_is_not_a_bool(self):
        for bad in ({"block_rows": True}, {"band_width": 64.0},
                    {"xdrop_x": "20"}, {"pruning": 1}):
            with pytest.raises(ConfigError):
                AlignConfig(**bad)

    def test_numpy_ints_are_ints(self):
        import numpy as np

        assert AlignConfig(block_rows=np.int64(64)).block_rows == 64


class TestOneDeclaration:
    def test_subclasses_share_the_fields_and_defaults(self):
        base = AlignConfig()
        assert issubclass(ChainConfig, AlignConfig)
        assert issubclass(JobSpec, AlignConfig)
        chain = ChainConfig()
        for name in CONFIG_FIELDS:
            assert getattr(chain, name) == getattr(base, name)
        assert JobSpec.__dataclass_fields__["block_rows"].default == 256
        for name in set(CONFIG_FIELDS) - {"block_rows"}:
            assert JobSpec.__dataclass_fields__[name].default == \
                getattr(base, name)

    def test_chain_config_keeps_its_own_checks(self):
        with pytest.raises(ConfigError):
            ChainConfig(device_slots=0)

    def test_resolve_config_strips_subclasses_and_applies_overrides(self, rng):
        a = random_codes(rng, 8)
        spec = JobSpec(a_codes=a, b_codes=a, scoring=DNA_DEFAULT,
                       mode="banded", band_width=16)
        cfg = resolve_config(spec, block_rows=32)
        assert type(cfg) is AlignConfig
        assert (cfg.mode, cfg.band_width, cfg.block_rows) == ("banded", 16, 32)
        with pytest.raises(TypeError):
            resolve_config(spec, tenant="x")

    def test_auto_kernel_is_resolved_by_the_engines(self):
        from repro.sw import resolve_kernel

        assert resolve_config(kernel="auto").kernel == resolve_kernel("auto")
        assert ChainConfig(kernel="auto").kernel == "auto"


class TestAnswerKey:
    @pytest.mark.parametrize("mode,extra", [
        ("exact", {}), ("banded", {"band_width": 8}), ("auto", {"band_width": 8}),
        ("xdrop", {"xdrop_x": 9})])
    def test_answer_changing_fields_only(self, mode, extra):
        cfg = AlignConfig(mode=mode, band_width=8, xdrop_x=9, dp_dtype="int16",
                          block_rows=64, kernel="batched", pruning=True)
        assert cfg.answer_key() == {"mode": mode, "dp_dtype": "int16", **extra}

    def test_cache_key_ignores_strategy_fields(self, rng):
        a = random_codes(rng, 30)

        def key(**kw):
            return JobSpec(a_codes=a, b_codes=a, scoring=DNA_DEFAULT,
                           **kw).cache_key()

        assert key() == key(block_rows=64, kernel="batched", pruning=True)
        assert key() == key(band_width=3)  # exact: the band names nothing
        assert key(mode="banded") != key(mode="banded", band_width=3)


class TestCli:
    def test_flag_defaults_come_from_the_config(self):
        parser = build_parser()
        align = parser.parse_args(["align", "a", "b"])
        assert {n: getattr(align, n) for n in CONFIG_FIELDS} == \
            asdict(AlignConfig())
        assert (align.workers, align.transport, align.buffer,
                align.start_method) == (2, "shm", 4, None)
        submit = parser.parse_args(["submit", "a", "b"])
        assert submit.block_rows is None  # the daemon's JobSpec default
        for name in set(CONFIG_FIELDS) - {"block_rows"}:
            assert getattr(submit, name) == getattr(AlignConfig, name)
        trace = parser.parse_args(["perf", "trace-export", "a", "b"])
        assert (trace.block_rows, trace.kernel, trace.pruning) == (512, "scalar", False)
        assert (trace.workers, trace.transport, trace.buffer) == (2, "shm", 4)
        serve = parser.parse_args(["serve"])
        assert (serve.workers, serve.transport, serve.buffer,
                serve.start_method) == (2, "shm", 4, None)
        for cmd in ("time", "tune", "campaign"):
            args = parser.parse_args([cmd] + (["1", "2"] if cmd != "campaign" else []))
            assert (args.block_rows, args.buffer) == (512, 4)


class TestFailFast:
    def test_worker_death_without_recovery_fails_in_seconds(self, rng):
        """With max_restarts=0 the neighbours of a dead worker must not
        hold the run until their border timeouts expire."""
        a, b = random_codes(rng, 700), random_codes(rng, 900)
        t0 = time.monotonic()
        with pytest.raises(RuntimeError, match="worker 1"):
            align_multi_process(a, b, DNA_DEFAULT, workers=3, block_rows=64,
                                _fault=(1, 3))
        assert time.monotonic() - t0 < 5.0
