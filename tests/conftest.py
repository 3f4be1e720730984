"""Shared fixtures for the test suite (helpers live in tests/helpers.py)."""

from __future__ import annotations

import os
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import Phase, settings

from repro.seq.scoring import DNA_DEFAULT, Scoring

#: ``--hypothesis-profile=ci``: every phase but shrinking, so a failing
#: example is printed as soon as it is found.  Shrinking one through the
#: process and CLI doors of ``test_oracle.py`` takes minutes, past a
#: per-test timeout.  Example counts and assertions stay the tests' own.
settings.register_profile(
    "ci", phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target])


def pytest_configure(config):
    """Build the C row engine into a cache of the test run's own, not the
    user's (subprocesses inherit it through the environment)."""
    config._mgsw_cache = tempfile.mkdtemp(prefix="mgsw-test-cache-")
    config._mgsw_saved = os.environ.get("XDG_CACHE_HOME")
    os.environ["XDG_CACHE_HOME"] = config._mgsw_cache


def pytest_unconfigure(config):
    saved = getattr(config, "_mgsw_saved", None)
    if saved is None:
        os.environ.pop("XDG_CACHE_HOME", None)
    else:
        os.environ["XDG_CACHE_HOME"] = saved
    shutil.rmtree(getattr(config, "_mgsw_cache", ""), ignore_errors=True)


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG; tests that need different streams seed their own."""
    return np.random.default_rng(12345)


@pytest.fixture
def scoring() -> Scoring:
    return DNA_DEFAULT
