"""Unit tests: repro.sw.tiers — the one tier front door, over a fake engine.

The engines' own differential suites (``TestHeuristicDifferential``)
prove every front door gives the same answers; these tests pin the
dispatch contract itself: which sweeps run with which band, what the
result is stamped with, how elapsed time is summed, and which events and
counters fire.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.errors import ConfigError
from repro.obs import EventJournal, MetricsRegistry
from repro.seq import DNA_DEFAULT
from repro.sw import sw_score_naive, xdrop_score
from repro.sw.kernel import BestCell
from repro.sw.tiers import run_tiers, validate_tiers
from repro.workloads import HUMAN_CHIMP, mutate, random_dna


@dataclass(frozen=True)
class FakeResult:
    best: BestCell
    elapsed_s: float
    mode: str = "exact"
    tier: str = "exact"
    escalated: bool = False
    dp_dtype: str = "int32"
    blocks_narrow: int = 0
    blocks_wide: int = 0
    dtype_escalations: int = 0


class FakeEngine:
    """Answers a full sweep with the naive score and a banded sweep with
    either that same score (*band_holds*: the optimum lies in the band)
    or a weak lower bound; logs the bands it was asked for."""

    def __init__(self, a, b, *, band_holds: bool = False,
                 escalations: int = 0) -> None:
        self.a, self.b = a, b
        self.band_holds = band_holds
        self.escalations = escalations
        self.bands: list = []

    def sweep(self, band_half_width):
        self.bands.append(band_half_width)
        if band_half_width is None or self.band_holds:
            best = BestCell(*sw_score_naive(self.a, self.b, DNA_DEFAULT))
        else:
            best = BestCell(1, 0, 0)
        return FakeResult(best=best, elapsed_s=1.5,
                          dp_dtype="int16" if self.escalations else "int32",
                          dtype_escalations=self.escalations)

    def run(self, mode, *, events=None, metrics=None, band_width=64,
            xdrop_x=20):
        return run_tiers(
            self.a, self.b, DNA_DEFAULT, mode=mode, band_width=band_width,
            xdrop_x=xdrop_x, sweep=self.sweep,
            from_xdrop=lambda xo: FakeResult(best=xo.best, elapsed_s=0.25),
            elapsed="elapsed_s", backend="fake", metrics=metrics,
            events=events)


def _counter(registry, name):
    fam = registry.snapshot()["counters"].get(name)
    return sum(s["value"] for s in fam["series"]) if fam else 0


@pytest.fixture
def similar(rng):
    a = random_dna(200, rng=rng)
    return a, mutate(a, HUMAN_CHIMP, rng=rng)


class TestValidateTiers:
    @pytest.mark.parametrize("mode", ["exact", "banded", "xdrop", "auto"])
    def test_accepts_every_mode(self, mode):
        validate_tiers(mode, 0, 1)

    @pytest.mark.parametrize("mode,band_width,xdrop_x", [
        ("greedy", 64, 20), ("exact", -1, 20), ("exact", 64, 0),
        ("xdrop", 64, -5)])
    def test_refuses_bad_knobs(self, mode, band_width, xdrop_x):
        with pytest.raises(ConfigError):
            validate_tiers(mode, band_width, xdrop_x)


class TestDispatch:
    def test_exact_and_banded_are_one_sweep(self, similar):
        engine = FakeEngine(*similar)
        res = engine.run("exact")
        assert engine.bands == [None]
        assert (res.mode, res.tier, res.escalated) == ("exact", "exact", False)
        res = engine.run("banded", band_width=32)
        assert engine.bands == [None, 32]
        assert (res.mode, res.tier) == ("banded", "banded")

    def test_xdrop_runs_inline_without_a_sweep(self, similar):
        a, b = similar
        engine = FakeEngine(a, b)
        res = engine.run("xdrop", xdrop_x=30)
        assert engine.bands == []
        assert res.best == xdrop_score(a, b, DNA_DEFAULT, 30).best
        assert (res.mode, res.tier, res.escalated) == ("xdrop", "xdrop", False)
        assert res.elapsed_s == 0.25

    def test_auto_keeps_a_confident_banded_answer(self, similar):
        engine = FakeEngine(*similar, band_holds=True)
        registry, journal = MetricsRegistry(), EventJournal()
        res = engine.run("auto", metrics=registry, events=journal)
        assert engine.bands == [64]
        assert (res.mode, res.tier, res.escalated) == ("auto", "banded", False)
        assert res.elapsed_s == 1.5
        assert _counter(registry, "heuristic_hits") == 1
        assert _counter(registry, "escalations") == 0
        assert journal.count("heuristic_escalation") == 0

    def test_auto_escalates_and_sums_elapsed(self, rng):
        a, b = random_dna(300, rng=rng), random_dna(300, rng=rng)
        engine = FakeEngine(a, b)
        registry, journal = MetricsRegistry(), EventJournal()
        res = engine.run("auto", metrics=registry, events=journal)
        assert engine.bands == [64, None]
        assert (res.mode, res.tier, res.escalated) == ("auto", "exact", True)
        assert res.best.score == sw_score_naive(a, b, DNA_DEFAULT)[0]
        assert res.elapsed_s == 3.0
        assert _counter(registry, "escalations") == 1
        assert _counter(registry, "heuristic_hits") == 0
        assert journal.count("heuristic_escalation") == 1

    def test_one_dtype_escalation_event_per_escalating_sweep(self, rng):
        a, b = random_dna(120, rng=rng), random_dna(120, rng=rng)
        journal = EventJournal()
        FakeEngine(a, b, escalations=3).run("auto", events=journal)
        assert journal.count("dtype_escalation") == 2
        journal = EventJournal()
        FakeEngine(a, b, escalations=0).run("auto", events=journal)
        assert journal.count("dtype_escalation") == 0

    def test_exact_timing_mode_needs_no_sequences(self):
        res = run_tiers(None, None, None, mode="exact", band_width=64,
                        xdrop_x=20,
                        sweep=lambda band: FakeResult(BestCell.none(), 2.0),
                        from_xdrop=None, elapsed="elapsed_s", backend="fake")
        assert res.tier == "exact" and res.elapsed_s == 2.0
