"""Unit tests: repro.sw.tiers — the one tier front door, over a fake engine.

The oracle harness (``test_oracle.py``) proves every engine and front
door gives the same answers; these tests pin the
dispatch contract itself: which tiers run inline and which call the
engine's exact sweep, what the result is stamped with, how elapsed time
is summed, and which events and counters fire.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.errors import ConfigError
from repro.obs import EventJournal, MetricsRegistry
from repro.seq import DNA_DEFAULT
from repro.sw import adaptive_banded_score, sw_score_naive, xdrop_score
from repro.sw.config import AlignConfig
from repro.sw.kernel import BestCell
from repro.sw.pruning import Floor, seed_floor
from repro.sw.tiers import MAX_WIDENING, run_tiers, validate_tiers
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
    floor: Floor = Floor()


class FakeEngine:
    """Answers its one exact sweep with the naive score; counts the
    sweeps, logs the floors they start from and the inline outcomes
    handed to ``from_inline``."""

    def __init__(self, a, b, *, escalations: int = 0) -> None:
        self.a, self.b = a, b
        self.escalations = escalations
        self.sweeps = 0
        self.floors: list = []
        self.inline: list = []

    def sweep(self, floor):
        self.sweeps += 1
        self.floors.append(floor)
        best = BestCell(*sw_score_naive(self.a, self.b, DNA_DEFAULT))
        return FakeResult(best=best, elapsed_s=1.5,
                          dp_dtype="int16" if self.escalations else "int32",
                          dtype_escalations=self.escalations)

    def from_inline(self, out):
        self.inline.append(out)
        return FakeResult(best=out.best, elapsed_s=0.25)

    def run(self, mode, *, events=None, metrics=None, band_width=64,
            xdrop_x=20, pruning=True):
        config = AlignConfig(mode=mode, band_width=band_width,
                             xdrop_x=xdrop_x, pruning=pruning)
        return run_tiers(
            self.a, self.b, DNA_DEFAULT, config, sweep=self.sweep,
            from_inline=self.from_inline, elapsed="elapsed_s",
            backend="fake", metrics=metrics, events=events)


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
        """``exact`` is one engine sweep; ``banded`` is one inline band
        sweep and no engine sweep."""
        a, b = similar
        engine = FakeEngine(a, b)
        res = engine.run("exact")
        assert (engine.sweeps, engine.inline) == (1, [])
        assert (res.mode, res.tier, res.escalated) == ("exact", "exact", False)
        res = engine.run("banded", band_width=32)
        assert engine.sweeps == 1 and len(engine.inline) == 1
        bo = adaptive_banded_score(a, b, DNA_DEFAULT, 32,
                                   max_half_width=MAX_WIDENING * 32)
        assert res.best == bo.best
        assert engine.inline[0].cells_computed == bo.cells_computed
        assert (res.mode, res.tier) == ("banded", "banded")
        assert res.elapsed_s == 0.25

    def test_xdrop_runs_inline_without_a_sweep(self, similar):
        a, b = similar
        engine = FakeEngine(a, b)
        res = engine.run("xdrop", xdrop_x=30)
        assert engine.sweeps == 0
        xo = xdrop_score(a, b, DNA_DEFAULT, 30)
        assert res.best == xo.best
        assert engine.inline[0].cells_computed == xo.cells_computed
        assert (res.mode, res.tier, res.escalated) == ("xdrop", "xdrop", False)
        assert res.elapsed_s == 0.25

    def test_auto_keeps_a_confident_banded_answer(self, similar):
        engine = FakeEngine(*similar)
        registry, journal = MetricsRegistry(), EventJournal()
        res = engine.run("auto", metrics=registry, events=journal)
        assert engine.sweeps == 0 and len(engine.inline) == 1
        assert res.best.score == sw_score_naive(*similar, DNA_DEFAULT)[0]
        assert (res.mode, res.tier, res.escalated) == ("auto", "banded", False)
        assert res.elapsed_s == 0.25
        assert _counter(registry, "heuristic_hits") == 1
        assert _counter(registry, "escalations") == 0
        assert journal.count("heuristic_escalation") == 0

    def test_auto_escalates_and_sums_elapsed(self, rng):
        a, b = random_dna(300, rng=rng), random_dna(300, rng=rng)
        engine = FakeEngine(a, b)
        registry, journal = MetricsRegistry(), EventJournal()
        res = engine.run("auto", metrics=registry, events=journal)
        assert engine.sweeps == 1 and len(engine.inline) == 1
        assert (res.mode, res.tier, res.escalated) == ("auto", "exact", True)
        assert res.best.score == sw_score_naive(a, b, DNA_DEFAULT)[0]
        assert res.elapsed_s == 1.75
        assert _counter(registry, "escalations") == 1
        assert _counter(registry, "heuristic_hits") == 0
        assert journal.count("heuristic_escalation") == 1

    def test_widening_is_capped(self, rng):
        """A divergent pair saturates the band at ``MAX_WIDENING`` times
        its initial half-width and escalates, instead of widening the
        band to the full matrix."""
        a, b = random_dna(600, rng=rng), random_dna(600, rng=rng)
        engine = FakeEngine(a, b)
        journal = EventJournal()
        res = engine.run("auto", band_width=4, events=journal)
        assert res.escalated
        cells = engine.inline[0].cells_computed
        assert cells < adaptive_banded_score(a, b, DNA_DEFAULT, 4).cells_computed
        assert cells <= a.size * (2 * MAX_WIDENING * 4 + 1 + 128) \
            + 3 * 128 * (MAX_WIDENING * 4 + 128)
        reason = journal.recent()[-1]["reason"]
        assert "saturated" in reason

    def test_one_dtype_escalation_event_per_escalating_sweep(self, rng):
        a, b = random_dna(120, rng=rng), random_dna(120, rng=rng)
        journal = EventJournal()
        FakeEngine(a, b, escalations=3).run("auto", events=journal)
        assert journal.count("dtype_escalation") == 1
        journal = EventJournal()
        FakeEngine(a, b, escalations=0).run("auto", events=journal)
        assert journal.count("dtype_escalation") == 0

    def test_exact_timing_mode_needs_no_sequences(self):
        res = run_tiers(None, None, None, AlignConfig(),
                        sweep=lambda floor: FakeResult(BestCell.none(), 2.0),
                        from_inline=None, elapsed="elapsed_s", backend="fake")
        assert res.tier == "exact" and res.elapsed_s == 2.0
        assert res.floor == Floor()  # no sequences, no seed


class TestFloor:
    """Which floor the exact sweep starts from, and what the result
    records of it."""

    def test_exact_sweep_starts_at_the_seeded_floor(self, similar):
        a, b = similar
        engine = FakeEngine(a, b)
        res = engine.run("exact")
        want = seed_floor(a, b, DNA_DEFAULT)
        assert engine.floors == [want.score]
        assert (res.floor.score, res.floor.source, res.floor.anchors) == \
            (want.score, "anchor-chain", want.anchors)
        assert 0 < res.floor.score <= res.best.score
        assert res.floor.seconds >= 0.0

    def test_no_pruning_no_floor(self, similar):
        engine = FakeEngine(*similar)
        res = engine.run("exact", pruning=False)
        assert engine.floors == [0]
        assert res.floor == Floor()

    def test_heuristic_answers_carry_no_floor(self, similar):
        engine = FakeEngine(*similar)
        for mode in ("banded", "xdrop", "auto"):
            assert engine.run(mode).floor == Floor()
        assert engine.sweeps == 0

    def test_escalation_floors_at_the_better_of_band_and_seed(self, rng):
        a, b = random_dna(300, rng=rng), random_dna(300, rng=rng)
        engine = FakeEngine(a, b)
        res = engine.run("auto")
        assert res.escalated
        band = adaptive_banded_score(a, b, DNA_DEFAULT, 64,
                                     max_half_width=MAX_WIDENING * 64)
        seed = seed_floor(a, b, DNA_DEFAULT)
        assert engine.floors == [max(band.score, seed.score)]
        assert res.floor.score == max(band.score, seed.score)
        assert res.floor.source == ("band" if band.score > seed.score
                                    else "anchor-chain")
        assert res.floor.score <= res.best.score
