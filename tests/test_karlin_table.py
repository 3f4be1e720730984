"""The committed Karlin-Altschul K table equals its live Monte-Carlo fit.

The ``mode="auto"`` confidence check reads K for the shipped scoring
presets from :data:`repro.sw.xdrop.KARLIN_K` instead of fitting it in
every fresh process.  Each entry must be exactly the float the fit
returns, so every significance threshold — and every escalation
decision — is bit-identical to the fitted one.
"""

from __future__ import annotations

import pytest

from repro.seq import DNA_DEFAULT, LINEAR_GAPS, Scoring
from repro.stats import dna_statistics, estimate_k, solve_lambda
from repro.stats.karlin import UNIFORM_DNA
from repro.sw.xdrop import (K_SAMPLES, KARLIN_K, _cached_statistics,
                            significance_threshold)


def _key(scoring: Scoring) -> tuple[int, int, int, int]:
    return (int(scoring.match), int(scoring.mismatch),
            int(scoring.gap_open), int(scoring.gap_extend))


@pytest.mark.parametrize("key", sorted(KARLIN_K))
def test_entry_equals_the_live_fit(key):
    match, mismatch, gap_open, gap_extend = key
    scoring = Scoring(match=match, mismatch=mismatch, gap_open=gap_open,
                      gap_extend=gap_extend)
    lam = solve_lambda(scoring.matrix[:4, :4], UNIFORM_DNA, UNIFORM_DNA)
    assert estimate_k(scoring, lam, samples=K_SAMPLES, seed=0) == KARLIN_K[key]
    assert _cached_statistics(*key) == dna_statistics(scoring,
                                                      k_samples=K_SAMPLES)


def test_the_default_preset_is_in_the_table():
    assert _key(DNA_DEFAULT) in KARLIN_K


def test_linear_gaps_has_no_statistics():
    assert _key(LINEAR_GAPS) not in KARLIN_K
    assert significance_threshold(LINEAR_GAPS, 1000, 1000) is None


def test_an_unknown_scheme_keeps_the_monte_carlo_fit():
    scoring = Scoring(match=2, mismatch=-3, gap_open=5, gap_extend=2)
    assert _key(scoring) not in KARLIN_K
    assert _cached_statistics(*_key(scoring)) == \
        dna_statistics(scoring, k_samples=K_SAMPLES)
