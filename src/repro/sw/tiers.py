"""The tier front door: one ``mode`` dispatch shared by every engine.

Each engine supplies one sweep — the full matrix, or only the blocks
meeting the static band ``|j - i| <= band_half_width`` — and
:func:`run_tiers` builds the modes on it: ``exact`` and ``banded`` are
one sweep each, ``xdrop`` runs :func:`~repro.sw.xdrop.xdrop_score`
inline, and ``auto`` sweeps banded, then escalates to exact when
:func:`~repro.sw.xdrop.assess_heuristic` rejects the answer.  The
journal records, auto-outcome counters, summed tier time and the
``mode``/``tier``/``escalated`` stamps live here too (INTERNALS.md
section 10).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, TypeVar

import numpy as np

from ..errors import ConfigError
from ..obs.instruments import record_heuristic
from ..seq.scoring import Scoring
from .xdrop import XDropOutcome, assess_heuristic, validate_mode, xdrop_score

#: Modes an engine sweep answers (``xdrop`` runs inline instead).
SWEPT_MODES = ("exact", "banded", "auto")
#: Modes swept under the static band, so ``band_width`` names their answer.
BANDED_MODES = ("banded", "auto")

R = TypeVar("R")


def validate_tiers(mode: str, band_width: int, xdrop_x: int) -> None:
    """Refuse an unknown *mode* or an unusable band / X-drop knob."""
    validate_mode(mode)
    if band_width < 0:
        raise ConfigError("band_width must be >= 0")
    if xdrop_x <= 0:
        raise ConfigError("xdrop_x must be positive")


def run_tiers(
    a_codes: np.ndarray | None,
    b_codes: np.ndarray | None,
    scoring: Scoring | None,
    *,
    mode: str,
    band_width: int,
    xdrop_x: int,
    sweep: Callable[[int | None], R],
    from_xdrop: Callable[[XDropOutcome], R],
    elapsed: str,
    backend: str,
    metrics=None,
    events=None,
) -> R:
    """Answer one comparison in *mode* through an engine's *sweep*.

    *sweep* maps ``band_half_width`` (``None``: full matrix) to the
    engine's result; *from_xdrop* wraps an X-drop outcome in that type;
    *elapsed* names its time field (virtual ``total_time_s`` or wall
    ``wall_time_s``), summed when auto escalates.  Every swept tier whose
    narrow DP kernel escalated journals one ``dtype_escalation``.  Only
    xdrop and auto read the sequences, so an exact timing-mode caller may
    pass ``None``.
    """
    if mode == "xdrop":
        xo = xdrop_score(a_codes, b_codes, scoring, xdrop_x)
        return replace(from_xdrop(xo), mode=mode, tier=mode, escalated=False)

    def swept(band_half_width: int | None) -> R:
        res = sweep(band_half_width)
        if events is not None and res.dtype_escalations > 0:
            events.emit("dtype_escalation", dp_dtype=res.dp_dtype,
                        escalations=res.dtype_escalations,
                        blocks_narrow=res.blocks_narrow,
                        blocks_wide=res.blocks_wide)
        return res

    if mode != "auto":
        band = band_width if mode == "banded" else None
        return replace(swept(band), mode=mode, tier=mode, escalated=False)

    heur = swept(band_width)
    decision = assess_heuristic(heur.best, int(a_codes.size),
                                int(b_codes.size), scoring,
                                band_half_width=band_width)
    if decision.confident:
        result = replace(heur, mode=mode, tier="banded", escalated=False)
    else:
        if events is not None:
            events.emit("heuristic_escalation", tier="exact",
                        heur_score=int(heur.best.score),
                        band_width=band_width,
                        reason="confidence check rejected the banded score")
        exact = swept(None)
        result = replace(
            exact, mode=mode, tier="exact", escalated=True,
            **{elapsed: getattr(heur, elapsed) + getattr(exact, elapsed)})
    if metrics is not None:
        record_heuristic(metrics, backend=backend, tier=result.tier,
                         escalated=result.escalated)
    return result
