"""The tier front door: one ``mode`` dispatch shared by every engine.

Each engine supplies one exact sweep of the full matrix, and
:func:`run_tiers` builds the modes on it: ``exact`` is that sweep;
``banded`` and ``xdrop`` run inline in the calling process
(:func:`~repro.sw.xdrop.adaptive_banded_score`,
:func:`~repro.sw.xdrop.xdrop_score`); ``auto`` runs the band inline,
then escalates to the exact sweep when
:func:`~repro.sw.xdrop.assess_heuristic` rejects the answer.  The
journal records, auto-outcome counters, summed tier time and the
``mode``/``tier``/``escalated`` stamps live here too (INTERNALS.md
section 10).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable, TypeVar

import numpy as np

from ..errors import ConfigError
from ..obs.instruments import record_heuristic
from ..seq.scoring import Scoring
from .kernel import BestCell
from .xdrop import (adaptive_banded_score, assess_heuristic, validate_mode,
                    xdrop_score)

#: Modes answered inline in the calling process, with no engine sweep.
INLINE_MODES = ("banded", "xdrop")
#: Modes whose answer the band names, so ``band_width`` keys it.
BANDED_MODES = ("banded", "auto")
#: The adaptive band widens up to this many times its initial
#: half-width, so a divergent pair saturates (and ``auto`` escalates)
#: after a few percent of the matrix instead of widening to full width.
MAX_WIDENING = 8

R = TypeVar("R")


@dataclass(frozen=True)
class InlineOutcome:
    """One heuristic sweep run in the calling process: its best cell,
    the DP cells it evaluated, and when (``perf_counter``) and for how
    long it ran."""

    best: BestCell
    cells_computed: int
    started: float
    wall_s: float


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
    sweep: Callable[[], R],
    from_inline: Callable[[InlineOutcome], R],
    elapsed: str,
    backend: str,
    metrics=None,
    events=None,
) -> R:
    """Answer one comparison in *mode* through an engine's *sweep*.

    *sweep* runs the engine's exact sweep; *from_inline* wraps an inline
    X-drop or band outcome in the engine's result type; *elapsed* names
    its time field (virtual ``total_time_s`` or wall ``wall_time_s``),
    summed when auto escalates.  An exact sweep whose narrow DP kernel
    escalated journals one ``dtype_escalation``.  Only the heuristic
    modes read the sequences, so an exact timing-mode caller may pass
    ``None``.
    """
    if mode == "exact":
        return replace(_swept(sweep, events), mode=mode, tier=mode,
                       escalated=False)
    started = time.perf_counter()
    if mode == "xdrop":
        out = xdrop_score(a_codes, b_codes, scoring, xdrop_x)
    else:
        out = adaptive_banded_score(a_codes, b_codes, scoring, band_width,
                                    max_half_width=MAX_WIDENING * band_width)
    heur = from_inline(InlineOutcome(out.best, out.cells_computed, started,
                                     time.perf_counter() - started))
    if mode in INLINE_MODES:
        return replace(heur, mode=mode, tier=mode, escalated=False)

    decision = assess_heuristic(out.best, int(a_codes.size),
                                int(b_codes.size), scoring,
                                saturated=out.saturated)
    if decision.confident:
        result = replace(heur, mode=mode, tier="banded", escalated=False)
    else:
        if events is not None:
            events.emit("heuristic_escalation", tier="exact",
                        heur_score=int(out.score), band_width=band_width,
                        reason="; ".join(decision.reasons))
        exact = _swept(sweep, events)
        result = replace(
            exact, mode=mode, tier="exact", escalated=True,
            **{elapsed: getattr(heur, elapsed) + getattr(exact, elapsed)})
    if metrics is not None:
        record_heuristic(metrics, backend=backend, tier=result.tier,
                         escalated=result.escalated)
    return result


def _swept(sweep: Callable[[], R], events) -> R:
    res = sweep()
    if events is not None and res.dtype_escalations > 0:
        events.emit("dtype_escalation", dp_dtype=res.dp_dtype,
                    escalations=res.dtype_escalations,
                    blocks_narrow=res.blocks_narrow,
                    blocks_wide=res.blocks_wide)
    return res
