"""The tier front door: one ``mode`` dispatch shared by every engine.

Each engine supplies one exact sweep of the full matrix, and
:func:`run_tiers` builds the modes on it: ``exact`` is that sweep,
its pruning scoreboard started at a seeded floor
(:func:`~repro.sw.pruning.seed_floor`) when pruning is on;
``banded`` and ``xdrop`` run inline in the calling process
(:func:`~repro.sw.xdrop.adaptive_banded_score`,
:func:`~repro.sw.xdrop.xdrop_score`); ``auto`` runs the band inline,
then escalates to the exact sweep when
:func:`~repro.sw.xdrop.assess_heuristic` rejects the answer, floored at
the better of the band's score and the seed.  The
journal records, auto-outcome counters, summed tier time and the
``mode``/``tier``/``escalated`` stamps live here too (INTERNALS.md
section 10), and so do the fields every engine's result shares:
:class:`SweepTally`, the sweep counters, and :class:`RunResult`, the
answer (INTERNALS.md section 15).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields, replace
from typing import TYPE_CHECKING, Callable, TypeVar

import numpy as np

from ..errors import ConfigError
from ..obs.instruments import record_heuristic
from ..seq.scoring import Scoring
from .kernel import BestCell
from .pruning import Floor, seed_floor
from .xdrop import (adaptive_banded_score, assess_heuristic, validate_mode,
                    xdrop_score)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .config import AlignConfig

#: Modes answered inline in the calling process, with no engine sweep.
INLINE_MODES = ("banded", "xdrop")
#: Modes whose answer the band names, so ``band_width`` keys it.
BANDED_MODES = ("banded", "auto")
#: The adaptive band widens up to this many times its initial
#: half-width, so a divergent pair saturates (and ``auto`` escalates)
#: after a few percent of the matrix instead of widening to full width.
MAX_WIDENING = 8

#: An engine's result type.
R = TypeVar("R", bound="RunResult")


@dataclass(frozen=True, kw_only=True)
class SweepTally:
    """The counters of an exact sweep, summed with ``+`` over slabs,
    devices and attempts.

    ``blocks_checked``/``blocks_pruned`` are the whole-block (or whole
    slab-row) pruning decisions, ``cells_swept`` the DP cells the
    sweeps computed, and ``blocks_narrow``/``blocks_wide``/
    ``dtype_escalations`` the narrow-DP split of the swept blocks (all
    zero under the plain int32 policy).
    """

    blocks_checked: int = 0
    blocks_pruned: int = 0
    cells_swept: int = 0
    blocks_narrow: int = 0
    blocks_wide: int = 0
    dtype_escalations: int = 0

    def __add__(self, other: "SweepTally") -> "SweepTally":
        return SweepTally(**{f.name: getattr(self, f.name)
                             + getattr(other, f.name)
                             for f in fields(SweepTally)})

    @property
    def tally(self) -> "SweepTally":
        """The counters alone (a :class:`RunResult` projected down)."""
        return SweepTally(**{f.name: getattr(self, f.name)
                             for f in fields(SweepTally)})


@dataclass(frozen=True, kw_only=True)
class RunResult(SweepTally):
    """What every engine answers: the best cell over a matrix of
    ``cells`` cells, the sweep's counters, and the stamps
    :func:`run_tiers` sets.  Each engine's result class derives from it
    and adds only its own fields (clock, partition, trace, recovery).

    ``mode`` is the requested tier, ``tier`` the one that produced the
    score, and ``escalated`` whether ``mode="auto"`` fell back to exact.
    ``dp_dtype`` is the DP dtype policy the run resolved to (``int32``
    on timing-mode runs and inline tiers), and ``floor`` where the exact
    sweep's pruning scoreboard started.
    """

    best: BestCell
    cells: int
    mode: str = "exact"
    tier: str = "exact"
    escalated: bool = False
    dp_dtype: str = "int32"
    floor: Floor = Floor()

    @property
    def score(self) -> int:
        return self.best.score if self.best.row >= 0 else 0

    @property
    def pruned_ratio(self) -> float:
        """Fraction of the pruning decisions that pruned."""
        return (self.blocks_pruned / self.blocks_checked
                if self.blocks_checked else 0.0)


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
    config: "AlignConfig",
    *,
    sweep: Callable[[int], R],
    from_inline: Callable[[InlineOutcome], R],
    elapsed: str,
    backend: str,
    metrics=None,
    events=None,
) -> R:
    """Answer one comparison in ``config.mode`` through an engine's *sweep*.

    ``sweep(floor)`` runs the engine's exact sweep with its pruning
    scoreboard starting at *floor*, the score of a real alignment (0
    without pruning); the result records the :class:`~repro.sw.pruning.Floor`
    in its ``floor`` field.  *from_inline* wraps an inline X-drop or
    band outcome in the engine's result type; *elapsed* names its time
    field (virtual ``total_time_s`` or wall ``wall_time_s``), summed
    when auto escalates.  An exact sweep whose narrow DP kernel
    escalated journals one ``dtype_escalation``.  Only the heuristic
    modes and the seed read the sequences, so an exact timing-mode
    caller may pass ``None``.
    """
    mode = config.mode
    if mode == "exact":
        return replace(_swept(sweep, _seed(a_codes, b_codes, scoring, config),
                              events),
                       mode=mode, tier=mode, escalated=False)
    started = time.perf_counter()
    if mode == "xdrop":
        out = xdrop_score(a_codes, b_codes, scoring, config.xdrop_x)
    else:
        out = adaptive_banded_score(
            a_codes, b_codes, scoring, config.band_width,
            max_half_width=MAX_WIDENING * config.band_width,
            kernel=config.kernel)
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
                        heur_score=int(out.score),
                        band_width=config.band_width,
                        reason="; ".join(decision.reasons))
        floor = _seed(a_codes, b_codes, scoring, config)
        if config.pruning and out.score > floor.score:
            # The band's best cell is a real alignment too.
            floor = replace(floor, score=int(out.score), source="band")
        exact = _swept(sweep, floor, events)
        result = replace(
            exact, mode=mode, tier="exact", escalated=True,
            **{elapsed: getattr(heur, elapsed) + getattr(exact, elapsed)})
    if metrics is not None:
        record_heuristic(metrics, backend=backend, tier=result.tier,
                         escalated=result.escalated)
    return result


def _seed(a_codes, b_codes, scoring, config) -> Floor:
    """The exact sweep's floor: seeded under pruning when the sequences
    are at hand, else none."""
    if not config.pruning or a_codes is None:
        return Floor()
    return seed_floor(a_codes, b_codes, scoring)


def _swept(sweep: Callable[[int], R], floor: Floor, events) -> R:
    res = replace(sweep(floor.score), floor=floor)
    if events is not None and res.dtype_escalations > 0:
        events.emit("dtype_escalation", dp_dtype=res.dp_dtype,
                    escalations=res.dtype_escalations,
                    blocks_narrow=res.blocks_narrow,
                    blocks_wide=res.blocks_wide)
    return res
