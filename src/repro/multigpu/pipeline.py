"""End-to-end convenience: distributed score pass + exact traceback.

The paper's system runs stage 1 (the score pass, >99% of the work at
megabase scale) across the GPU chain, then retrieves the alignment with
the cheaper host-side stages.  :func:`align_and_trace` packages that flow:

1. stage 1 on the simulated multi-GPU chain (exact score + end point,
   virtual-clock GCUPS),
2. the host traceback :func:`~repro.sw.stages.align_local` (its own
   stage 1 with special rows, the anchored reverse pass, crossing-point
   partitioned Myers-Miller), validated by re-scoring,
3. a cross-check that the alignment's score and end cell equal the
   engine's best cell — any divergence raises, because it would mean a
   border-exchange bug.

``mgsw align --trace`` runs the same traceback and check
(:func:`trace_best`) against either backend's result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..errors import AlignmentError, ConfigError
from ..seq.scoring import Scoring
from ..sw.alignment import Alignment
from ..sw.kernel import BestCell
from ..sw.stages import align_local

if TYPE_CHECKING:  # the simulated chain loads only when it runs
    from ..device.spec import DeviceSpec
    from .chain import ChainConfig, ChainResult


@dataclass(frozen=True)
class TracedResult:
    """Distributed score run plus the reconstructed alignment."""

    chain: ChainResult
    alignment: Alignment

    @property
    def score(self) -> int:
        return self.chain.score

    @property
    def gcups(self) -> float:
        return self.chain.gcups


def require_exact(mode: str) -> None:
    """Refuse a traceback of a heuristic tier: the traceback is exact, so
    its alignment could disagree with the score the tier reports."""
    if mode != "exact":
        raise ConfigError(
            f"tracing needs mode 'exact', got {mode!r}: the traceback is "
            "exact and may not match a heuristic tier's score")


def trace_best(
    a_codes: np.ndarray,
    b_codes: np.ndarray,
    scoring: Scoring,
    best: BestCell,
    *,
    special_interval: int = 512,
) -> Alignment:
    """Host traceback of an engine's positive best cell, cross-checked:
    the alignment must score ``best.score`` and end at its cell."""
    alignment = align_local(a_codes, b_codes, scoring,
                            special_interval=special_interval)
    traced = (alignment.score, alignment.end_i - 1, alignment.end_j - 1)
    if traced != (best.score, best.row, best.col):
        raise AlignmentError(
            f"engine and traceback disagree: engine=({best.score}, "
            f"{best.row}, {best.col}) traceback={traced}")
    return alignment


def align_and_trace(
    a_codes: np.ndarray,
    b_codes: np.ndarray,
    scoring: Scoring,
    devices: Sequence[DeviceSpec],
    *,
    config: ChainConfig | None = None,
    special_interval: int = 512,
) -> TracedResult:
    """Run the full pipeline (see module docstring).

    ``special_interval`` is :func:`~repro.sw.stages.align_local`'s: ``0``
    traces monolithically.  A heuristic ``config.mode`` is refused with
    :class:`~repro.errors.ConfigError` before the chain runs.
    """
    from .chain import MatrixWorkload, MultiGpuChain

    if config is not None:
        require_exact(config.mode)
    chain = MultiGpuChain(devices, config=config)
    chain_result = chain.run(MatrixWorkload(a_codes, b_codes, scoring))

    if chain_result.score <= 0:
        empty = Alignment(score=0, ops="", start_i=0, end_i=0, start_j=0, end_j=0)
        return TracedResult(chain=chain_result, alignment=empty)
    alignment = trace_best(a_codes, b_codes, scoring, chain_result.best,
                           special_interval=special_interval)
    return TracedResult(chain=chain_result, alignment=alignment)
