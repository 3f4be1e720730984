"""Block pruning — CUDAlign's optimization for similar sequences.

When two megabase sequences are highly similar, the best-so-far score grows
quickly along the main diagonal, and large off-diagonal regions of the
matrix provably cannot contain a better alignment.  The pruning criterion
bounds the final score of any alignment whose path touches a block:

    upper_bound(block) = max(border H entering the block, 0)
                       + match * min(m - row0, n - col0)

The entering border is the top row, the left column *and* the diagonal
corner ``H(row0 - 1, col0 - 1)``: a path may enter through the corner,
which can exceed every border cell beside it.  The bound holds
because a local-alignment path can gain at most ``match`` per remaining
diagonal step, it has at most ``min(m - row0, n - col0)`` diagonal steps
left counting from the block's top-left corner, and in local mode a path
can also restart at 0 inside the block.  If the bound does not exceed the
best score already found, the block is skipped entirely.

Pruned blocks emit *restart borders* (``H = 0``, gap states = -inf; see
:func:`repro.sw.blocks.pruned_border_result`): legal lower bounds of the
true cells, so downstream blocks never overestimate, and since no optimal
path crosses a pruned block the final best score is exact.

Schedule interaction: the criterion reads the *best-so-far* score, so how
much gets pruned depends on the visiting order.  The scalar row-major
executor updates best-so-far within an anti-diagonal; the batched
wavefront executor (``kernel="batched"``) decides a whole diagonal at
once, so its decisions lag by up to one diagonal and it may prune
slightly less.  Both schedules are exact — only the pruned *counts*
differ, never the score or end point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .blocks import BlockSpec


@dataclass
class BlockPruner:
    """Stateful pruning oracle used by the blocked executors.

    Attributes
    ----------
    match:
        The (positive) match score of the scheme in use — the per-diagonal
        gain bound.
    enabled:
        Allows callers to keep one code path and toggle pruning.
    """

    match: int
    enabled: bool = True
    blocks_checked: int = field(default=0, init=False)
    blocks_pruned: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.match <= 0:
            raise ConfigError("BlockPruner needs the positive match score")

    def upper_bound(
        self,
        spec: "BlockSpec",
        m: int,
        n: int,
        h_top_max: int,
        h_left_max: int,
        corner: int = 0,
    ) -> int:
        """Best final score any path through *spec* could still reach."""
        entry = max(h_top_max, h_left_max, corner, 0)
        remaining = min(m - spec.row0, n - spec.col0)
        return entry + self.match * remaining

    def should_prune(
        self,
        spec: "BlockSpec",
        m: int,
        n: int,
        h_top_max: int,
        h_left_max: int,
        best_score: int,
        corner: int = 0,
    ) -> bool:
        """True when the block provably cannot improve on *best_score*;
        *corner* is the diagonal entry ``H(row0 - 1, col0 - 1)``."""
        if not self.enabled:
            return False
        self.blocks_checked += 1
        if best_score <= 0:
            return False
        if self.upper_bound(spec, m, n, h_top_max, h_left_max,
                            corner) <= best_score:
            self.blocks_pruned += 1
            return True
        return False

    @property
    def pruned_ratio(self) -> float:
        return self.blocks_pruned / self.blocks_checked if self.blocks_checked else 0.0
