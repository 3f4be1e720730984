"""Block decomposition of the DP matrix and the blocked executor.

The paper's GPUs compute the huge SW matrix as a grid of rectangular
blocks processed in wavefront order; neighbouring blocks exchange border
vectors (bottom row downwards, right column rightwards).  This module
provides the grid geometry, the per-block compute wrapper around
:func:`repro.sw.kernel.sweep_block`, and a single-device blocked executor
that the CPU baseline and the tests use.  The multi-GPU engine in
:mod:`repro.multigpu` reuses the same block contract but distributes block
columns over devices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ..errors import ConfigError
from ..seq.scoring import Scoring
from .batched import BlockJob, KernelWorkspace, sweep_wavefront, validate_kernel
from .compiled import sweep_block_compiled
from .constants import DTYPE, NEG_INF, DpPolicy, resolve_dp_dtype
from .kernel import BestCell, BlockResult, build_profile, sweep_block
from .pruning import BlockPruner


@dataclass(frozen=True)
class BlockSpec:
    """One block: rows ``[row0, row1)`` x cols ``[col0, col1)`` (global)."""

    row0: int
    row1: int
    col0: int
    col1: int

    def __post_init__(self) -> None:
        if not (0 <= self.row0 < self.row1 and 0 <= self.col0 < self.col1):
            raise ConfigError(f"degenerate block {self!r}")

    @property
    def rows(self) -> int:
        return self.row1 - self.row0

    @property
    def cols(self) -> int:
        return self.col1 - self.col0

    @property
    def cells(self) -> int:
        return self.rows * self.cols


def grid_specs(m: int, n: int, block_rows: int, block_cols: int) -> list[list[BlockSpec]]:
    """Partition an ``m x n`` matrix into a grid of blocks.

    Returns ``specs[br][bc]``; edge blocks absorb the remainder (they are
    smaller, never larger, than the nominal size).
    """
    if m <= 0 or n <= 0:
        raise ConfigError("matrix dimensions must be positive")
    if block_rows <= 0 or block_cols <= 0:
        raise ConfigError("block dimensions must be positive")
    row_edges = list(range(0, m, block_rows)) + [m]
    col_edges = list(range(0, n, block_cols)) + [n]
    return [
        [BlockSpec(r0, r1, c0, c1) for c0, c1 in zip(col_edges, col_edges[1:])]
        for r0, r1 in zip(row_edges, row_edges[1:])
    ]


def wavefront_order(n_block_rows: int, n_block_cols: int) -> Iterator[list[tuple[int, int]]]:
    """Yield anti-diagonals of block indices: every block in one yielded
    list depends only on blocks of earlier lists (the external diagonals
    of the paper's wavefront)."""
    for d in range(n_block_rows + n_block_cols - 1):
        diag = [
            (br, d - br)
            for br in range(max(0, d - n_block_cols + 1), min(n_block_rows, d + 1))
        ]
        yield diag


@dataclass
class BlockBoundaries:
    """Input boundaries of one block (global coordinates irrelevant here)."""

    h_top: np.ndarray
    f_top: np.ndarray
    h_left: np.ndarray
    e_left: np.ndarray
    h_diag: int


def origin_boundaries(spec: BlockSpec, *, local: bool, scoring: Scoring) -> BlockBoundaries:
    """Boundaries for blocks touching the matrix's top/left edge."""
    if local:
        h_top = np.zeros(spec.cols, dtype=DTYPE)
        h_left = np.zeros(spec.rows, dtype=DTYPE)
        h_diag = 0
    else:
        j = np.arange(spec.col0 + 1, spec.col1 + 1, dtype=DTYPE)
        i = np.arange(spec.row0 + 1, spec.row1 + 1, dtype=DTYPE)
        h_top = (-scoring.gap_open - j * scoring.gap_extend).astype(DTYPE)
        h_left = (-scoring.gap_open - i * scoring.gap_extend).astype(DTYPE)
        if spec.row0 == 0 and spec.col0 == 0:
            h_diag = 0
        elif spec.row0 == 0:
            h_diag = -scoring.gap_open - spec.col0 * scoring.gap_extend
        else:
            h_diag = -scoring.gap_open - spec.row0 * scoring.gap_extend
    f_top = np.full(spec.cols, NEG_INF, dtype=DTYPE)
    e_left = np.full(spec.rows, NEG_INF, dtype=DTYPE)
    return BlockBoundaries(h_top, f_top, h_left, e_left, h_diag)


def pruned_border_result(spec: BlockSpec) -> BlockResult:
    """Borders emitted for a pruned block (local mode only).

    ``H = 0`` is a legal lower bound of every true local-mode cell, and the
    pruning criterion guarantees the optimal path does not cross the block,
    so downstream scores computed from these borders never exceed the true
    optimum and the reported best score is exact.
    """
    return BlockResult(
        h_bottom=np.zeros(spec.cols, dtype=DTYPE),
        f_bottom=np.full(spec.cols, NEG_INF, dtype=DTYPE),
        h_right=np.zeros(spec.rows, dtype=DTYPE),
        e_right=np.full(spec.rows, NEG_INF, dtype=DTYPE),
        corner=0,
        best=BestCell.none(),
    )


class SlabSweep:
    """One column slab's rolling block-row sweep, the step every chain
    device runs (simulated or real): per block row an engine asks
    :meth:`prune`, takes :meth:`restart` borders or runs :meth:`sweep`,
    then hands the result to :meth:`advance`.  It holds the slab's top
    border (*h_top*/*f_top* resume part-way down), best cell and
    counters; time, transport and tracing stay with the engine."""

    def __init__(self, config, scoring: Scoring, profile: np.ndarray,
                 col0: int, col1: int, *, m: int, n_cols: int,
                 dp: DpPolicy | None = None, scoreboard=None, slot: int = 0,
                 workspace: KernelWorkspace | None = None, instruments=None,
                 h_top: np.ndarray | None = None,
                 f_top: np.ndarray | None = None,
                 best: BestCell = BestCell.none()) -> None:
        self.kernel, self.scoring, self.profile = config.kernel, scoring, profile
        self.col0, self.col1, self.m, self.n_cols = col0, col1, m, n_cols
        self.dp = dp
        self.scoreboard, self.slot = scoreboard, slot
        if self.kernel == "batched" and workspace is None:
            workspace = KernelWorkspace()
        self.workspace, self.instruments = workspace, instruments
        w = col1 - col0
        self.h_top = np.array(np.zeros(w) if h_top is None else h_top, dtype=DTYPE)
        self.f_top = np.array(np.full(w, NEG_INF) if f_top is None else f_top,
                              dtype=DTYPE)
        self.best = best
        self.pruner = BlockPruner(match=scoring.match) if config.pruning else None
        self.blocks_narrow = self.blocks_wide = self.dtype_escalations = 0

    def prune(self, r0: int, r1: int, h_left: np.ndarray,
              corner: int) -> bool:
        """True when block row ``[r0, r1)`` needs no sweep: it cannot
        beat the chain-wide best on the *scoreboard* (pruning on)."""
        if self.pruner is None or not self.pruner.should_prune(
                BlockSpec(r0, r1, self.col0, self.col1), self.m, self.n_cols,
                int(self.h_top.max(initial=NEG_INF)),
                int(h_left.max(initial=NEG_INF)), self.scoreboard.read(),
                corner=int(corner)):
            return False
        if self.instruments is not None:
            self.instruments.block_pruned()
        return True

    def restart(self, r0: int, r1: int) -> BlockResult:
        """The restart borders a skipped block row emits."""
        return pruned_border_result(BlockSpec(r0, r1, self.col0, self.col1))

    def sweep(self, a_rows: np.ndarray, h_left: np.ndarray,
              e_left: np.ndarray, corner: int) -> BlockResult:
        """Sweep the next block row with the config's kernel, counting
        the narrow-DP outcome."""
        dp = self.dp
        if self.kernel == "batched":
            job = BlockJob(a_rows, self.profile, self.h_top, self.f_top,
                           h_left, e_left, corner)
            result = sweep_wavefront([job], self.scoring, local=True,
                                     workspace=self.workspace, dp=dp)[0]
        else:
            sweep = (sweep_block_compiled if self.kernel == "compiled"
                     else sweep_block)
            result = sweep(a_rows, self.profile, self.h_top, self.f_top,
                           h_left, e_left, corner, self.scoring, local=True,
                           dp=dp)
        if dp is not None:
            narrow, esc = int(result.dtype == dp.name), int(result.escalated)
            self.blocks_narrow += narrow
            self.blocks_wide += 1 - narrow
            self.dtype_escalations += esc
            if self.instruments is not None:
                self.instruments.block_dtype(narrow=narrow, wide=1 - narrow,
                                             escalations=esc)
        return result

    def advance(self, result: BlockResult, r0: int) -> None:
        """Roll the top border past the block row starting at *r0* and
        publish a better best cell to the chain's scoreboard."""
        self.h_top, self.f_top = result.h_bottom, result.f_bottom
        cell = result.best.shifted(r0, self.col0)
        if cell.better_than(self.best):
            self.best = cell
            if self.pruner is not None:
                self.scoreboard.publish(self.slot, cell.score)

    def counters(self) -> dict[str, int]:
        """The prune and narrow-DP counters, by result-field name."""
        return {
            "blocks_checked": self.pruner.blocks_checked if self.pruner else 0,
            "blocks_pruned": self.pruner.blocks_pruned if self.pruner else 0,
            "blocks_narrow": self.blocks_narrow,
            "blocks_wide": self.blocks_wide,
            "dtype_escalations": self.dtype_escalations,
        }


@dataclass
class BlockedOutcome:
    """Result of a blocked single-device run."""

    best: BestCell
    blocks_total: int
    blocks_pruned: int
    cells_total: int
    cells_pruned: int
    #: DP dtype policy the run resolved to, plus how many swept blocks
    #: actually computed narrow vs. wide (escalations + entry rejects);
    #: all zero under the plain int32 policy.
    dp_dtype: str = "int32"
    blocks_narrow: int = 0
    blocks_wide: int = 0
    dtype_escalations: int = 0

    @property
    def pruned_fraction(self) -> float:
        return self.cells_pruned / self.cells_total if self.cells_total else 0.0


def _edge_diag(spec: BlockSpec, *, local: bool, scoring: Scoring) -> int:
    """``h_diag`` for a block touching the top or left matrix edge when
    the *other* boundary comes from a computed neighbour."""
    if local:
        return 0
    offset = spec.col0 if spec.row0 == 0 else spec.row0
    return -scoring.gap_open - offset * scoring.gap_extend


def compute_blocked(
    a_codes: np.ndarray,
    b_codes: np.ndarray,
    scoring: Scoring,
    *,
    block_rows: int = 512,
    block_cols: int = 512,
    local: bool = True,
    pruner: BlockPruner | None = None,
    kernel: str = "scalar",
    workspace: KernelWorkspace | None = None,
    dp_dtype: str | DpPolicy = "auto",
) -> BlockedOutcome:
    """Compute the whole matrix block-by-block on one device.

    Produces exactly the same best cell as a monolithic
    :func:`repro.sw.kernel.sw_score` sweep (tested cell-exactly); with a
    *pruner* (local mode only), blocks that provably cannot influence the
    optimum are skipped and replaced by :func:`pruned_border_result`.

    ``kernel="scalar"`` sweeps blocks one at a time in row-major order;
    ``kernel="batched"`` walks the grid in wavefront order and executes
    every surviving block of an anti-diagonal in one stacked
    :func:`~repro.sw.batched.sweep_wavefront` call (same scores, end
    points, and borders — pruning *decisions* may differ because the
    batched schedule sees best-so-far updates one diagonal later).  A
    caller-supplied *workspace* lets repeated batched runs share scratch.
    ``kernel="compiled"`` runs the scalar schedule with the jitted fused
    sweep (:func:`~repro.sw.compiled.sweep_block_compiled`) per block —
    identical pruning decisions to scalar, JIT speed (or the scalar
    sweep itself where numba is absent).

    ``dp_dtype`` selects the kernels' internal compute dtype (``"auto"``,
    a name from :data:`~repro.sw.constants.DP_DTYPE_CHOICES`, or a
    pre-resolved :class:`~repro.sw.constants.DpPolicy`); narrow sweeps
    escalate to int32 on overflow, so the outcome is always bit-identical
    to the wide run, with the narrow/wide/escalation split reported on
    the :class:`BlockedOutcome`.
    """
    if pruner is not None and not local:
        raise ConfigError("block pruning applies to local alignment only")
    validate_kernel(kernel)
    m, n = int(a_codes.size), int(b_codes.size)
    if isinstance(dp_dtype, DpPolicy):
        policy = dp_dtype
    else:
        policy = resolve_dp_dtype(dp_dtype, scoring, block_cols=block_cols,
                                  m=m, n=n, local=local)
    dp = policy if policy.narrow else None
    specs = grid_specs(m, n, block_rows, block_cols)
    profile_full = build_profile(b_codes, scoring)
    if kernel == "batched":
        return _compute_blocked_wavefront(
            a_codes, profile_full, scoring, specs, m, n,
            local=local, pruner=pruner, workspace=workspace,
            dp=dp, dp_name=policy.name)
    # "compiled" shares the scalar rolling-border schedule (so pruning
    # decisions match the scalar kernel block-for-block) with the jitted
    # sweep swapped in per block.
    sweep_fn = sweep_block_compiled if kernel == "compiled" else sweep_block
    n_brows, n_bcols = len(specs), len(specs[0])

    # Rolling borders: bottom borders of the previous block row (per block
    # column) and right borders of the previous block column (per block row).
    bottom: list[tuple[np.ndarray, np.ndarray] | None] = [None] * n_bcols
    right: tuple[np.ndarray, np.ndarray] | None = None
    # corner[bc] = H at (row above current block row, last col of block bc-1)
    corners = [0] * (n_bcols + 1)

    best = BestCell.none()
    blocks_pruned = 0
    cells_pruned = 0
    blocks_narrow = 0
    blocks_wide = 0
    escalations = 0
    for br in range(n_brows):
        right = None
        row_corner_updates = [0] * (n_bcols + 1)
        for bc in range(n_bcols):
            spec = specs[br][bc]
            if br == 0 or bc == 0:
                # Only edge blocks keep any origin border; interior blocks
                # overwrite all four, so skip the allocations entirely.
                bnd = origin_boundaries(spec, local=local, scoring=scoring)
                if br > 0:
                    bnd.h_top, bnd.f_top = bottom[bc]  # type: ignore[misc]
                    bnd.h_diag = _edge_diag(spec, local=local, scoring=scoring)
                elif bc > 0:
                    bnd.h_left, bnd.e_left = right  # type: ignore[misc]
                    bnd.h_diag = _edge_diag(spec, local=local, scoring=scoring)
            else:
                h_top, f_top = bottom[bc]  # type: ignore[misc]
                h_left, e_left = right  # type: ignore[misc]
                bnd = BlockBoundaries(h_top, f_top, h_left, e_left, corners[bc])

            if pruner is not None and pruner.should_prune(
                spec,
                m,
                n,
                int(bnd.h_top.max(initial=NEG_INF)),
                int(bnd.h_left.max(initial=NEG_INF)),
                best.score if best.row >= 0 else 0,
                corner=int(bnd.h_diag),
            ):
                result = pruned_border_result(spec)
                blocks_pruned += 1
                cells_pruned += spec.cells
            else:
                result = sweep_fn(
                    a_codes[spec.row0 : spec.row1],
                    profile_full[:, spec.col0 : spec.col1],
                    bnd.h_top,
                    bnd.f_top,
                    bnd.h_left,
                    bnd.e_left,
                    bnd.h_diag,
                    scoring,
                    local=local,
                    dp=dp,
                )
                if dp is not None:
                    if result.dtype == dp.name:
                        blocks_narrow += 1
                    else:
                        blocks_wide += 1
                    if result.escalated:
                        escalations += 1
                cell = result.best.shifted(spec.row0, spec.col0)
                if cell.better_than(best):
                    best = cell

            bottom[bc] = (result.h_bottom, result.f_bottom)
            right = (result.h_right, result.e_right)
            # The corner for block (br+1, bc+1) is H at (spec.row1-1,
            # spec.col1-1) == result.corner.
            row_corner_updates[bc + 1] = result.corner
        corners = row_corner_updates

    total_blocks = n_brows * n_bcols
    return BlockedOutcome(
        best=best,
        blocks_total=total_blocks,
        blocks_pruned=blocks_pruned,
        cells_total=m * n,
        cells_pruned=cells_pruned,
        dp_dtype=policy.name,
        blocks_narrow=blocks_narrow,
        blocks_wide=blocks_wide,
        dtype_escalations=escalations,
    )


def _store_borders(
    br: int,
    bc: int,
    result: BlockResult,
    n_brows: int,
    n_bcols: int,
    bottom: dict,
    right: dict,
    corner: dict,
) -> None:
    """File one block's output borders for its downstream neighbours
    (skipping matrix-edge destinations that will never consume them)."""
    if br + 1 < n_brows:
        bottom[(br + 1, bc)] = (result.h_bottom, result.f_bottom)
    if bc + 1 < n_bcols:
        right[(br, bc + 1)] = (result.h_right, result.e_right)
    if br + 1 < n_brows and bc + 1 < n_bcols:
        corner[(br + 1, bc + 1)] = result.corner


def _compute_blocked_wavefront(
    a_codes: np.ndarray,
    profile_full: np.ndarray,
    scoring: Scoring,
    specs: list[list[BlockSpec]],
    m: int,
    n: int,
    *,
    local: bool,
    pruner: BlockPruner | None,
    workspace: KernelWorkspace | None,
    dp: DpPolicy | None = None,
    dp_name: str = "int32",
) -> BlockedOutcome:
    """Wavefront executor: one batched sweep per external anti-diagonal.

    Borders are keyed per block and popped as they are consumed, so the
    resident set stays one wavefront deep — the same O(m + n) border
    memory as the rolling scalar schedule.
    """
    n_brows, n_bcols = len(specs), len(specs[0])
    ws = workspace if workspace is not None else KernelWorkspace()

    bottom: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
    right: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
    corner: dict[tuple[int, int], int] = {}

    best = BestCell.none()
    blocks_pruned = 0
    cells_pruned = 0
    blocks_narrow = 0
    blocks_wide = 0
    escalations = 0
    for diag in wavefront_order(n_brows, n_bcols):
        jobs: list[BlockJob] = []
        placed: list[tuple[int, int, BlockSpec]] = []
        for br, bc in diag:
            spec = specs[br][bc]
            if br == 0 or bc == 0:
                bnd = origin_boundaries(spec, local=local, scoring=scoring)
                if br > 0:
                    bnd.h_top, bnd.f_top = bottom.pop((br, bc))
                    bnd.h_diag = _edge_diag(spec, local=local, scoring=scoring)
                elif bc > 0:
                    bnd.h_left, bnd.e_left = right.pop((br, bc))
                    bnd.h_diag = _edge_diag(spec, local=local, scoring=scoring)
            else:
                h_top, f_top = bottom.pop((br, bc))
                h_left, e_left = right.pop((br, bc))
                bnd = BlockBoundaries(h_top, f_top, h_left, e_left,
                                      corner.pop((br, bc)))

            if pruner is not None and pruner.should_prune(
                spec,
                m,
                n,
                int(bnd.h_top.max(initial=NEG_INF)),
                int(bnd.h_left.max(initial=NEG_INF)),
                best.score if best.row >= 0 else 0,
                corner=int(bnd.h_diag),
            ):
                # Pruned blocks drop out of the batch: their restart
                # borders are constant, no sweep lane needed.
                result = pruned_border_result(spec)
                blocks_pruned += 1
                cells_pruned += spec.cells
                _store_borders(br, bc, result, n_brows, n_bcols,
                               bottom, right, corner)
                continue

            jobs.append(BlockJob(
                a_codes=a_codes[spec.row0 : spec.row1],
                profile=profile_full[:, spec.col0 : spec.col1],
                h_top=bnd.h_top,
                f_top=bnd.f_top,
                h_left=bnd.h_left,
                e_left=bnd.e_left,
                h_diag=bnd.h_diag,
            ))
            placed.append((br, bc, spec))

        for (br, bc, spec), result in zip(placed, sweep_wavefront(
                jobs, scoring, local=local, workspace=ws, dp=dp)):
            if dp is not None:
                if result.dtype == dp.name:
                    blocks_narrow += 1
                else:
                    blocks_wide += 1
                if result.escalated:
                    escalations += 1
            cell = result.best.shifted(spec.row0, spec.col0)
            if cell.better_than(best):
                best = cell
            _store_borders(br, bc, result, n_brows, n_bcols,
                           bottom, right, corner)

    return BlockedOutcome(
        best=best,
        blocks_total=n_brows * n_bcols,
        blocks_pruned=blocks_pruned,
        cells_total=m * n,
        cells_pruned=cells_pruned,
        dp_dtype=dp_name,
        blocks_narrow=blocks_narrow,
        blocks_wide=blocks_wide,
        dtype_escalations=escalations,
    )
