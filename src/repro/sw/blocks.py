"""Block decomposition of the DP matrix and the blocked executor.

The paper's GPUs compute the huge SW matrix as a grid of rectangular
blocks processed in wavefront order; neighbouring blocks exchange border
vectors (bottom row downwards, right column rightwards).  This module
provides the grid geometry, the one block-row step every engine runs
(:class:`SlabSweep`: a column slab swept in block rows, handing its right
border to the next slab), and the single-device blocked executor
:func:`compute_blocked`, which treats each block column of its grid as
such a slab.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Iterator, Sequence

import numpy as np

from ..comm.scoreboard import LocalScoreboard
from ..errors import ConfigError
from ..seq.scoring import Scoring
from .backend import validate_kernel
from .batched import BlockJob, KernelWorkspace, sweep_wavefront
from .compiled import block_sweeper
from .config import AlignConfig
from .constants import DTYPE, NEG_INF, DpPolicy, resolve_dp_dtype
from .kernel import BestCell, BlockResult, LiveWindow, build_profile
from .pruning import BlockPruner
from .tiers import SweepTally


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


@dataclass(frozen=True)
class RowState:
    """The DP state at a matrix-row boundary, the one state every resume
    carries: rows ``[0, row)`` are done, *h_row*/*f_row* are H and F of
    row ``row - 1`` across the columns the state covers (``None`` in a
    timing-mode run), *best* is the best cell so far and the counters
    are the prune decisions made so far.  *elapsed_s* is the simulated
    chain's virtual time spent so far.

    :meth:`slice` cuts a full-width state to one slab and :meth:`join`
    puts slab states back together.  The whole-row fields (best cell,
    counters, time) ride on the slab that starts at column 0, so the
    join of a state's slices is the state again.
    """

    row: int
    h_row: np.ndarray | None
    f_row: np.ndarray | None
    best: BestCell = BestCell.none()
    blocks_checked: int = 0
    blocks_pruned: int = 0
    elapsed_s: float = 0.0

    def __post_init__(self) -> None:
        if self.row <= 0:
            raise ConfigError("checkpoint row must be positive")
        if (self.h_row is None) != (self.f_row is None):
            raise ConfigError("h_row and f_row must both be present or absent")
        if self.elapsed_s < 0:
            raise ConfigError("elapsed_s must be >= 0")

    @property
    def phantom(self) -> bool:
        """True for timing-mode states (no DP values carried)."""
        return self.h_row is None

    def slice(self, col0: int, col1: int) -> "RowState":
        """The state of the slab over columns ``[col0, col1)`` (compute
        mode: H/F are views of this state's)."""
        cut = replace(self, h_row=self.h_row[col0:col1],
                      f_row=self.f_row[col0:col1])
        return cut if col0 == 0 else RowState(cut.row, cut.h_row, cut.f_row)

    @staticmethod
    def join(parts: Sequence["RowState"]) -> "RowState":
        """The state across *parts*, adjacent slab states of one row
        given left to right."""
        if len({p.row for p in parts}) != 1:
            raise ConfigError("joined slab states must share one row")
        return RowState(
            parts[0].row, np.concatenate([p.h_row for p in parts]),
            np.concatenate([p.f_row for p in parts]),
            BestCell.best_of(p.best for p in parts),
            sum(p.blocks_checked for p in parts),
            sum(p.blocks_pruned for p in parts),
            max(p.elapsed_s for p in parts))


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
        live=(0, 0),
    )


class SlabSweep:
    """One column slab's rolling block-row sweep, the step every chain
    device runs (simulated or real): per block row an engine runs
    :meth:`step`, then hands the result to :meth:`advance`, which
    returns the right border for the next slab.  With pruning, the step
    asks :meth:`prune` whether the whole row can be skipped, then takes
    :meth:`restart` borders or runs one :meth:`sweep` over the row's
    live window (:class:`~repro.sw.kernel.LiveWindow`).  The
    single-device :func:`compute_blocked` calls those three per block of
    its caller's grid instead, without windows; stacking several slabs'
    block rows into one batched sweep, it builds each with :meth:`job`
    and counts each result with :meth:`count`.  The sweep holds the
    slab's :class:`RowState` in parts: the row its top border closes, the
    top border itself, its live hull, best cell and counters
    (:meth:`tally`); :meth:`state` reads them back, and a *resume* state
    (the slab's slice) starts the sweep part-way down.  Time, transport
    and tracing stay with the engine."""

    def __init__(self, config, scoring: Scoring, profile: np.ndarray,
                 col0: int, col1: int, *, m: int, n_cols: int,
                 dp: DpPolicy | None = None, scoreboard=None, slot: int = 0,
                 instruments=None, resume: RowState | None = None) -> None:
        self.kernel, self.scoring, self.profile = config.kernel, scoring, profile
        self.col0, self.col1, self.m, self.n_cols = col0, col1, m, n_cols
        self.dp = dp
        self.scoreboard, self.slot = scoreboard, slot
        self.instruments = instruments
        w = col1 - col0
        self.pruner = BlockPruner(match=scoring.match) if config.pruning else None
        if resume is None:
            self.row, self.best = 0, BestCell.none()
            self.h_top = np.zeros(w, dtype=DTYPE)
            self.f_top = np.full(w, NEG_INF, dtype=DTYPE)
            self.live = (0, 0)
        else:
            self.row, self.best = resume.row, resume.best
            self.h_top = np.array(resume.h_row, dtype=DTYPE)
            self.f_top = np.array(resume.f_row, dtype=DTYPE)
            # The top border holds restart values outside these columns.
            self.live = (0, w)
            if self.pruner is not None:
                self.pruner.blocks_checked = resume.blocks_checked
                self.pruner.blocks_pruned = resume.blocks_pruned
        # H(r0 - 1, col1 - 1) of the next block row: the corner the right
        # neighbour's block enters through.
        self.corner_out = int(self.h_top[-1])
        self.blocks_narrow = self.blocks_wide = self.dtype_escalations = 0
        self.cells_swept = 0

    def prune(self, r0: int, r1: int, h_left: np.ndarray, corner: int) -> bool:
        """True when block row ``[r0, r1)`` needs no sweep: it cannot
        beat the chain-wide best on the *scoreboard* (pruning on)."""
        lo, hi = self.live
        top = int(self.h_top[lo:hi].max()) if lo < hi else 0
        if self.pruner is None or not self.pruner.should_prune(
                BlockSpec(r0, r1, self.col0, self.col1), self.m, self.n_cols,
                top, int(h_left.max()), self.scoreboard.read(),
                corner=int(corner)):
            return False
        if self.instruments is not None:
            self.instruments.block_pruned()
        return True

    def restart(self, r0: int, r1: int) -> BlockResult:
        """The restart borders a skipped block row emits."""
        return pruned_border_result(BlockSpec(r0, r1, self.col0, self.col1))

    def job(self, a_rows: np.ndarray, h_left: np.ndarray,
            e_left: np.ndarray, corner: int) -> BlockJob:
        """The next block row as one job of a stacked batched sweep."""
        return BlockJob(a_rows, self.profile, self.h_top, self.f_top,
                        h_left, e_left, corner)

    def sweep(self, a_rows: np.ndarray, h_left: np.ndarray,
              e_left: np.ndarray, corner: int,
              window: LiveWindow | None = None) -> BlockResult:
        """Sweep the next block row with the config's kernel, over
        *window*'s live cells only when one is given, counting the
        narrow-DP outcome.  A slab row is a single job, so the batched
        kernel has nothing to stack: its rows run on the NumPy row
        engine."""
        sweep = block_sweeper(self.kernel)
        return self.count(sweep(a_rows, self.profile, self.h_top, self.f_top,
                                h_left, e_left, corner, self.scoring,
                                local=True, dp=self.dp, window=window))

    def step(self, r0: int, r1: int, a_rows: np.ndarray, h_left: np.ndarray,
             e_left: np.ndarray,
             corner: int) -> tuple[BlockResult, tuple[int, float] | None]:
        """Run block row ``[r0, r1)``: restart borders when the bound
        prunes it whole, else one sweep over its live window.  Returns
        the row's result and, for a swept row, the cells it computed and
        its wall seconds (``None``: pruned).  A better best cell is
        published as soon as the sweep ends."""
        if self.prune(r0, r1, h_left, corner):
            return self.restart(r0, r1), None
        window = None
        if self.pruner is not None:  # the best now, from the top's live hull
            window = LiveWindow(self.scoreboard.read(), self.scoring.match,
                                self.m - 1 - r0, self.n_cols - 1 - self.col0,
                                *self.live)
        t0, cells = time.perf_counter(), self.cells_swept
        result = self.sweep(a_rows, h_left, e_left, corner, window)
        seconds = time.perf_counter() - t0
        self._found(result.best.shifted(r0, self.col0))
        return result, (self.cells_swept - cells, seconds)

    def count(self, result: BlockResult) -> BlockResult:
        """Count a swept block row's cells and narrow-DP outcome (whoever
        swept it)."""
        self.cells_swept += (result.cells if result.cells is not None
                             else result.h_right.size * result.h_bottom.size)
        dp = self.dp
        if dp is not None:
            narrow, esc = int(result.dtype == dp.name), int(result.escalated)
            self.blocks_narrow += narrow
            self.blocks_wide += 1 - narrow
            self.dtype_escalations += esc
            if self.instruments is not None:
                self.instruments.block_dtype(narrow=narrow, wide=1 - narrow,
                                             escalations=esc)
        return result

    def advance(self, result: BlockResult,
                r0: int) -> tuple[np.ndarray, np.ndarray, int]:
        """Roll the top border past the block row starting at *r0*,
        publish a better best cell to the chain's scoreboard and return
        the right border ``(h_right, e_right, corner)`` the next slab
        takes as its left input."""
        border = (result.h_right, result.e_right, self.corner_out)
        self.corner_out = int(result.h_right[-1])
        self.row = r0 + result.h_right.size
        self.h_top, self.f_top = result.h_bottom, result.f_bottom
        self.live = (result.live if result.live is not None
                     else (0, result.h_bottom.size))
        self._found(result.best.shifted(r0, self.col0))
        return border

    def _found(self, cell: BestCell) -> None:
        """Keep *cell* (global coordinates) if it beats the slab's best,
        and publish its score to the chain's scoreboard."""
        if cell.better_than(self.best):
            self.best = cell
            if self.pruner is not None:
                self.scoreboard.publish(self.slot, cell.score)

    def state(self) -> RowState:
        """The slab's :class:`RowState` after its last block row; H/F are
        the sweep's own top border, which the next step may overwrite."""
        tally = self.tally()
        return RowState(self.row, self.h_top, self.f_top, self.best,
                        tally.blocks_checked, tally.blocks_pruned)

    def tally(self) -> SweepTally:
        """The slab's prune, cell and narrow-DP counters so far."""
        pruner = self.pruner
        return SweepTally(
            blocks_checked=pruner.blocks_checked if pruner else 0,
            blocks_pruned=pruner.blocks_pruned if pruner else 0,
            cells_swept=self.cells_swept, blocks_narrow=self.blocks_narrow,
            blocks_wide=self.blocks_wide,
            dtype_escalations=self.dtype_escalations)


@dataclass(frozen=True)
class BlockedOutcome:
    """Result of a blocked single-device run: the best cell, the grid's
    size, the summed :class:`~repro.sw.tiers.SweepTally` of its block
    columns, and the DP dtype policy the run resolved to."""

    best: BestCell
    blocks_total: int
    cells_total: int
    tally: SweepTally
    dp_dtype: str = "int32"

    @property
    def cells_pruned(self) -> int:
        return self.cells_total - self.tally.cells_swept

    @property
    def pruned_fraction(self) -> float:
        return self.cells_pruned / self.cells_total if self.cells_total else 0.0


def compute_blocked(
    a_codes: np.ndarray,
    b_codes: np.ndarray,
    scoring: Scoring,
    *,
    block_rows: int = 512,
    block_cols: int = 512,
    pruning: bool = False,
    kernel: str = "scalar",
    workspace: KernelWorkspace | None = None,
    dp_dtype: str | DpPolicy = "auto",
    floor: int = 0,
) -> BlockedOutcome:
    """Compute the local-alignment matrix block by block on one device.

    Each block column is a :class:`SlabSweep`, the step a chain device
    runs, and all of them share one
    :class:`~repro.comm.scoreboard.LocalScoreboard`.  A block's left input
    is its left neighbour's right border, as a chain device hands it on.
    The best cell equals a monolithic :func:`repro.sw.kernel.sw_score`
    sweep (tested cell-exactly).  With *pruning*, blocks that provably
    cannot beat the best so far are skipped and emit
    :func:`pruned_border_result`; the best so far starts at *floor*, the
    score of a real alignment (:func:`~repro.sw.pruning.seed_floor`).

    One loop serves every kernel; only the grouping of blocks differs.
    ``"scalar"`` and ``"compiled"`` visit blocks one at a time in
    row-major order.  ``"batched"`` visits each anti-diagonal of
    :func:`wavefront_order` and stacks its surviving blocks into one
    :func:`~repro.sw.batched.sweep_wavefront` call.  A group's prune
    decisions are all made before any of it is swept, so the batched
    grouping sees best-so-far updates one diagonal later and may prune
    slightly less; scores, end points and borders are the same.  A
    caller-supplied *workspace* lets repeated batched runs share scratch.

    ``dp_dtype`` selects the kernels' internal compute dtype (``"auto"``,
    a name from :data:`~repro.sw.constants.DP_DTYPE_CHOICES`, or a
    pre-resolved :class:`~repro.sw.constants.DpPolicy`); narrow sweeps
    escalate to int32 on overflow, so the outcome is always bit-identical
    to the wide run, with the narrow/wide/escalation split reported on
    the :class:`BlockedOutcome`.
    """
    validate_kernel(kernel)
    m, n = int(a_codes.size), int(b_codes.size)
    if isinstance(dp_dtype, DpPolicy):
        policy = dp_dtype
    else:
        policy = resolve_dp_dtype(dp_dtype, scoring, block_cols=block_cols,
                                  m=m, n=n, local=True)
    dp = policy if policy.narrow else None
    specs = grid_specs(m, n, block_rows, block_cols)
    n_brows, n_bcols = len(specs), len(specs[0])
    profile = build_profile(b_codes, scoring)
    if kernel == "batched" and workspace is None:
        workspace = KernelWorkspace()
    config = AlignConfig(kernel=kernel, pruning=pruning)
    scoreboard = LocalScoreboard(floor) if pruning else None
    sweepers = [
        SlabSweep(config, scoring, profile[:, spec.col0:spec.col1],
                  spec.col0, spec.col1, m=m, n_cols=n, dp=dp,
                  scoreboard=scoreboard)
        for spec in specs[0]]
    # borders[bc]: the right border block column bc emitted last, the left
    # input of column bc + 1's next block.
    borders: list[tuple[np.ndarray, np.ndarray, int] | None] = [None] * n_bcols
    if kernel == "batched":
        groups = wavefront_order(n_brows, n_bcols)
    else:
        groups = ([(br, bc)] for br in range(n_brows) for bc in range(n_bcols))

    for group in groups:
        # Decide the whole group, then sweep it, then roll its borders: no
        # block of a group feeds another, so none may see its output.
        swept, done = [], []
        for br, bc in group:
            spec, sweeper = specs[br][bc], sweepers[bc]
            if bc:
                h_left, e_left, corner = borders[bc - 1]  # type: ignore[misc]
            else:
                h_left = np.zeros(spec.rows, dtype=DTYPE)
                e_left = np.full(spec.rows, NEG_INF, dtype=DTYPE)
                corner = 0
            if sweeper.prune(spec.row0, spec.row1, h_left, corner):
                done.append((bc, spec.row0,
                             sweeper.restart(spec.row0, spec.row1)))
            else:
                swept.append((bc, spec.row0, (a_codes[spec.row0:spec.row1],
                                              h_left, e_left, corner)))
        if kernel == "batched":
            stacked = sweep_wavefront(
                [sweepers[bc].job(*args) for bc, _, args in swept],
                scoring, local=True, workspace=workspace, dp=dp)
            results = [sweepers[bc].count(result)
                       for (bc, _, _), result in zip(swept, stacked)]
        else:
            results = [sweepers[bc].sweep(*args) for bc, _, args in swept]
        done += [(bc, r0, result)
                 for (bc, r0, _), result in zip(swept, results)]
        for bc, r0, result in done:
            borders[bc] = sweepers[bc].advance(result, r0)

    tally = sum((sweeper.tally() for sweeper in sweepers), SweepTally())
    return BlockedOutcome(best=BestCell.best_of(sw.best for sw in sweepers),
                          blocks_total=n_brows * n_bcols,
                          cells_total=m * n, tally=tally,
                          dp_dtype=policy.name)
