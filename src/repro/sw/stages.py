"""The multi-stage alignment pipeline (CUDAlign stages 1-4 analogue).

Retrieving a full local alignment of megabase sequences runs as a pipeline
of stages, each much cheaper than the one-shot full-matrix approach.
:func:`align_local` is the one front door; ``special_interval`` picks the
strategy (``0``: no special rows, one partition — a monolithic
Myers-Miller traceback):

* **Stage 1 — score pass.**  Linear-space local sweep of the whole matrix:
  best score and its *end point*.  Optionally saves *special rows* (H and F
  snapshots every ``special_interval`` rows) in a
  :class:`~repro.sw.rowstore.BudgetedRowStore`.  This is the stage the
  multi-GPU engine distributes; at megabase scale it dominates total time,
  which is why the paper reports GCUPS of this stage.

* **Stage 2 — start pass and crossing points.**  One *anchored* reverse
  sweep from the end point: a global-start DP over the reversed prefixes
  whose first aligned pair is pinned to the end point.  The cell where the
  running maximum reaches the known score is the alignment's *start
  point*; the sweep is chunked so it terminates as soon as that happens.
  The same sweep captures the reverse rows matching stage 1's special
  rows, and the optimal path's crossing column on each is found by
  matching forward and reverse DP values (``Hf + Hr == score`` for a
  diagonal crossing, ``Ff + Fr + gap_open == score`` for a vertical-gap
  crossing).

* **Stage 3 — alignment pass.**  Diagonal crossing points split the
  region between start and end into independent partitions, each solved
  by a small Myers-Miller global alignment and stitched together.  Under
  score ties the crossings may belong to different co-optimal paths and
  not telescope; then one monolithic :func:`stage3_align` over the whole
  region replaces the stitch.

The pipeline is exact: every stage's output is checked against the known
score, and the final :class:`~repro.sw.alignment.Alignment` validates
before being returned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import AlignmentError
from ..seq.scoring import Scoring
from .alignment import Alignment
from .constants import DTYPE, NEG_INF
from .kernel import BestCell, build_profile, sw_score, sweep_block
from .myers_miller import DEFAULT_BASE_CELLS, align_global
from .rowstore import BudgetedRowStore


@dataclass(frozen=True)
class Stage1Result:
    """Best score, its end point (0-based last aligned pair), and the
    optional special rows."""

    score: int
    end_i: int
    end_j: int
    special_rows: BudgetedRowStore | None


def stage1_score(
    a_codes: np.ndarray,
    b_codes: np.ndarray,
    scoring: Scoring,
    *,
    special_interval: int = 0,
    row_store: BudgetedRowStore | None = None,
) -> Stage1Result:
    """Stage 1: linear-space local score + end point (+ special rows).

    Special rows land in ``row_store`` when given (its interval wins);
    otherwise a :class:`BudgetedRowStore` with its default budget is
    created when ``special_interval > 0``.  The caller closes the store.
    """
    store = row_store
    if store is None and special_interval > 0:
        store = BudgetedRowStore(special_interval)

    sink = None
    if store is not None:
        def sink(row: int, h: np.ndarray, _e: np.ndarray, f: np.ndarray) -> None:
            store.store(row, h, f)

    best = sw_score(a_codes, b_codes, scoring, row_sink=sink,
                    sink_interval=store.interval if store is not None else 0)
    if best.row < 0:
        return Stage1Result(0, -1, -1, store)
    return Stage1Result(best.score, best.row, best.col, store)


@dataclass(frozen=True)
class CrossingPoint:
    """Where an optimal path crosses a special row.

    ``row`` is the special row index (0-based last consumed ``a`` base);
    ``col`` the matching column; ``gapped`` is True when the path crosses
    inside a vertical gap (both halves meet in F state).
    """

    row: int
    col: int
    gapped: bool


def _match_crossings(
    store: BudgetedRowStore,
    rev_rows: dict[int, tuple[np.ndarray, np.ndarray]],
    want_rows: dict[int, int],
    score: int,
    scoring: Scoring,
) -> list[CrossingPoint]:
    """Pair forward special rows with captured reverse rows.

    A cell is a diagonal crossing when ``Hf + Hr == score`` and a gapped
    crossing when ``Ff + Fr + gap_open == score``.  Index algebra: forward
    vertex (I=r+1, J=j) has Hf = hf[j-1]; its reverse complement has
    Hr = hr_rev[end_j - j]; with hr = hr_rev[::-1] the condition at
    k = j-1 pairs hf[k] with hr[k+1].  Returns crossings ordered by row.
    """
    crossings: list[CrossingPoint] = []
    for p, r in sorted(want_rows.items(), key=lambda kv: kv[1]):
        if p not in rev_rows:  # special row above the start point
            continue
        hf, ff = store.load(r)
        hr_rev, fr_rev = rev_rows[p]
        width = int(hr_rev.size)  # == end_j + 1
        hfv = hf[:width].astype(np.int64)
        ffv = ff[:width].astype(np.int64)
        hr = hr_rev[::-1].astype(np.int64)
        fr = fr_rev[::-1].astype(np.int64)
        diag = hfv[:-1] + hr[1:]
        gap = ffv[:-1] + fr[1:] + scoring.gap_open
        hit = np.nonzero(diag == score)[0]
        if hit.size:
            crossings.append(CrossingPoint(row=r, col=int(hit[0]) + 1, gapped=False))
            continue
        hit = np.nonzero(gap == score)[0]
        if hit.size:
            crossings.append(CrossingPoint(row=r, col=int(hit[0]) + 1, gapped=True))
    return crossings


def stage2_with_crossings(
    a_codes: np.ndarray,
    b_codes: np.ndarray,
    scoring: Scoring,
    result: Stage1Result,
    *,
    chunk_rows: int = 1024,
) -> tuple[int, int, list[CrossingPoint]]:
    """Stage 2: the one anchored reverse sweep from the end point.

    Runs the anchored reverse DP in chunks of rows and stops at the first
    chunk whose maximum reaches the stage-1 score; returns
    ``(start_i, start_j, crossings)`` — the 0-based first aligned pair and
    the optimal path's crossing on each special row strictly between the
    start and end rows.  Without special rows the crossings are ``[]``.
    Early termination loses no crossing: every wanted reverse row lies
    above the start row, so all captures happen before the stop fires.
    """
    score, end_i, end_j = result.score, result.end_i, result.end_j
    if score <= 0:
        raise AlignmentError("stage2 requires a positive score")
    store = result.special_rows
    want_rows = ({} if store is None else
                 {end_i - r - 1: r for r in store.row_indices() if r < end_i})

    ar = a_codes[: end_i + 1][::-1].copy()
    br = b_codes[: end_j + 1][::-1].copy()
    m, n = int(ar.size), int(br.size)
    profile = build_profile(br, scoring)
    rev_rows: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    # Anchored boundaries: everything -inf except the corner, so the only
    # way into the matrix is the diagonal move aligning ar[0] with br[0].
    h_top = np.full(n, NEG_INF, dtype=DTYPE)
    f_top = np.full(n, NEG_INF, dtype=DTYPE)
    corner = 0
    best = BestCell.none()
    row0 = 0
    while row0 < m:
        rows = min(chunk_rows, m - row0)
        h_left = np.full(rows, NEG_INF, dtype=DTYPE)
        e_left = np.full(rows, NEG_INF, dtype=DTYPE)

        def sink(i: int, h: np.ndarray, _e: np.ndarray, f: np.ndarray,
                 base=row0) -> None:
            p = base + i
            if p in want_rows:
                rev_rows[p] = (h.copy(), f.copy())

        res = sweep_block(
            ar[row0 : row0 + rows], profile,
            h_top, f_top, h_left, e_left, corner, scoring,
            local=False, track_best=True,
            row_sink=sink if want_rows else None,
            sink_interval=1 if want_rows else 0,
        )
        cell = res.best.shifted(row0, 0)
        if cell.better_than(best):
            best = cell
        if best.score >= score:
            break
        h_top, f_top = res.h_bottom, res.f_bottom
        corner = NEG_INF  # only the true origin corner is anchored
        row0 += rows

    if best.score != score:
        raise AlignmentError(
            f"stage2 reverse sweep reached {best.score}, expected {score}; "
            "end point and score are inconsistent"
        )
    start_i = end_i - best.row
    start_j = end_j - best.col
    if not want_rows:
        return start_i, start_j, []
    usable = {p: r for p, r in want_rows.items() if start_i <= r < end_i}
    crossings = _match_crossings(store, rev_rows, usable, score, scoring)
    return start_i, start_j, crossings


def stage3_align(
    a_codes: np.ndarray,
    b_codes: np.ndarray,
    scoring: Scoring,
    score: int,
    start: tuple[int, int],
    end: tuple[int, int],
    *,
    base_cells: int = DEFAULT_BASE_CELLS,
) -> Alignment:
    """Stage 3: Myers-Miller global alignment between the two anchors."""
    si, sj = start
    ei, ej = end
    sub = align_global(
        a_codes[si : ei + 1], b_codes[sj : ej + 1], scoring, base_cells=base_cells
    )
    aln = Alignment(
        score=sub.score,
        ops=sub.ops,
        start_i=si,
        end_i=ei + 1,
        start_j=sj,
        end_j=ej + 1,
    )
    if aln.score != score:
        raise AlignmentError(
            f"stage3 alignment scored {aln.score}, stage1 reported {score}"
        )
    return aln




def align_local(
    a_codes: np.ndarray,
    b_codes: np.ndarray,
    scoring: Scoring,
    *,
    special_interval: int = 512,
    base_cells: int = DEFAULT_BASE_CELLS,
) -> Alignment:
    """Optimal local alignment in linear space: the crossing-point traceback.

    Stage 1 saves special rows every ``special_interval`` rows; stage 2
    finds the start point and the path's diagonal crossings on them, and
    the crossings split stage 3 into small Myers-Miller partitions (the
    paper family's way of keeping the traceback's working set bounded).
    ``special_interval=0`` saves no rows: one partition, the monolithic
    traceback.  The stitched alignment is checked against the stage-1
    score; if the crossings belong to different co-optimal paths and do
    not telescope (possible under score ties), one monolithic
    :func:`stage3_align` reusing the stage-1 end and stage-2 start
    replaces it — the result is exact either way.

    Returns the empty alignment (score 0) when no positive-scoring pair of
    substrings exists.  The result always passes
    :meth:`~repro.sw.alignment.Alignment.validate`.
    """
    store = BudgetedRowStore(special_interval) if special_interval else None
    try:
        s1 = stage1_score(a_codes, b_codes, scoring, row_store=store)
        if s1.score <= 0:
            return Alignment(score=0, ops="", start_i=0, end_i=0, start_j=0, end_j=0)
        si, sj, crossings = stage2_with_crossings(a_codes, b_codes, scoring, s1)
    finally:
        if store is not None:
            store.close()

    # Usable anchors: diagonal crossings with strictly monotone columns.
    anchors: list[tuple[int, int]] = []
    last_col = sj
    for c in crossings:
        if c.gapped or c.col <= last_col or c.col > s1.end_j:
            continue
        if c.row <= si or c.row >= s1.end_i:
            continue
        anchors.append((c.row, c.col))
        last_col = c.col

    # Partition boundaries: (row+1, col) per anchor — a[..row] pairs with
    # b[..col-1] on the left side (verified by the crossing-score tests).
    cuts = [(si, sj)] + [(r + 1, col) for r, col in anchors] + [(s1.end_i + 1, s1.end_j + 1)]
    ops: list[str] = []
    total = 0
    for (i0, j0), (i1, j1) in zip(cuts, cuts[1:]):
        sub = align_global(a_codes[i0:i1], b_codes[j0:j1], scoring,
                           base_cells=base_cells)
        total += sub.score
        ops.append(sub.ops)
    aln = Alignment(
        score=s1.score,
        ops="".join(ops),
        start_i=si,
        end_i=s1.end_i + 1,
        start_j=sj,
        end_j=s1.end_j + 1,
    )
    # Stitching at shared vertices can only merge gaps (raising the
    # score), so a partition sum or rescore off the stage-1 score means a
    # co-optimal-path tie: redo stage 3 monolithically.
    if total != s1.score or aln.rescore(a_codes, b_codes, scoring) != s1.score:
        aln = stage3_align(
            a_codes, b_codes, scoring, s1.score, (si, sj), (s1.end_i, s1.end_j),
            base_cells=base_cells,
        )
    aln.validate(a_codes, b_codes, scoring)
    return aln
