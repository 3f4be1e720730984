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
can also restart at 0 inside the block.  If the bound is below the best
score already found, the block is skipped entirely.  A block whose bound
*equals* the best is swept: it may hold a cell that ties the best and
comes earlier in the row-major tie order, which would move the end cell.

Pruned blocks emit *restart borders* (``H = 0``, gap states = -inf; see
:func:`repro.sw.blocks.pruned_border_result`): legal lower bounds of the
true cells, so downstream blocks never overestimate, and since no path
scoring the best crosses a pruned block the final best score and its end
cell are exact.

What a block is depends on the engine.  The chain engines decide each
slab row as a whole and sweep a kept one over its live window
(:class:`~repro.sw.kernel.LiveWindow`): the same bound applied per cell,
so the cells of a 250k-column slab row that cannot reach the best are
restart values, never swept.  The single-device
:func:`~repro.sw.blocks.compute_blocked` decides the blocks of its
caller's grid and sweeps each kept one whole.

Schedule interaction: the criterion reads the *best-so-far* score, so how
much gets pruned depends on the visiting order.  The one blocked loop
(:func:`repro.sw.blocks.compute_blocked`) decides a whole group of blocks
before sweeping any of it.  The scalar and ``compiled`` kernels visit
single blocks in row-major order, so every decision sees the best of
every block before it.  The batched kernel's groups are anti-diagonals,
so its decisions lag by up to one diagonal and it may prune slightly
less.  Both groupings are exact: only the pruned *counts* differ, never
the score or end point.

The floor.  The exact sweep does not start its scoreboard at 0 but at
the score S of one real local alignment, found before the sweep by
:func:`seed_floor` (LOGAN's seed step, without its X-drop extension):
k-mer anchors of :data:`SEED_K` bases that occur once in the shorter
sequence, the longest chain of them increasing in both sequences, one
explicit path through that chain, and the best contiguous sub-path of
it.  S is the score of a real alignment, so S <= the exact optimum,
like every score the sweep publishes later.  With the strict comparison
above, no block that holds the optimum, or a tie earlier in row-major
order, is ever pruned: its bound is at least the optimum (INTERNALS.md
section 7).  A poor S only prunes less.
Scoring schemes other than the DNA :class:`~repro.seq.scoring.Scoring`
(a protein matrix, say) get the floor 0.
"""

from __future__ import annotations

import bisect
import time
from array import array
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..errors import ConfigError
from ..seq import alphabet
from ..seq.scoring import Scoring

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .blocks import BlockSpec


@dataclass
class BlockPruner:
    """Stateful pruning oracle of one :class:`~repro.sw.blocks.SlabSweep`.

    Attributes
    ----------
    match:
        The (positive) match score of the scheme in use — the per-diagonal
        gain bound.
    """

    match: int
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
        """True when no cell of the block can reach *best_score*;
        *corner* is the diagonal entry ``H(row0 - 1, col0 - 1)``."""
        self.blocks_checked += 1
        if self.upper_bound(spec, m, n, h_top_max, h_left_max,
                            corner) < best_score:
            self.blocks_pruned += 1
            return True
        return False


#: Anchor length: a k-mer of this many bases (2 bits each, so one
#: ``uint32`` key) that occurs once in the shorter sequence.
SEED_K = 12
#: Positions of the longer sequence scanned per step, so the seed's
#: memory is O(shorter + chunk), never O(longer).
SCAN_CHUNK = 1 << 16
#: Key bits of the presence table that screens the longer sequence's
#: k-mers before the exact lookup (a 256 KiB table at k = 12).
SCREEN_BITS = 18


@dataclass(frozen=True)
class Floor:
    """Where an exact sweep's scoreboard starts: a certified lower bound
    of the optimum.

    *source* is ``anchor-chain`` (:func:`seed_floor`), ``band`` (the
    adaptive band of an escalating ``auto``, when it scored higher) or
    ``none`` (pruning off, a heuristic answer, a timing run or a
    non-DNA scoring).  *anchors* counts the k-mer hits the seed found
    and *seconds* is the seed's own wall time."""

    score: int = 0
    source: str = "none"
    anchors: int = 0
    seconds: float = 0.0


def seed_floor(a_codes: np.ndarray, b_codes: np.ndarray, scoring,
               *, _k: int = SEED_K) -> Floor:
    """The score of one real local alignment of *a_codes* x *b_codes*.

    1. Anchors: every k-mer without ``N`` that occurs exactly once in the
       shorter sequence, looked up in the longer one chunk by chunk.
    2. Chain: the longest run of anchors increasing in both sequences
       (patience LIS, O(h log h) for h anchors).
    3. Path: from each chain anchor, diagonal steps up to the next
       anchor's row or column, then the gap that reaches it; after the
       last anchor, its k diagonal cells.
    4. Score: the best contiguous sub-path under *scoring* (a sub-path
       starting on a segment's first cell does not pay the gap before
       it), at least 0.

    Any such sub-path is a legal local alignment, so the result never
    exceeds the exact score.  ``_k`` exists for the property tests.
    """
    started = time.perf_counter()
    if not isinstance(scoring, Scoring):
        return Floor()
    rows, cols = _anchors(a_codes, b_codes, _k)
    score = 0
    if rows.size:
        chain_rows, chain_cols = _longest_chain(rows, cols)
        score = _path_score(a_codes, b_codes, chain_rows, chain_cols,
                            scoring, _k)
    return Floor(score, "anchor-chain", int(rows.size),
                 time.perf_counter() - started)


def _kmer_keys(codes: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The 2-bit ``uint32`` key of every k-mer of *codes* and a mask of
    the k-mers holding no ``N``."""
    count = codes.size - k + 1
    keys = np.zeros(count, dtype=np.uint32)
    for t in range(k):
        keys <<= np.uint32(2)
        keys |= (codes[t:t + count] & 3).astype(np.uint32)
    n_seen = np.zeros(codes.size + 1, dtype=np.int32)
    np.cumsum(codes == alphabet.N, out=n_seen[1:])
    return keys, n_seen[k:] == n_seen[:count]


def _anchors(a_codes: np.ndarray, b_codes: np.ndarray,
             k: int) -> tuple[np.ndarray, np.ndarray]:
    """``(rows, cols)`` of every anchor: a k-mer start in *a_codes* and
    *b_codes* whose k-mer occurs once in the shorter sequence."""
    swap = a_codes.size > b_codes.size
    short, long_ = (b_codes, a_codes) if swap else (a_codes, b_codes)
    none = np.empty(0, dtype=np.intc)
    if short.size < k:
        return none, none
    keys, clean = _kmer_keys(short, k)
    pos = np.flatnonzero(clean)
    order = np.argsort(keys[pos], kind="stable")
    keys, pos = keys[pos][order], pos[order]
    differs = keys[1:] != keys[:-1]
    once = np.ones(keys.size, dtype=bool)
    once[1:] &= differs
    once[:-1] &= differs
    keys, pos = keys[once], pos[once]
    hits_short, hits_long = [none], [none]
    if keys.size:
        # Only k-mers whose leading key bits some short k-mer shares go
        # to the (slow, cache-missing) binary search.
        shift = max(0, 2 * k - SCREEN_BITS)
        screen = np.zeros(1 << min(2 * k, SCREEN_BITS), dtype=bool)
        screen[keys >> shift] = True
        for c0 in range(0, long_.size - k + 1, SCAN_CHUNK):
            chunk_keys, chunk_clean = _kmer_keys(
                long_[c0:c0 + SCAN_CHUNK + k - 1], k)
            at = np.flatnonzero(chunk_clean & screen[chunk_keys >> shift])
            idx = np.searchsorted(keys, chunk_keys[at])
            idx[idx == keys.size] = 0
            hit = keys[idx] == chunk_keys[at]
            hits_short.append(pos[idx[hit]].astype(np.intc))
            hits_long.append((at[hit] + c0).astype(np.intc))
    s, l_ = np.concatenate(hits_short), np.concatenate(hits_long)
    return (l_, s) if swap else (s, l_)


def _longest_chain(rows: np.ndarray,
                   cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The longest sub-sequence of anchors strictly increasing in both
    row and column (patience sorting with back-links, kept in C-int
    arrays rather than lists of Python ints)."""
    order = np.lexsort((-cols, rows))  # rows up; equal rows, cols down
    rows, cols = rows[order], cols[order]
    del order
    tails: list[int] = []       # smallest last column of a chain of length p+1
    tail_at = array("i")        # the anchor holding it
    back = array("i", bytes(rows.nbytes))
    for x, col in enumerate(memoryview(cols)):
        p = bisect.bisect_left(tails, col)
        if p == len(tails):
            tails.append(col)
            tail_at.append(x)
        else:
            tails[p] = col
            tail_at[p] = x
        back[x] = tail_at[p - 1] if p else -1
    chain = array("i")
    x = tail_at[-1]
    while x >= 0:
        chain.append(x)
        x = back[x]
    at = np.frombuffer(chain, dtype=np.intc)[::-1]
    return rows[at], cols[at]


def _path_score(a_codes: np.ndarray, b_codes: np.ndarray, rows: np.ndarray,
                cols: np.ndarray, scoring: Scoring, k: int) -> int:
    """Best contiguous sub-path score of one path through the chain.

    From anchor s to anchor s + 1 the path aligns ``span = min(d_row,
    d_col)`` pairs around one gap of ``|d_row - d_col|``: its first t
    pairs follow anchor s's diagonal and the rest lead up anchor s + 1's
    diagonal, with t in ``[1, span]`` where the two diagonals score best.
    The last anchor's k pairs end the path.
    """
    # C ints throughout (anchor coordinates and scores fit), and each
    # path temporary dropped once used: the seed's peak is this path.
    i32 = np.intc
    matrix = scoring.matrix
    d_rows, d_cols = np.diff(rows), np.diff(cols)
    span = np.minimum(d_rows, d_cols)
    starts = np.cumsum(span, dtype=i32) - span
    seg = np.repeat(np.arange(span.size, dtype=i32), span)
    step = np.arange(seg.size, dtype=i32) - starts[seg]
    # Pair `step` of segment s on anchor s's diagonal, or on anchor s + 1's.
    from_r, from_c = rows[seg] + step, cols[seg] + step
    to_r = rows[seg + 1] - span[seg] + step
    to_c = cols[seg + 1] - span[seg] + step
    del step
    switch = starts + 1
    if seg.size:
        # Switching after pair p of a segment scores its from-pairs
        # through p plus its to-pairs after p: up to a per-segment
        # constant, the running sum of (from - to) at p.
        lead = np.cumsum(matrix[a_codes[from_r], b_codes[from_c]]
                         - matrix[a_codes[to_r], b_codes[to_c]], dtype=i32)
        best = np.flatnonzero(lead == np.maximum.reduceat(lead, starts)[seg])
        del lead
        switch = best[np.unique(seg[best], return_index=True)[1]] + 1
        del best
    on_from = np.arange(seg.size, dtype=i32) < switch[seg]
    del seg
    tail = np.arange(k, dtype=i32)
    path_r = np.append(np.where(on_from, from_r, to_r), rows[-1] + tail)
    del from_r, to_r
    path_c = np.append(np.where(on_from, from_c, to_c), cols[-1] + tail)
    del from_c, to_c, on_from
    gap_cost = np.zeros(path_r.size, dtype=i32)
    gaps = np.abs(d_rows - d_cols)
    gap_cost[switch] = np.where(
        gaps > 0, scoring.gap_open + gaps * scoring.gap_extend, 0)
    # Sub-path [p, q] scores prefix[q] - (prefix[p - 1] - gap_cost[p]):
    # a sub-path starting right after a gap does not pay it.
    prefix = np.cumsum(matrix[a_codes[path_r], b_codes[path_c]] - gap_cost,
                       dtype=i32)
    del path_r, path_c
    before = np.insert(prefix[:-1], 0, 0) - gap_cost
    return max(0, int((prefix - np.minimum.accumulate(before)).max()))
