"""Heuristic alignment tier: X-drop extension and the adaptive band.

The exact engines compute every cell of the DP matrix.  Production
genomics traffic is dominated by "find the good alignment fast" queries
where the optimal path hugs the main diagonal, and LOGAN-style X-drop
extension plus an adaptive band deliver orders-of-magnitude speedups on
similar sequences.  This module is that tier:

* :func:`xdrop_score` — greedy anti-diagonal extension anchored at the
  matrix origin.  A live window of rows per anti-diagonal is kept; cells
  whose extension score has dropped more than ``x`` below the running
  best leave the window, and the sweep terminates when the window dies.
* :func:`adaptive_banded_score` — promotes the fixed-width banded sweep
  (:mod:`repro.sw.banded`) into a first-class engine: the matrix is
  swept in block-row stripes over a column window around the current
  centre diagonal; the band **recenters** on the best cell of each
  stripe and **widens** (doubling, up to a cap) whenever the stripe's
  best hugs an interior band edge, recomputing the stripe at the new
  width.
* :func:`band_intersects` — the static band/block intersection test the
  blocked engines use to skip out-of-band blocks entirely
  (``mode="banded"``), compounding with distributed pruning.
* :func:`assess_heuristic` — the ``mode="auto"`` confidence check: a
  heuristic answer is trusted only when the band did not saturate, the
  best cell sits away from the band edge, and the score clears a
  Karlin-Altschul significance threshold (:mod:`repro.stats.karlin`).

Soundness (INTERNALS.md section 10): every heuristic cell value is the
score of a genuine alignment path, so heuristic scores are lower bounds
of the exact local score — a heuristic can under-report, never
over-report.  ``mode="auto"`` re-runs the exact engine whenever the
confidence check fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from ..errors import ConfigError
from ..seq.scoring import Scoring
from .constants import DTYPE, NEG_INF
from .kernel import BestCell, build_profile, sweep_block

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .blocks import BlockSpec

#: Engine mode selector shared by every engine front-end.
MODES = ("exact", "banded", "xdrop", "auto")

#: Default band half-width for ``mode="banded"``/``"auto"`` — generous
#: for percent-level divergence (indel drift of similar genomes is far
#: smaller), tiny next to megabase matrix widths.
DEFAULT_BAND_WIDTH = 64

#: Default X-drop threshold, in score units (LOGAN's scale).
DEFAULT_XDROP_X = 20

#: E-value above which an auto-mode heuristic score is not trusted.
SIGNIFICANCE_EVALUE = 1e-4


def validate_mode(mode: str) -> None:
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}; expected one of {MODES}")


# ---------------------------------------------------------------------------
# X-drop extension
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class XDropOutcome:
    """Result of one X-drop extension sweep."""

    best: BestCell
    #: DP cells actually evaluated (the live-window sizes summed).
    cells_computed: int
    #: Anti-diagonals visited before the window died (or ``m + n - 1``).
    diagonals: int
    #: True when the window died before the last anti-diagonal.
    terminated: bool

    @property
    def score(self) -> int:
        return self.best.score if self.best.row >= 0 else 0


def xdrop_score(
    a_codes: np.ndarray,
    b_codes: np.ndarray,
    scoring: Scoring,
    x: int,
) -> XDropOutcome:
    """Greedy X-drop extension anchored at the matrix origin.

    The extension DP is *unclamped* (no local-mode floor at 0): every
    computed ``H[i, j]`` is the score of one concrete alignment path from
    the origin corner to ``(i, j)``, hence a lower bound of the exact
    local value at that cell — the reported score never exceeds the
    exact Smith-Waterman score.  On identical sequences the main
    diagonal never drops, so the window retains it throughout and the
    exact score ``m * match`` is returned.

    Cells on anti-diagonal ``d`` whose score has fallen more than *x*
    below the running best leave the live window ``[lo, hi]``; the sweep
    terminates when no cell survives.  Leading gaps are not modelled
    (the extension is anchored at cell ``(0, 0)``); they could only
    lower the extension score, so the lower-bound contract holds.
    """
    if x <= 0:
        raise ConfigError("xdrop x must be positive")
    m, n = int(a_codes.size), int(b_codes.size)
    if m == 0 or n == 0:
        return XDropOutcome(BestCell.none(), 0, 0, False)

    sub = scoring.matrix.astype(DTYPE)
    open_ = DTYPE(scoring.gap_open)
    ext = DTYPE(scoring.gap_extend)

    def window(buf: np.ndarray, buf_lo: int, lo_want: int, size: int) -> np.ndarray:
        """Values of *buf* (a previous diagonal window) at the contiguous
        rows ``[lo_want, lo_want + size)``, NEG_INF outside the stored
        range.  Live windows are always contiguous row ranges, so this is
        pure slice arithmetic — the sweep's hot path."""
        out = np.full(size, NEG_INF, dtype=DTYPE)
        s0 = lo_want - buf_lo
        b0 = max(s0, 0)
        b1 = min(s0 + size, buf.size)
        if b1 > b0:
            out[b0 - s0 : b1 - s0] = buf[b0:b1]
        return out

    # Rolling buffers for diagonals d-1 and d-2, windowed to the rows
    # that were live on each.
    h_prev = h_prev2 = e_prev = f_prev = np.empty(0, dtype=DTYPE)
    lo_prev = lo_prev2 = 0
    lo, hi = 0, 0  # live row window for the next diagonal

    best = BestCell.none()
    best_raw = NEG_INF  # unclamped running best (drop reference)
    cells = 0
    terminated = False
    d_done = 0
    for d in range(m + n - 1):
        row_lo = max(lo, 0, d - n + 1)
        row_hi = min(hi, m - 1, d)
        if row_lo > row_hi:
            terminated = True
            break
        size = row_hi - row_lo + 1
        cells += size
        d_done = d + 1

        # Rows ascend row_lo..row_hi, so cols d - row descend: slice the
        # b window ascending and reverse it.
        subs = sub[a_codes[row_lo:row_hi + 1],
                   b_codes[d - row_hi:d - row_lo + 1][::-1]]

        h_up = window(h_prev, lo_prev, row_lo - 1, size)
        f_up = window(f_prev, lo_prev, row_lo - 1, size)
        f_cur = np.maximum(f_up, h_up - open_) - ext

        h_lf = window(h_prev, lo_prev, row_lo, size)
        e_lf = window(e_prev, lo_prev, row_lo, size)
        e_cur = np.maximum(e_lf, h_lf - open_) - ext

        h_diag = window(h_prev2, lo_prev2, row_lo - 1, size)
        if d == 0:
            h_diag[0] = 0  # the origin corner H(-1, -1)

        h_cur = np.maximum(np.maximum(h_diag + subs, f_cur), e_cur)
        # Keep NEG_INF an absorbing floor: repeated gap charges on dead
        # cells must not creep toward the int32 limit on long sweeps.
        np.maximum(h_cur, NEG_INF, out=h_cur)
        np.maximum(f_cur, NEG_INF, out=f_cur)
        np.maximum(e_cur, NEG_INF, out=e_cur)

        mx = int(h_cur.max())
        if mx > best_raw:
            best_raw = mx
        if mx > 0:
            k = int(np.argmax(h_cur))
            row = row_lo + k
            cand = BestCell(mx, row, d - row)
            if cand.better_than(best):
                best = cand

        keep = h_cur >= best_raw - x
        if not keep.any():
            terminated = True
            break
        first = int(np.argmax(keep))
        last = size - 1 - int(np.argmax(keep[::-1]))
        lo = row_lo + first
        hi = row_lo + last + 1  # the window may grow one row down

        h_prev2, lo_prev2 = h_prev, lo_prev
        h_prev, e_prev, f_prev, lo_prev = h_cur, e_cur, f_cur, row_lo
    else:
        terminated = False

    return XDropOutcome(best=best, cells_computed=cells,
                        diagonals=d_done, terminated=terminated)


# ---------------------------------------------------------------------------
# Adaptive band
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BandedOutcome:
    """Result of one adaptive banded sweep."""

    best: BestCell
    cells_computed: int
    initial_half_width: int
    #: Half-width after all widenings (== initial when none happened).
    final_half_width: int
    #: Stripes whose band centre moved to a new diagonal.
    recenters: int
    #: Width doublings triggered by a near-edge stripe best.
    widenings: int
    #: True when a stripe best hugged an interior band edge while the
    #: width was already at its cap — the escalation signal for
    #: ``mode="auto"``.
    saturated: bool

    @property
    def score(self) -> int:
        return self.best.score if self.best.row >= 0 else 0


def adaptive_banded_score(
    a_codes: np.ndarray,
    b_codes: np.ndarray,
    scoring: Scoring,
    half_width: int = DEFAULT_BAND_WIDTH,
    *,
    block_rows: int = 128,
    max_half_width: int | None = None,
    edge_fraction: float = 0.125,
) -> BandedOutcome:
    """Best local score within an adaptive diagonal band.

    The matrix is swept in stripes of *block_rows* rows.  Each stripe
    computes the column window ``[centre + r0 - hw, centre + r1 - 1 + hw]``
    (clipped to the matrix) with :func:`~repro.sw.kernel.sweep_block`,
    chaining the previous stripe's bottom border where the windows
    overlap and *restart borders* (H = 0, gap states -inf — legal local
    lower bounds, exactly :func:`repro.sw.blocks.pruned_border_result`'s
    argument) elsewhere.  After each stripe the band recenters on the
    stripe's best cell; a best within ``edge_fraction * hw`` of an
    *interior* band edge doubles ``hw`` (up to *max_half_width*, default
    ``max(m, n)``) and recomputes the stripe, or sets ``saturated`` when
    the cap is already reached.

    ``half_width >= max(m, n)`` degenerates to full-width stripes and is
    bit-identical to the exact engines (score and end cell).
    """
    if half_width < 0:
        raise ConfigError("half_width must be >= 0")
    if block_rows <= 0:
        raise ConfigError("block_rows must be positive")
    if not 0.0 < edge_fraction < 1.0:
        raise ConfigError("edge_fraction must be in (0, 1)")
    m, n = int(a_codes.size), int(b_codes.size)
    if m == 0 or n == 0:
        return BandedOutcome(BestCell.none(), 0, half_width, half_width, 0, 0, False)
    full = max(m, n)
    cap = full if max_half_width is None else max(int(max_half_width), half_width)

    profile = build_profile(b_codes, scoring)
    hw = half_width
    center = 0  # the band is centred on diagonal offset j - i == center
    best = BestCell.none()
    cells = 0
    recenters = widenings = 0
    saturated = False
    # Previous stripe's bottom border over its window [p0, p1).
    p0 = p1 = 0
    h_prev: np.ndarray | None = None
    f_prev: np.ndarray | None = None

    r0 = 0
    while r0 < m:
        r1 = min(m, r0 + block_rows)
        rows = r1 - r0
        while True:
            if hw >= full:
                c0, c1 = 0, n
            else:
                c0 = min(max(center + r0 - hw, 0), n)
                c1 = min(max(center + (r1 - 1) + hw + 1, 0), n)
            if c0 >= c1:
                # Band entirely off-matrix for this stripe: nothing to
                # compute; downstream stripes restart from H = 0.
                result = None
                break

            w = c1 - c0
            h_top = np.zeros(w, dtype=DTYPE)
            f_top = np.full(w, NEG_INF, dtype=DTYPE)
            if h_prev is not None:
                ov0, ov1 = max(c0, p0), min(c1, p1)
                if ov0 < ov1:
                    h_top[ov0 - c0 : ov1 - c0] = h_prev[ov0 - p0 : ov1 - p0]
                    f_top[ov0 - c0 : ov1 - c0] = f_prev[ov0 - p0 : ov1 - p0]
            h_diag = 0
            if h_prev is not None and p0 <= c0 - 1 < p1:
                h_diag = int(h_prev[c0 - 1 - p0])
            h_left = np.zeros(rows, dtype=DTYPE)
            e_left = np.full(rows, NEG_INF, dtype=DTYPE)

            result = sweep_block(
                a_codes[r0:r1], profile[:, c0:c1],
                h_top, f_top, h_left, e_left, h_diag, scoring, local=True)
            cells += rows * w

            if result.best.row < 0:
                break
            # Near-edge test in *diagonal offset* terms: the stripe
            # window is the rectangular hull of the per-row bands, so a
            # best cell may sit beyond ``center + hw`` outright; either
            # way, a best within ``edge`` of an interior band boundary
            # means the optimum may continue outside the band.
            edge = max(1, int(hw * edge_fraction))
            off = (c0 + result.best.col) - (r0 + result.best.row)
            near_left = c0 > 0 and off < center - hw + edge
            near_right = c1 < n and off > center + hw - edge
            if not (near_left or near_right):
                break
            if hw >= cap:
                saturated = True
                break
            hw = min(cap, max(1, hw * 2))
            widenings += 1

        if result is not None:
            cell = result.best.shifted(r0, c0)
            if result.best.row >= 0:
                if cell.better_than(best):
                    best = cell
                new_center = cell.col - cell.row
                if new_center != center:
                    center = new_center
                    recenters += 1
            p0, p1 = c0, c1
            h_prev, f_prev = result.h_bottom, result.f_bottom
        else:
            h_prev = f_prev = None
            p0 = p1 = 0
        r0 = r1

    return BandedOutcome(best=best, cells_computed=cells,
                         initial_half_width=half_width, final_half_width=hw,
                         recenters=recenters, widenings=widenings,
                         saturated=saturated)


# ---------------------------------------------------------------------------
# Static band / block intersection (the blocked engines' skip test)
# ---------------------------------------------------------------------------

def band_intersects(spec: "BlockSpec", half_width: int | None) -> bool:
    """True when block *spec* intersects the static band ``|j - i| <=
    half_width`` around the main diagonal (always, when *half_width* is
    ``None``: an unbanded sweep).

    The diagonal offset ``j - i`` over the block spans
    ``[col0 - (row1 - 1), (col1 - 1) - row0]``; the block intersects the
    band iff that interval meets ``[-half_width, half_width]``.  Blocks
    that miss emit restart borders (H = 0 lower bounds), so in-band
    scores are never overestimated.
    """
    if half_width is None:
        return True
    if half_width < 0:
        raise ConfigError("half_width must be >= 0")
    return (spec.col0 - (spec.row1 - 1) <= half_width
            and spec.row0 - (spec.col1 - 1) <= half_width)


# ---------------------------------------------------------------------------
# The auto-mode confidence check
# ---------------------------------------------------------------------------

@lru_cache(maxsize=16)
def _cached_statistics(match: int, mismatch: int, gap_open: int, gap_extend: int):
    """Karlin-Altschul lambda/K for a scheme, or None when the scheme
    admits no local statistics (non-negative expected score).

    Small Monte-Carlo sample: the threshold gates an *escalation*
    decision, not a reported E-value, so coarse K is fine — and the
    cache keeps the fit off every hot path after the first call.
    """
    from ..stats.karlin import dna_statistics

    try:
        return dna_statistics(
            Scoring(match=match, mismatch=mismatch,
                    gap_open=gap_open, gap_extend=gap_extend),
            k_samples=32)
    except ConfigError:
        return None


def significance_threshold(
    scoring: Scoring, m: int, n: int, *, evalue: float = SIGNIFICANCE_EVALUE
) -> int | None:
    """Smallest score significant at *evalue* for an ``m x n`` comparison,
    or ``None`` when the scheme has no Karlin-Altschul statistics."""
    stats = _cached_statistics(int(scoring.match), int(scoring.mismatch),
                               int(scoring.gap_open), int(scoring.gap_extend))
    if stats is None:
        return None
    return stats.score_for_evalue(evalue, m, n)


@dataclass(frozen=True)
class HeuristicDecision:
    """Whether a heuristic answer may be reported without escalation."""

    confident: bool
    reasons: tuple[str, ...]
    threshold: int | None


def assess_heuristic(
    best: BestCell,
    m: int,
    n: int,
    scoring: Scoring,
    *,
    band_half_width: int | None = None,
    saturated: bool = False,
    evalue: float = SIGNIFICANCE_EVALUE,
) -> HeuristicDecision:
    """The ``mode="auto"`` confidence check (see INTERNALS.md section 10).

    A heuristic answer is trusted only when every check passes:

    * the adaptive band did not *saturate* (hit its width cap with the
      best still hugging an interior edge);
    * under a static band, the best cell's diagonal offset keeps a
      ``half_width / 4`` margin from the band edge (a best near the edge
      means the optimum may continue outside the band);
    * the score clears the Karlin-Altschul significance threshold at
      *evalue* — an insignificant in-band score says nothing about what
      lies off-band.  Schemes without statistics always escalate.
    """
    reasons: list[str] = []
    if saturated:
        reasons.append("band saturated at its width cap")
    score = best.score if best.row >= 0 else 0
    if (band_half_width is not None and best.row >= 0
            and band_half_width < max(m, n)):
        margin = max(1, band_half_width // 4)
        if abs(best.col - best.row) > band_half_width - margin:
            reasons.append(
                f"best cell offset {abs(best.col - best.row)} within "
                f"{margin} of the band edge ({band_half_width})")
    threshold = significance_threshold(scoring, m, n, evalue=evalue)
    if threshold is None:
        reasons.append("scoring scheme has no Karlin-Altschul statistics")
    elif score < threshold:
        reasons.append(
            f"score {score} below the significance threshold {threshold} "
            f"(E-value {evalue:g})")
    return HeuristicDecision(confident=not reasons, reasons=tuple(reasons),
                             threshold=threshold)
