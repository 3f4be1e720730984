"""Shared numeric constants and the DP dtype policy layer.

The interchange format — border rows, checkpoints, shared-memory rings,
result scores — is always ``int32``.  ``NEG_INF`` is a large negative
sentinel standing in for minus infinity; it is chosen so that any
realistic sum of penalties added to it stays far above the ``int32``
minimum (no wraparound) while remaining unreachable by any legal score.

On top of the wide baseline sits the *narrow* ``int16`` DP policy that
the kernels may use internally for the row sweep: borders are
narrowed on entry (sentinels clipped to a dtype-scaled ``neg_inf``),
swept in the narrow dtype, and widened back to ``int32`` on exit.  A
per-row cap check (:meth:`DpPolicy.overflow_limit`) detects potential
overflow *before* any real cell can wrap, and callers escalate the block
to an ``int32`` recompute — so the narrow mode is bit-identical to wide.
The headroom math lives here; INTERNALS.md section 11 has the proofs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError

#: "Minus infinity" for int32 DP cells.  Headroom: int32 min is about
#: -2.1e9; NEG_INF + (worst-case penalty sums ~ 1e8) stays below any real
#: score and above the wraparound threshold.
NEG_INF: int = -(1 << 30)

#: dtype used by every DP vector/matrix at the interchange layer.
DTYPE = np.int32

#: Maximum block width the wide scan kernel accepts.  ``j * gap_extend``
#: must not overflow the headroom above NEG_INF: 2**27 columns *
#: extend<=15 ~ 2e9 is too much, so cap width well below that.
MAX_SWEEP_WIDTH: int = 1 << 26

#: Names of the supported DP compute dtypes, widest first.
DP_DTYPES: tuple[str, ...] = ("int32", "int16")

#: Valid values for the engine-level ``dp_dtype`` knob.
DP_DTYPE_CHOICES: tuple[str, ...] = ("auto",) + DP_DTYPES


@dataclass(frozen=True)
class DpPolicy:
    """One DP compute dtype: its sentinel, headroom, and width limits.

    ``neg_inf`` plays the same role as the module-level :data:`NEG_INF`
    but scaled to the dtype: low enough that no legal intermediate ever
    reaches it (strictly below ``-(gap_open + gap_extend)``), high enough
    that one kernel step applied to it cannot wrap below the dtype
    minimum.  Instances are tiny frozen value objects and pickle cleanly
    across process boundaries.
    """

    name: str
    neg_inf: int

    @property
    def kind(self) -> type:
        return {"int32": np.int32, "int16": np.int16}[self.name]

    @property
    def lo(self) -> int:
        return int(np.iinfo(self.kind).min)

    @property
    def hi(self) -> int:
        return int(np.iinfo(self.kind).max)

    @property
    def narrow(self) -> bool:
        return self.name != "int32"

    @property
    def min_cap(self) -> int:
        """Smallest overflow cap worth sweeping under (``hi // 4``).

        Below this the usable score range is so thin that nearly every
        block would escalate; :meth:`max_width` is derived from it.
        """
        return self.hi // 4

    def overflow_limit(self, scoring, width: int) -> int:
        """Cap C such that row maxima < C imply no intermediate overflowed.

        One sweep row starting from values ``< C`` can reach at most
        ``C - 1 + match`` in ``temp`` and, inside the E-scan's shifted
        domain (``e[j] + j*gap_extend``), at most ``C - 1 + match +
        (width-1)*gap_extend``.  With ``C = hi - match - (width-1)*ext``
        every intermediate therefore fits the dtype, so checking the
        final row maximum against C each row detects overflow *before*
        any real cell wraps (soundness argument in INTERNALS.md §11).
        """
        return self.hi - scoring.match - (width - 1) * scoring.gap_extend

    def max_width(self, scoring) -> int:
        """Widest block this dtype accepts under *scoring*.

        Wide (``int32``) keeps the legacy :data:`MAX_SWEEP_WIDTH` cap;
        narrow dtypes are limited by the overflow cap staying at or above
        :attr:`min_cap` (``overflow_limit(scoring, W) >= min_cap``).
        """
        if not self.narrow:
            return MAX_SWEEP_WIDTH
        w = (self.hi - scoring.match - self.min_cap) // scoring.gap_extend + 1
        return max(0, min(w, MAX_SWEEP_WIDTH))

    def supports(self, scoring) -> bool:
        """Whether *scoring*'s magnitudes leave sentinel headroom.

        Two requirements: one kernel step applied to the sentinel must
        not wrap (``neg_inf - (gap_open + gap_extend + |worst|) >= lo``,
        *worst* the scheme's lowest substitution score), and the
        sentinel must sit strictly below every reachable
        real value with margin (``neg_inf <= -2 * (gap_open +
        gap_extend)``, reals never drop below ``-(gap_open +
        gap_extend)`` in the clipped local sweep).  Plus at least one
        column must fit under the overflow cap.
        """
        step = (scoring.gap_open + scoring.gap_extend
                + abs(int(scoring.matrix.min())))
        if self.neg_inf - step < self.lo:
            return False
        if self.neg_inf > -2 * (scoring.gap_open + scoring.gap_extend):
            return False
        return self.max_width(scoring) >= 1


#: The two supported policies.  The narrow sentinel: far below any real
#: clipped-local value (reals stay >= -(open+ext)), far above the dtype
#: minimum (one step of penalties cannot wrap), and cheap to separate
#: from real values when narrowing int32 borders.
POLICIES: dict[str, DpPolicy] = {
    "int32": DpPolicy("int32", NEG_INF),
    "int16": DpPolicy("int16", -(1 << 13)),   # -8192
}


def get_policy(name: str) -> DpPolicy:
    try:
        return POLICIES[name]
    except KeyError:
        raise ConfigError(
            f"unknown dp dtype {name!r} (choose from {DP_DTYPE_CHOICES})") from None


def validate_dp_dtype(name: str) -> str:
    """Validate a ``dp_dtype`` knob value (``auto`` or a policy name)."""
    if name not in DP_DTYPE_CHOICES:
        raise ConfigError(
            f"unknown dp dtype {name!r} (choose from {DP_DTYPE_CHOICES})")
    return name


def resolve_dp_dtype(dp_dtype: str, scoring, *, block_cols: int,
                     m: int, n: int, local: bool = True) -> DpPolicy:
    """Pick the concrete :class:`DpPolicy` for a run.

    ``"auto"`` picks ``int16`` only when it can never escalate: the
    scoring scheme must fit (:meth:`DpPolicy.supports`), the effective
    sweep width ``min(block_cols, n)`` must be within
    :meth:`DpPolicy.max_width`, and the largest possible local score
    (``match * min(m, n)``) must stay under the overflow cap; otherwise
    it picks ``int32``.  An explicit ``int16`` is honoured whenever the
    width fits (escalation absorbs any overflow) and falling back is an
    error, keeping the knob predictable; non-local sweeps always compute
    wide (traceback stages reuse borders as signed intermediates that
    the narrow clip would corrupt).
    """
    validate_dp_dtype(dp_dtype)
    eff_w = max(1, min(block_cols, n))
    if dp_dtype == "auto":
        policy = POLICIES["int16"]
        if (local and policy.supports(scoring)
                and eff_w <= policy.max_width(scoring)
                and scoring.match * min(m, n)
                < policy.overflow_limit(scoring, eff_w)):
            return policy
        return POLICIES["int32"]
    policy = POLICIES[dp_dtype]
    if policy.narrow:
        if not local:
            raise ConfigError(
                f"dp_dtype={dp_dtype!r} requires local alignment sweeps")
        if not policy.supports(scoring):
            raise ConfigError(
                f"scoring scheme exceeds {dp_dtype} sentinel headroom "
                f"(open={scoring.gap_open} extend={scoring.gap_extend} "
                f"worst substitution={int(scoring.matrix.min())})")
        if eff_w > policy.max_width(scoring):
            raise ConfigError(
                f"block width {eff_w} exceeds {dp_dtype} max sweep width "
                f"{policy.max_width(scoring)} under this scoring scheme")
    return policy
