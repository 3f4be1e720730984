"""The comparison config: the seven knobs of the block-sweep contract,
declared, defaulted and validated once for every engine, the CLI and
serve (INTERNALS.md section 15)."""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from numbers import Integral

from ..errors import ConfigError
from .backend import resolve_kernel, validate_kernel
from .constants import validate_dp_dtype
from .tiers import BANDED_MODES, validate_tiers
from .xdrop import DEFAULT_BAND_WIDTH, DEFAULT_XDROP_X


@dataclass(frozen=True)
class AlignConfig:
    """``block_rows`` (the largest block row height: the real-process
    engine runs :func:`block_height` of it, the simulated chain exactly
    it), ``kernel`` (block sweep kernel, or ``auto``), ``pruning``
    (exact block pruning from a seeded floor, on by default), ``mode`` with its ``band_width`` and
    ``xdrop_x`` (the tier, :mod:`repro.sw.tiers`) and ``dp_dtype`` (the
    DP dtype policy, exact).  ``band_width`` is the adaptive band's
    initial half-width for ``banded``/``auto``; the band recentres and
    may widen up to :data:`~repro.sw.tiers.MAX_WIDENING` times it.
    Construction refuses a bad field with :class:`ConfigError`."""

    block_rows: int = 512
    kernel: str = "auto"
    pruning: bool = True
    mode: str = "exact"
    band_width: int = DEFAULT_BAND_WIDTH
    xdrop_x: int = DEFAULT_XDROP_X
    dp_dtype: str = "auto"

    def __post_init__(self) -> None:
        for name in ("block_rows", "band_width", "xdrop_x"):
            value = getattr(self, name)
            if not isinstance(value, Integral) or isinstance(value, bool):
                raise ConfigError(f"{name} must be an int, got {value!r}")
        if self.block_rows <= 0:
            raise ConfigError("block_rows must be positive")
        if not isinstance(self.pruning, bool):
            raise ConfigError(f"pruning must be a bool, got {self.pruning!r}")
        if self.kernel != "auto":
            validate_kernel(self.kernel)
        validate_tiers(self.mode, self.band_width, self.xdrop_x)
        validate_dp_dtype(self.dp_dtype)

    def answer_key(self) -> dict:
        """The fields that can change the answer: ``mode`` and
        ``dp_dtype``, plus ``band_width`` for the banded modes and
        ``xdrop_x`` for ``xdrop``.  The other three are proven
        bit-identical strategies (INTERNALS.md sections 6, 7, 11)."""
        key = {"mode": self.mode, "dp_dtype": self.dp_dtype}
        if self.mode in BANDED_MODES:
            key["band_width"] = self.band_width
        if self.mode == "xdrop":
            key["xdrop_x"] = self.xdrop_x
        return key

    def concrete(self):
        """This config with ``kernel="auto"`` resolved by the one static
        rule of :func:`~repro.sw.backend.resolve_kernel`."""
        if self.kernel != "auto":
            return self
        return replace(self, kernel=resolve_kernel("auto"))


#: Fewest rows :func:`block_height` picks (unless the cap is smaller).
MIN_BLOCK_ROWS = 64


def block_height(block_rows: int, m: int, workers: int) -> int:
    """The real-process engine's block row height for an *m*-row query
    on a chain of *workers*: ``min(block_rows, max(64, ceil(m / (8 *
    workers))))``.  The last worker idles until the first block row's
    border has crossed the chain, so short rows shrink that pipeline
    fill; at least 8 block rows per worker keeps it a small share of the
    run, and 64 rows bound the per-block fixed cost.  *block_rows* is a
    cap: an explicit smaller height wins."""
    eighth = -(-m // (8 * workers))  # ceil division
    return min(block_rows, max(MIN_BLOCK_ROWS, eighth))


#: The field names, in declaration order.
CONFIG_FIELDS: tuple[str, ...] = tuple(f.name for f in fields(AlignConfig))


def resolve_config(config: AlignConfig | None = None, /,
                   **overrides) -> AlignConfig:
    """The validated, :meth:`~AlignConfig.concrete`, plain config an
    engine runs: *config* (any subclass, or the defaults) with keyword
    *overrides* of its fields (an unknown one raises ``TypeError``)."""
    base = {} if config is None else {n: getattr(config, n)
                                      for n in CONFIG_FIELDS}
    return AlignConfig(**{**base, **overrides}).concrete()
