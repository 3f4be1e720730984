"""Smith-Waterman substrate: kernels, blocks, pruning, traceback stages.

Layering (bottom up):

* :mod:`repro.sw.scan` — the shared E-scan recurrence (one sequential
  prefix-max, two layouts).
* :mod:`repro.sw.kernel` — the vectorised Gotoh row-sweep ("GPU kernel")
  and its profile cache.
* :mod:`repro.sw.batched` — batched wavefront kernel + workspace arena
  (one stacked sweep per anti-diagonal).
* :mod:`repro.sw.backend` — kernel registry + capability probing
  (``--kernel`` validation and resolution).
* :mod:`repro.sw.compiled` — the C row engine (``rowsweep.c``), built
  on first use and loaded through ctypes (the scalar sweep where it
  does not build).
* :mod:`repro.sw.naive` — full-matrix oracle used by the tests.
* :mod:`repro.sw.blocks` — block grid + single-device blocked executor.
* :mod:`repro.sw.pruning` — block pruning for similar sequences.
* :mod:`repro.sw.myers_miller` — linear-space global alignment.
* :mod:`repro.sw.stages` — the multi-stage local-alignment pipeline.
* :mod:`repro.sw.xdrop` — heuristic tier: X-drop extension, the adaptive
  band engine, and the ``mode="auto"`` confidence check.
* :mod:`repro.sw.config` — :class:`AlignConfig`, the seven comparison
  knobs every engine, the CLI and serve share.
"""

from .alignment import Alignment, from_ops
from .backend import (
    KERNEL_CHOICES,
    KERNELS,
    available_kernels,
    engine_available,
    require_kernel,
    resolve_kernel,
    validate_kernel,
)
from .batched import BlockJob, KernelWorkspace, sweep_wavefront
from .compiled import sweep_block_compiled
from .compiled import warmup as compiled_warmup
from .scan import escan_row, escan_segmented
from .blocks import BlockSpec, BlockedOutcome, compute_blocked, grid_specs, wavefront_order
from .config import AlignConfig, resolve_config
from .constants import (
    DP_DTYPE_CHOICES,
    DP_DTYPES,
    NEG_INF,
    POLICIES,
    DpPolicy,
    get_policy,
    resolve_dp_dtype,
    validate_dp_dtype,
)
from .diagonal import sw_score_diagonal
from .kernel import (BestCell, BlockResult, ProfileCache, build_profile,
                     cached_profile, sw_score, sweep_block)
from .myers_miller import align_global, global_score
from .naive import align_naive, full_matrices, sw_score_naive
from .pruning import BlockPruner
from .rowstore import BudgetedRowStore, StoreStats
from .xdrop import (
    DEFAULT_BAND_WIDTH,
    DEFAULT_XDROP_X,
    MODES,
    BandedOutcome,
    HeuristicDecision,
    XDropOutcome,
    adaptive_banded_score,
    assess_heuristic,
    band_intersects,
    significance_threshold,
    validate_mode,
    xdrop_score,
)
from .stages import (
    CrossingPoint,
    Stage1Result,
    align_local,
    stage1_score,
    stage2_with_crossings,
    stage3_align,
)

__all__ = [
    "Alignment",
    "from_ops",
    "KERNELS",
    "KERNEL_CHOICES",
    "available_kernels",
    "engine_available",
    "require_kernel",
    "resolve_kernel",
    "validate_kernel",
    "sweep_block_compiled",
    "compiled_warmup",
    "escan_row",
    "escan_segmented",
    "BlockJob",
    "KernelWorkspace",
    "ProfileCache",
    "cached_profile",
    "sweep_wavefront",
    "BlockSpec",
    "BlockedOutcome",
    "compute_blocked",
    "grid_specs",
    "wavefront_order",
    "NEG_INF",
    "DP_DTYPES",
    "DP_DTYPE_CHOICES",
    "POLICIES",
    "DpPolicy",
    "get_policy",
    "resolve_dp_dtype",
    "validate_dp_dtype",
    "BestCell",
    "BlockResult",
    "build_profile",
    "sw_score",
    "sw_score_diagonal",
    "sweep_block",
    "align_global",
    "global_score",
    "align_naive",
    "full_matrices",
    "sw_score_naive",
    "BlockPruner",
    "BudgetedRowStore",
    "StoreStats",
    "CrossingPoint",
    "Stage1Result",
    "align_local",
    "stage1_score",
    "stage2_with_crossings",
    "stage3_align",
    "AlignConfig",
    "resolve_config",
    "DEFAULT_BAND_WIDTH",
    "DEFAULT_XDROP_X",
    "MODES",
    "BandedOutcome",
    "HeuristicDecision",
    "XDropOutcome",
    "adaptive_banded_score",
    "assess_heuristic",
    "band_intersects",
    "significance_threshold",
    "validate_mode",
    "xdrop_score",
]
