"""repro — multi-GPU megabase Smith-Waterman (PPoPP 2014 reproduction).

The library reproduces "Fine-grain parallel megabase sequence comparison
with multiple heterogeneous GPUs" (De Sandes et al., PPoPP 2014): one huge
exact Smith-Waterman matrix computed by a logical chain of (simulated)
GPUs that exchange border columns through circular buffers.

Quick start::

    import repro
    from repro.device import ENV1_HETEROGENEOUS

    a, b = repro.workloads.synthesize_pair(repro.workloads.get_pair("chr22"),
                                           scale=2e-4)
    result = repro.align_multi_gpu(a, b, repro.seq.DNA_DEFAULT,
                                   ENV1_HETEROGENEOUS)
    print(result.score, f"{result.gcups:.1f} GCUPS (virtual)")

Sub-packages:

===================  ====================================================
``repro.seq``        alphabet, encoding, scoring, FASTA IO
``repro.workloads``  synthetic chromosome pairs (the paper's datasets)
``repro.sw``         SW kernels, blocks, pruning, traceback stages
``repro.device``     virtual-time engine + simulated GPUs
``repro.comm``       circular buffers + border channels
``repro.multigpu``   the paper's multi-GPU chain (core contribution)
``repro.baselines``  single-GPU / CPU / inter-task comparators
``repro.perf``       GCUPS metrics and report tables
``repro.obs``        telemetry: metrics, manifests, traces, watchdogs
===================  ====================================================
"""

from ._lazy import lazy_package
from .errors import ReproError

__version__ = "1.0.0"

# Sub-packages and re-exports load on first access, so a command imports
# only what it uses.
lazy_package(__name__, {
    ".multigpu.chain": ("ChainConfig", "ChainResult", "align_multi_gpu",
                        "time_multi_gpu"),
    ".multigpu.front": ("ProcessChainResult", "align_multi_process"),
    ".multigpu.pool": ("WorkerPool",),
    ".sw.stages": ("align_local",),
    ".sw.kernel": ("sw_score",),
}, subpackages=("baselines", "comm", "device", "multigpu", "obs", "perf",
                "seq", "stats", "sw", "workloads"))

__all__ = [
    "baselines",
    "comm",
    "device",
    "multigpu",
    "obs",
    "perf",
    "seq",
    "stats",
    "sw",
    "workloads",
    "ReproError",
    "ChainConfig",
    "ChainResult",
    "ProcessChainResult",
    "WorkerPool",
    "align_multi_gpu",
    "align_multi_process",
    "time_multi_gpu",
    "align_local",
    "sw_score",
    "__version__",
]
