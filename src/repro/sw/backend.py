"""Kernel backend registry: ``--kernel`` validation and resolution.

The library ships three block-sweep kernels:

``scalar``
    One NumPy row loop per block (``sw/kernel.py``).  Always available;
    the oracle the differential suites compare the others against.
``batched``
    Stacked ``(B, W)`` wavefront sweeps (``sw/batched.py``).  Always
    available.
``compiled``
    The C row engine (``sw/compiled.py``, ``sw/rowsweep.c``), built on
    first use with the host's C compiler.  Where it does not build or
    load, the *library* still accepts ``kernel="compiled"`` and runs the
    scalar sweep (same code path, same results), while the *CLI*
    refuses it with a clear error so users don't time the scalar sweep
    under the compiled kernel's name.

``auto``, the default, is one static rule on every front door (both
``mgsw align`` backends, ``mgsw submit`` and
``AlignConfig.concrete()``): ``compiled`` where the C engine loads,
else ``scalar``.  Resolving it builds or loads the engine in the
calling process, so engines resolve before they start workers.
"""

from __future__ import annotations

from ..errors import ConfigError

#: Every kernel name the engines understand, available or not.
KERNELS = ("scalar", "batched", "compiled")

#: Kernels that need no C compiler.
CORE_KERNELS = ("scalar", "batched")

#: What the CLI accepts: the kernel universe plus the static ``auto`` rule.
KERNEL_CHOICES = ("auto",) + KERNELS


def engine_available() -> bool:
    """Whether the C row engine builds and loads in this process (the
    first call builds or loads it)."""
    from .compiled import engine

    return engine() is not None


def available_kernels() -> tuple[str, ...]:
    """The kernels that run at full capability in this process."""
    if engine_available():
        return KERNELS
    return CORE_KERNELS


def validate_kernel(kernel: str) -> str:
    """Reject unknown kernel names with one shared error message.

    Membership check only — ``compiled`` passes even without the C
    engine (the library runs the scalar sweep); use
    :func:`require_kernel` where an unavailable pick must fail loudly
    instead.
    """
    if kernel not in KERNELS:
        raise ConfigError(f"unknown kernel {kernel!r}; expected one of {KERNELS}")
    return kernel


def require_kernel(kernel: str) -> str:
    """:func:`validate_kernel` plus a hard availability check.

    The CLI front door: an explicit ``--kernel compiled`` without the C
    engine is a user error worth a clear message, not a silent scalar
    run whose numbers would then be attributed to the compiled kernel.
    """
    validate_kernel(kernel)
    if kernel == "compiled" and not engine_available():
        raise ConfigError(
            "kernel 'compiled' needs the C row engine, which did not build "
            "or load here (is a C compiler on PATH, or $CC set?); "
            f"available kernels here: {available_kernels()} — or use "
            "--kernel auto to degrade")
    return kernel


def resolve_kernel(kernel: str) -> str:
    """Resolve a ``--kernel`` choice to a concrete kernel name.

    Concrete names pass through :func:`require_kernel`.  ``auto`` is the
    one static rule: ``compiled`` where the C engine loads, else
    ``scalar`` — so ``auto`` *degrades* where an explicit ``compiled``
    errors.
    """
    if kernel != "auto":
        return require_kernel(kernel)
    return "compiled" if engine_available() else "scalar"
