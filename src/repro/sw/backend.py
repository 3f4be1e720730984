"""Kernel backend registry: capability probing and ``--kernel`` resolution.

The library ships three block-sweep kernels:

``scalar``
    One NumPy row loop per block (``sw/kernel.py``).  Always available;
    the default.
``batched``
    Stacked ``(B, W)`` wavefront sweeps (``sw/batched.py``).  Always
    available.
``compiled``
    Numba-jitted fused row sweeps (``sw/compiled.py``).  Needs the
    optional ``numba`` dependency (``pip install .[compiled]``); without
    it the *library* still accepts ``kernel="compiled"`` and runs the
    scalar sweep (same code path, same results), while the *CLI*
    refuses it with a clear error so users don't time the scalar sweep
    under the JIT's name.

``auto`` is one static rule on every front door — both ``mgsw align``
backends, ``mgsw submit`` and ``AlignConfig.concrete()``: ``compiled``
where numba imports, else ``scalar``.

Capabilities are probed exactly once at import: ``import numba``
inside a ``try`` so a missing or broken optional install can never
take the core library down.  Set
``MGSW_NO_NUMBA=1`` to force the fallback path even where numba is
installed — CI uses it to exercise the degraded matrix.
"""

from __future__ import annotations

import os

from ..errors import ConfigError

#: Every kernel name the engines understand, available or not.
KERNELS = ("scalar", "batched", "compiled")

#: Kernels that need no optional dependency.
CORE_KERNELS = ("scalar", "batched")

#: What the CLI accepts: the kernel universe plus the static ``auto`` rule.
KERNEL_CHOICES = ("auto",) + KERNELS


def _probe_numba():
    """Import numba if present and not disabled; never raises."""
    if os.environ.get("MGSW_NO_NUMBA"):
        return None
    try:
        import numba  # type: ignore[import-not-found]
    except Exception:  # ImportError, or a broken install — same answer
        return None
    return numba


#: Probe result, set once at import.  Tests monkeypatch it (and call
#: :func:`repro.sw.compiled.reset_jit`) to simulate either environment.
NUMBA = _probe_numba()


def numba_available() -> bool:
    return NUMBA is not None


def available_kernels() -> tuple[str, ...]:
    """The kernels that run at full capability in this process."""
    if numba_available():
        return KERNELS
    return CORE_KERNELS


def validate_kernel(kernel: str) -> str:
    """Reject unknown kernel names with one shared error message.

    Membership check only — ``compiled`` passes even without numba
    (the library runs the scalar sweep); use :func:`require_kernel`
    where an unavailable pick must fail loudly instead.
    """
    if kernel not in KERNELS:
        raise ConfigError(f"unknown kernel {kernel!r}; expected one of {KERNELS}")
    return kernel


def require_kernel(kernel: str) -> str:
    """:func:`validate_kernel` plus a hard availability check.

    The CLI front door: an explicit ``--kernel compiled`` without numba
    is a user error worth a clear message, not a silent scalar run
    whose numbers would then be attributed to the JIT backend.
    """
    validate_kernel(kernel)
    if kernel == "compiled" and not numba_available():
        raise ConfigError(
            "kernel 'compiled' needs the optional numba dependency "
            "(pip install '.[compiled]'); available kernels here: "
            f"{available_kernels()} — or use --kernel auto to degrade")
    return kernel


def resolve_kernel(kernel: str) -> str:
    """Resolve a ``--kernel`` choice to a concrete kernel name.

    Concrete names pass through :func:`require_kernel`.  ``auto`` is the
    one static rule: ``compiled`` where numba imports, else ``scalar``
    — so ``auto`` *degrades* where an explicit ``compiled`` errors.
    """
    if kernel != "auto":
        return require_kernel(kernel)
    return "compiled" if numba_available() else "scalar"
