"""Lazy package re-exports: a command imports only the modules it uses.

:func:`lazy_package` turns a package's ``from .mod import name`` lines
into names resolved on first access (the PEP 562 module ``__getattr__``
protocol), so ``import repro.cli`` no longer pulls in the HTTP exporter,
the autotuner or the serving layer just because a package
``__init__`` re-exports them.
"""

from __future__ import annotations

import sys
import types
from importlib import import_module
from typing import Mapping, Sequence


class _LazyPackage(types.ModuleType):
    """A package whose re-exports and sub-packages load on first access."""

    _lazy_sources: dict[str, str]

    def __getattr__(self, name: str):
        # Only called for a name the package does not hold yet.
        source = self._lazy_sources.get(name)
        if source is None:
            raise AttributeError(
                f"module {self.__name__!r} has no attribute {name!r}")
        module = import_module(source, self.__name__)
        setattr(self, name,
                module if source == "." + name else getattr(module, name))
        return self.__dict__[name]

    def __setattr__(self, name: str, value) -> None:
        # Importing a submodule binds it on its package.  Where a
        # re-export shares the submodule's name (multigpu's ``autotune``
        # function in ``multigpu.autotune``) the re-export must win, as it
        # did when the package imported it eagerly.
        source = self._lazy_sources.get(name)
        if (isinstance(value, types.ModuleType) and source == "." + name
                and name in vars(value)):
            value = getattr(value, name)
        super().__setattr__(name, value)

    def __dir__(self):
        return sorted({*self.__dict__, *self._lazy_sources})


def lazy_package(package: str, exports: Mapping[str, Sequence[str]],
                 subpackages: Sequence[str] = ()) -> None:
    """Make *package* resolve each name of ``exports[module]`` from that
    relative *module*, and each of *subpackages*, on first access."""
    sources = {name: module for module, names in exports.items()
               for name in names}
    sources.update({name: "." + name for name in subpackages})
    mod = sys.modules[package]
    mod._lazy_sources = sources
    mod.__class__ = _LazyPackage
