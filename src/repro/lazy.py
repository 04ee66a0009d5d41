"""Package names that resolve on first access (PEP 562).

Every package ``__init__`` in ``repro`` re-exports its public names
through :func:`export_lazily` instead of importing its submodules, so
``import repro.service`` loads two small modules and a lane that runs
updates never loads the design-time tools (Algorithm AMS, the design
aid), the relational baselines or possible worlds. The first
``repro.fdb.Truth`` or ``from repro.fdb import Truth`` imports
``repro.fdb.logic`` and binds the name on the package, so every later
lookup is a plain attribute read.
"""

from __future__ import annotations

import sys
from importlib import import_module
from types import ModuleType


class _Package(ModuleType):
    def __setattr__(self, name: str, value) -> None:
        # Import binds each submodule it loads on its package. A name
        # the package exports from a submodule of the same spelling
        # (core's ``minimal_schema``) keeps naming the export, as it did
        # when package inits imported eagerly.
        if not (isinstance(value, ModuleType) and name in self.__all__):
            super().__setattr__(name, value)


def export_lazily(package: str,
                  exports: dict[str, tuple[str, ...]]) -> list[str]:
    """Install ``__getattr__`` and ``__dir__`` on ``package`` so each
    name in ``exports[module]`` imports from ``module`` (relative to
    ``package``) when first read. Returns the names, for ``__all__``."""
    namespace = sys.modules[package].__dict__
    origin = {name: module
              for module, names in exports.items() for name in names}

    def __getattr__(name: str):
        if name not in origin:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(origin[name], package), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | origin.keys())

    namespace["__getattr__"] = __getattr__
    namespace["__dir__"] = __dir__
    sys.modules[package].__class__ = _Package
    return list(origin)
