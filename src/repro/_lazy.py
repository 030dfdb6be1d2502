"""Lazy package exports (PEP 562).

A package ``__init__`` names each public attribute and the submodule
that defines it; the submodule is imported the first time the name is
read, not when the package is.  ``import repro`` therefore loads no
NumPy, and a CLI subcommand pays only for the modules it runs::

    __all__, __getattr__, __dir__ = lazy_exports(__name__, {
        ".platform": ("ENFrame",),
        ".result": ("ProbabilisticResult",),
    })
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Sequence, Tuple


def lazy_exports(
    package: str, exports: Dict[str, Sequence[str]]
) -> Tuple[List[str], Callable[[str], object], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for *package*.

    ``exports`` maps a module (relative to *package*) to the names it
    contributes.  A resolved name is stored on the package, so each is
    looked up once.
    """
    owner = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        module = owner.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module, package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | owner.keys())

    return sorted(owner), __getattr__, __dir__
