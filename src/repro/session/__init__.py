"""Interactive what-if sessions over compiled event networks."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__, {".whatif": ("WhatIfSession",)}
)
