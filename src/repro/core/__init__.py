"""The ENFrame platform facade."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {".platform": ("ENFrame",), ".result": ("ProbabilisticResult",)},
)
