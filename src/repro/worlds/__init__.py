"""Possible worlds: random variables, enumeration, and the naive baseline."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".variables": (
            "Valuation",
            "Variable",
            "VariablePool",
            "random_pool",
            "total_valuations",
        ),
        ".naive": ("lineage_nodes", "naive_probabilities", "naive_probabilities_scalar"),
    },
)
