"""Probability computation: exact, approximate, and distributed (Section 4)."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".compiler": ("SCHEMES", "ShannonCompiler", "compile_network", "make_evaluator"),
        ".distributed": ("DistributedCompiler", "Job", "compile_distributed"),
        ".folded_eval": ("FoldedEvaluator",),
        ".ordering": (
            "ConeInfluenceOrder",
            "DynamicInfluenceOrder",
            "FrequencyOrder",
            "GivenOrder",
            "make_order",
        ),
        ".partial": ("B_FALSE", "B_TRUE", "B_UNKNOWN", "NumState", "PartialEvaluator"),
        ".result": ("CompilationResult",),
    },
)
