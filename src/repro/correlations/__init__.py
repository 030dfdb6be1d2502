"""Correlation models: the paper's lineage schemes and Bayesian networks."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".bayes": ("BayesianNetwork", "BayesNode", "markov_chain"),
        ".schemes": (
            "Lineage",
            "SCHEME_FACTORIES",
            "conditional_lineage",
            "independent_lineage",
            "make_lineage",
            "mutex_lineage",
            "positive_lineage",
        ),
    },
)
