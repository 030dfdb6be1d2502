"""Event networks: DAG representation of event programs (Section 4.1)."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".build": ("NetworkBuilder", "build_network", "build_targets"),
        ".folded": ("FoldedBuilder", "FoldedNetwork", "LoopCVal", "LoopEvent"),
        ".nodes": ("EventNetwork", "Kind", "Node"),
    },
)
