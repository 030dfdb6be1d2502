"""ENFrame: a platform for processing probabilistic data.

A from-scratch Python reproduction of "ENFrame: A Platform for Processing
Probabilistic Data" (van Schaik, Olteanu, Fink — EDBT 2014): user
programs over uncertain input are interpreted under the possible-worlds
semantics by tracing them with fine-grained provenance events, compiling
the events into networks, and computing output probabilities exactly or
with anytime ε-guarantees, sequentially or distributed.

Quickstart::

    from repro import ENFrame, KMedoidsSpec

    platform = ENFrame.from_sensor_data(24, scheme="mutex", seed=1)
    platform.kmedoids(KMedoidsSpec(k=2, iterations=3))
    print(platform.run(scheme="hybrid", epsilon=0.1).summary())

Exports are lazy: ``import repro`` (and every subpackage import) loads
nothing but the package itself; the module defining a name is imported
the first time that name is read (:mod:`repro._lazy`).  NumPy is first
imported by whichever module needs it.
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".core.platform": ("ENFrame",),
        ".core.result": ("ProbabilisticResult",),
        ".data.datasets": (
            "ProbabilisticDataset",
            "certain_dataset",
            "sensor_dataset",
        ),
        ".engine.registry": ("SchemeOptions",),
        ".mining.kmeans": ("KMeansSpec",),
        ".mining.kmedoids": ("KMedoidsSpec",),
        ".mining.markov": ("MCLSpec",),
        ".session.whatif": ("WhatIfSession",),
        ".worlds.variables": ("VariablePool",),
    },
)
__all__ += ["__version__"]
