"""The unified evaluation-engine layer.

Four pieces compose into one substrate shared by every probability
computation scheme:

* :mod:`repro.engine.ir` — flattens an event network, plain or folded,
  once into one record of topologically-ordered NumPy arrays (kind
  codes, CSR operand tables, constants, loop slots), cached per network
  and private to the lowering;
* :mod:`repro.engine.masked` — lowers that record into the one program
  every evaluator runs (folded iterations unrolled — a plain network is
  the case with no loop slots and one iteration — then scalar lanes),
  and the Shannon compiler's partial-evaluation abstraction as columns
  over it, with per-variable cone recomputation on ``push`` and trailed
  column restores on ``pop``;
* :mod:`repro.engine.bulk` — evaluates every compilation target over
  *all* possible worlds (or all Monte Carlo samples) of a batch in one
  sweep of that program, replacing per-valuation recursion;
* :mod:`repro.engine.registry` — the scheme registry through which the
  platform facade, the CLI, the distributed compiler, and the benchmark
  harness all dispatch; schemes declare capabilities (epsilon-aware,
  statistical-bounds, distributed-capable) so new workloads plug in
  without touching the callers.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".bulk": (
            "BulkEvaluator",
            "bulk_monte_carlo_probabilities",
            "bulk_naive_probabilities",
            "make_bulk_evaluator",
        ),
        ".ir": ("UnsupportedNetworkError",),
        ".masked": ("MaskedEvaluator", "MaskedProgram", "masked_program"),
        ".registry": (
            "CAP_BULK",
            "CAP_DISTRIBUTED",
            "CAP_EPSILON",
            "CAP_EXACT",
            "CAP_STATISTICAL",
            "CAP_TIMEOUT",
            "SchemeOptions",
            "SchemeSpec",
            "available_schemes",
            "get_scheme",
            "has_capability",
            "register_scheme",
            "reset_registry",
            "run_scheme",
            "unregister_scheme",
        ),
    },
)
