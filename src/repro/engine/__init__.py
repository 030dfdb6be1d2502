"""The unified evaluation-engine layer.

Four pieces compose into one substrate shared by every probability
computation scheme:

* :mod:`repro.engine.ir` — flattens an event network once into
  topologically-ordered NumPy arrays (kind codes, CSR operand tables,
  constants), cached per network;
* :mod:`repro.engine.masked` — lowers those arrays into the one
  program every evaluator runs (scalar lanes, folded iterations
  unrolled), and the Shannon compiler's partial-evaluation abstraction
  as columns over it, with per-variable cone recomputation on ``push``
  and trailed column restores on ``pop``;
* :mod:`repro.engine.bulk` — evaluates every compilation target over
  *all* possible worlds (or all Monte Carlo samples) of a batch in one
  sweep of that program, replacing per-valuation recursion;
* :mod:`repro.engine.registry` — the scheme registry through which the
  platform facade, the CLI, the distributed compiler, and the benchmark
  harness all dispatch; schemes declare capabilities (epsilon-aware,
  statistical-bounds, distributed-capable) so new workloads plug in
  without touching the callers.
"""

from .bulk import (
    BulkEvaluator,
    bulk_monte_carlo_probabilities,
    bulk_naive_probabilities,
    make_bulk_evaluator,
)
from .ir import (
    FlatNetwork,
    FoldedFlatIR,
    UnsupportedNetworkError,
    flatten,
    flatten_folded,
)
from .masked import MaskedEvaluator, MaskedProgram, masked_program
from .registry import (
    CAP_BULK,
    CAP_DISTRIBUTED,
    CAP_EPSILON,
    CAP_EXACT,
    CAP_STATISTICAL,
    CAP_TIMEOUT,
    SchemeOptions,
    SchemeSpec,
    available_schemes,
    get_scheme,
    has_capability,
    register_scheme,
    reset_registry,
    run_scheme,
    unregister_scheme,
)

__all__ = [
    "BulkEvaluator",
    "FoldedFlatIR",
    "CAP_BULK",
    "CAP_DISTRIBUTED",
    "CAP_EPSILON",
    "CAP_EXACT",
    "CAP_STATISTICAL",
    "CAP_TIMEOUT",
    "FlatNetwork",
    "MaskedEvaluator",
    "MaskedProgram",
    "SchemeOptions",
    "SchemeSpec",
    "UnsupportedNetworkError",
    "masked_program",
    "available_schemes",
    "bulk_monte_carlo_probabilities",
    "bulk_naive_probabilities",
    "flatten",
    "flatten_folded",
    "get_scheme",
    "has_capability",
    "make_bulk_evaluator",
    "register_scheme",
    "reset_registry",
    "run_scheme",
    "unregister_scheme",
]
