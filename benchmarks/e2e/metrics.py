"""The one place a workload, metric, unit, bound or prediction is defined.

``BENCHMARK.json`` at the repository root is generated from this module
(``python3 benchmarks/e2e/run.py --write-benchmark-json``) and
``--selftest`` fails when the two differ.  The module is standard
library only: the parent process of the benchmark imports it and must
never import ``repro``.

``moves`` is the prediction, written before measuring, of which
end-to-end number a layer metric should move when the layer gets
faster — and nothing else should.  ``BENCHMARK.json`` has no field for
it, so it lives here and in the README table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence

COMMAND = ["python3", "benchmarks/e2e/run.py"]
PATHS = ["benchmarks/e2e"]
RUN_SECONDS = 15
DEFAULT_SEED = 20140324  # EDBT 2014 opened on 24 March 2014

#: Fresh processes that perform set-up per run (the measuring child is
#: one of them): three stop before the measured window, two after it.
SETUP_CHILDREN_BEFORE = 3
SETUP_CHILDREN_AFTER = 2


@dataclass(frozen=True)
class Workload:
    name: str
    why: str


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float
    definition: str


@dataclass(frozen=True)
class Layer:
    name: str
    unit: str
    better: str
    moves: str


WORKLOADS: Sequence[Workload] = (
    Workload(
        "cli-cold",
        "one fresh `repro cluster` process per op: the front end (interpreter, "
        "imports, data, network, flatten, kernel load) does the work and "
        "Shannon almost none",
    ),
    Workload(
        "shannon-deep",
        "networks built once, op = exact+eager+hybrid on k-medoids (python "
        "tier) and exact on MCL (native tier): masked cone sweeps and the "
        "compiler loop are all of it",
    ),
    Workload(
        "bulk-worlds",
        "source text to answer with cold caches through lang/ and the "
        "packed/bulk world sweep (naive + Monte Carlo, flat and folded IR); "
        "Shannon never runs",
    ),
    Workload(
        "serve-mix",
        "one ServerThread and one client: 40 cache hits, 5 engine misses, a "
        "network swap and a re-warm per op, the only path through HTTP, the "
        "queue and the artifact cache",
    ),
    Workload(
        "whatif-walk",
        "one WhatIfSession edited in place (assert, retract, set_probability, "
        "re-query): the masked engine's writes beside shannon-deep's reads",
    ),
)

END_TO_END: Sequence[EndToEnd] = (
    EndToEnd(
        "setup_s", "s", "lower", 0.25,
        "parent-timestamped spawn to ready for the first op (interpreter, "
        "import repro, inputs, network, caches, kernel load, one warm-up "
        "op); second-fastest of six fresh children per run",
    ),
    EndToEnd(
        "op_p50_s", "s", "lower", 0.25,
        "median wall time of an op; an op is a fixed basket, so spread "
        "between ops is noise and not mix",
    ),
    EndToEnd(
        "op_fast_s", "s", "lower", 0.20,
        "10th percentile of op wall time: what the code costs when the "
        "shared machine leaves it alone",
    ),
    EndToEnd(
        "peak_rss_mb", "MiB", "lower", 0.05,
        "ru_maxrss of the measuring child and its waited-for descendants "
        "at the end of the window",
    ),
)

_FRONT = "op_p50_s/op_fast_s on cli-cold; setup_s everywhere"
_SHANNON = (
    "op_p50_s/op_fast_s on shannon-deep; through misses and re-queries "
    "serve-mix and whatif-walk; cli-cold < 15 %; bulk-worlds none"
)
_PACKED = (
    "op_p50_s/op_fast_s on bulk-worlds (~90 %); serve-mix via the one "
    "bulk miss; nothing else"
)
_SERVE = "op_p50_s/op_fast_s on serve-mix only"
_SESSION = "op_p50_s/op_fast_s on whatif-walk only"
_NONE = "nothing: it describes the run, not the program"

PER_LAYER: Sequence[Layer] = (
    Layer("process.python_start_ms", "ms", "lower",
          "cli-cold op (~30 % with the two imports) and setup_s everywhere; "
          "no in-process op metric"),
    Layer("process.import_numpy_ms", "ms", "lower",
          "cli-cold op and setup_s everywhere"),
    Layer("process.import_repro_ms", "ms", "lower",
          "cli-cold op and setup_s everywhere"),
    Layer("data.sensor_dataset_ms", "ms", "lower",
          "cli-cold op (~15 % with mining/network), bulk-worlds (~5 %); "
          "setup_s elsewhere"),
    Layer("lang.translate_ms", "ms", "lower", "bulk-worlds op (~5 %) only"),
    Layer("mining.build_program_ms", "ms", "lower",
          "cli-cold op, bulk-worlds op (folded builder); setup_s elsewhere"),
    Layer("network.build_ms", "ms", "lower",
          "cli-cold op, bulk-worlds op; setup_s elsewhere"),
    Layer("network.nodes", "count", "lower",
          "every later stage of the same workload, proportionally"),
    Layer("engine.ir.flatten_ms", "ms", "lower",
          "cli-cold op (~25 % with masked program and kernel load), "
          "bulk-worlds op; setup_s elsewhere"),
    Layer("engine.ir.flatten_folded_ms", "ms", "lower", "bulk-worlds op only"),
    Layer("engine.masked.program_ms", "ms", "lower", _FRONT),
    Layer("engine.masked.rows", "count", "lower",
          "engine.masked.program_ms and every cone sweep"),
    Layer("engine.kernels.load_ms", "ms", "lower", _FRONT),
    Layer("engine.kernels.cold_build_ms", "ms", "lower",
          "the first run on a machine only (the benchmark primes the cache)"),
    Layer("compile.shannon.kmedoids_ms", "ms", "lower", _SHANNON),
    Layer("compile.shannon.mcl_ms", "ms", "lower", "shannon-deep only"),
    Layer("compile.shannon.tree_nodes", "count", "lower", _SHANNON),
    Layer("compile.shannon.evals", "count", "lower", _SHANNON),
    Layer("compile.shannon.us_per_node", "us", "lower", _SHANNON),
    Layer("engine.masked.push_us", "us", "lower",
          "k-medoids share of shannon-deep, serve-mix misses, whatif-walk"),
    Layer("engine.kernels.push_us", "us", "lower",
          "MCL share of shannon-deep only"),
    Layer("engine.kernels.native_share", "ratio", "higher",
          "shannon-deep if vector c-values reach the array sweep "
          "(1/4 today; 0 on cli-cold, serve-mix, whatif-walk)"),
    Layer("engine.packed.naive_ms", "ms", "lower", _PACKED),
    Layer("engine.packed.montecarlo_ms", "ms", "lower", _PACKED),
    Layer("engine.packed.folded_ms", "ms", "lower", "bulk-worlds only"),
    Layer("engine.packed.plan_ms", "ms", "lower",
          "bulk-worlds only (every op plans on a fresh network)"),
    Layer("engine.packed.mworlds_per_s", "Mworlds/s", "higher", _PACKED),
    Layer("serve.hit_ms", "ms", "lower",
          "serve-mix only; x 40 is the share a faster service can win"),
    Layer("serve.miss_shannon_ms", "ms", "lower", _SERVE),
    Layer("serve.miss_bulk_ms", "ms", "lower", _SERVE),
    Layer("serve.condition_ms", "ms", "lower", _SERVE),
    Layer("serve.put_ms", "ms", "lower", _SERVE),
    Layer("serve.rewarm_ms", "ms", "lower", _SERVE),
    Layer("serve.overhead_ms", "ms", "lower",
          "serve-mix only: miss latency minus a direct run_scheme"),
    Layer("serve.queue_wait_ms", "ms", "lower", _SERVE),
    Layer("serve.cache_hit_ratio", "ratio", "higher", _SERVE),
    Layer("serve.passes_per_op", "count", "lower", _SERVE),
    Layer("session.open_ms", "ms", "lower", "setup_s on whatif-walk only"),
    Layer("session.assert_ms", "ms", "lower", _SESSION),
    Layer("session.retract_ms", "ms", "lower", _SESSION),
    Layer("session.requery_ms", "ms", "lower", _SESSION),
    Layer("session.set_probability_ms", "ms", "lower", _SESSION),
    Layer("session.recomputed_per_edit", "count", "lower", _SESSION),
    Layer("cli.summary_ms", "ms", "lower", "cli-cold op only"),
    Layer("cli.reported_share", "ratio", "higher",
          "nothing: the seconds `repro cluster` prints over the op's wall"),
    Layer("harness.op_p90_s", "s", "lower",
          "the tail twin of op_p50_s; does not repeat within a tenth here"),
    Layer("harness.ops_per_s", "1/s", "higher", "mean-based twin of op_p50_s"),
    Layer("harness.cpu_s_per_op", "s", "lower", "mean-based twin of op_p50_s"),
    Layer("harness.ops", "count", "higher", _NONE),
    Layer("harness.calib_py_ms", "ms", "lower",
          "nothing: a fixed pure-Python spin; it moves when the machine does"),
    Layer("harness.calib_np_ms", "ms", "lower",
          "nothing: a fixed NumPy sort+reduce; it moves when the machine does"),
    Layer("harness.coverage", "ratio", "higher", _NONE),
    Layer("harness.trace_overhead", "ratio", "lower", _NONE),
)

#: Per-layer metrics that are counts made by the program: two traced
#: runs of one seed must report exactly the same value.
EXACT_COUNTS = (
    "compile.shannon.tree_nodes",
    "compile.shannon.evals",
    "serve.passes_per_op",
    "session.recomputed_per_edit",
    "engine.kernels.native_share",
)

MIN_COVERAGE = 0.90


def workload_names() -> List[str]:
    return [workload.name for workload in WORKLOADS]


def benchmark_json() -> Dict[str, object]:
    """The document ``BENCHMARK.json`` must equal."""
    return {
        "command": list(COMMAND),
        "paths": list(PATHS),
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": workload.name, "why": workload.why}
            for workload in WORKLOADS
        ],
        "end_to_end": [
            {
                "name": metric.name,
                "unit": metric.unit,
                "better": metric.better,
                "bound": metric.bound,
            }
            for metric in END_TO_END
        ],
        "per_layer": [
            {"name": layer.name, "unit": layer.unit, "better": layer.better}
            for layer in PER_LAYER
        ],
    }


# ----------------------------------------------------------------------
# Pure helpers shared by the runner and the comparer
# ----------------------------------------------------------------------


def quantile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile by linear interpolation between order statistics."""
    if not values:
        raise ValueError("quantile of no values")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    below = math.floor(position)
    above = min(below + 1, len(ordered) - 1)
    share = position - below
    return ordered[below] * (1.0 - share) + ordered[above] * share


def second_fastest(values: Sequence[float]) -> float:
    """Interference only adds time, so the low end repeats; the very
    fastest may be a one-off (a warm page cache), the next one is not."""
    if not values:
        raise ValueError("second_fastest of no values")
    ordered = sorted(values)
    return ordered[min(1, len(ordered) - 1)]
