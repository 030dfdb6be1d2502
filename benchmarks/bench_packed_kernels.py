"""Packed-column and kernel-tier benchmark: the word-wise inner loops.

Two seams carry the engines' hot loops after this change, and this
benchmark measures both against the implementations they replaced:

* **Packed Boolean bulk sweeps** — the naive/Monte-Carlo world batches
  evaluate AND/OR/NOT over ``uint64`` words packing 64 worlds each
  (:mod:`repro.engine.packed`) instead of one-bool-per-world arrays.
  Measured on a synthetic bool-heavy layered circuit (the shape where
  connective cost dominates) at >= 4096 worlds per batch; the headline
  ``speedup_packed_bool`` gates the word-wise representation itself.
  The packed evaluator's *numpy fallback* (``kernel="python"``) is also
  timed — as an ungated ratio — to show the representation, not the
  segment kernel, carries most of the win.

* **Masked cone sweeps through the kernel tier** — the Shannon schemes'
  leaf masking dispatches per-vertex through
  :mod:`repro.engine.kernels` (numba-jitted or C, ``auto``-selected)
  instead of the pure-Python loop.  Measured as push/pop walks over
  every variable of a k-medoids-shaped clustering workload over 1-d
  readings (guarded scalar readings, pairwise distance atoms, Boolean
  medoid events).  The 1-d shape predates the lane lowering and is
  kept so the committed ratios stay comparable; it is no longer the
  only clustering shape the kernel tier accepts — vector c-values are
  lowered to scalar lanes at program construction, and the 2-d paper
  workload is measured end to end by ``benchmarks/e2e``'s
  ``shannon-deep``.  The headline ``speedup_masked_kernel`` gates the
  jit/native tier against the Python tier.  A full Shannon compile
  ratio is recorded as ungated context.

Every timed pair is cross-checked first (bit-for-bit for the packed
columns, state-for-state for the walks) — the speedup is only reported
once agreement passes.  Results are printed paper-style and written to
``BENCH_packed.json`` at the repository root (override with
``--output``; ``--smoke`` runs a seconds-scale subset for CI).

Run the full sweep:  python -m benchmarks.bench_packed_kernels
"""

from __future__ import annotations

import argparse
import json
import random
import time
from pathlib import Path
from typing import Dict, List

import numpy as np
import pytest

from repro.compile.compiler import compile_network
from repro.engine.bulk import make_bulk_evaluator
from repro.engine.kernels import (
    KernelMaskedEvaluator,
    get_backend,
    make_masked_evaluator,
)
from repro.events.expressions import (
    TRUE,
    atom,
    cdist,
    conj,
    csum,
    disj,
    guard,
    negate,
    var,
)
from repro.network.build import build_targets
from repro.worlds.variables import VariablePool

from .common import Series, print_table

WORLD_SWEEP = (8192, 16384, 32768)
SMOKE_WORLD_SWEEP = (16384,)
CIRCUIT_VARIABLES = 48
CIRCUIT_WIDTH = 256
CIRCUIT_DEPTH = 6
SMOKE_CIRCUIT_WIDTH = 192
SMOKE_CIRCUIT_DEPTH = 5
OBJECT_SWEEP = (16, 20, 24)
SMOKE_OBJECT_SWEEP = (20,)
WALK_ROUNDS = 6
SMOKE_WALK_ROUNDS = 4
MATCH_ABS = 1e-9
DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_packed.json"


def bool_circuit(variables: int, width: int, depth: int, seed: int = 0):
    """A layered random circuit of AND/OR/NOT over ``variables`` inputs.

    Connective-only on purpose: this is the population the packed
    representation turns into word-wise ops, with no numeric boundary
    to unpack at until the final targets.
    """
    rng = random.Random(seed)
    layer = [var(index) for index in range(variables)]
    for _ in range(depth):
        next_layer = []
        for _ in range(width):
            fan_in = rng.randint(2, 4)
            children = [rng.choice(layer) for _ in range(fan_in)]
            gate = conj(children) if rng.random() < 0.5 else disj(children)
            if rng.random() < 0.3:
                gate = negate(gate)
            next_layer.append(gate)
        layer = next_layer
    targets = {f"out{index}": rng.choice(layer) for index in range(8)}
    return build_targets(targets)


def scalar_clustering_workload(objects: int, seed: int = 0):
    """A k-medoids-shaped network over *scalar* (1-d) readings.

    Mirrors the paper's workload structure — per-object lineage events,
    guarded readings folded into cluster centroids, pairwise distance
    atoms deciding assignments, Boolean medoid events on top — with
    scalar c-values throughout (every tier would take vector readings
    too; 1-d keeps the committed ratios comparable).
    """
    rng = random.Random(seed)
    pool = VariablePool()
    readings = []
    for _ in range(objects):
        pool.add(rng.uniform(0.2, 0.9))
        readings.append(rng.uniform(-2.0, 2.0))
    centroids = [
        csum([guard(var(i), readings[i]) for i in range(objects) if i % 2 == k])
        for k in range(2)
    ]
    # Pairwise distance atoms (the k-medoids cost structure): every
    # variable's cone then spans O(objects) atoms, which is exactly the
    # per-vertex dispatch population the kernel tier compiles away.
    pair = {}
    for i in range(objects):
        point_i = guard(var(i), readings[i])
        for j in range(i + 1, objects):
            point_j = guard(var(j), readings[j])
            pair[(i, j)] = atom(
                "<=",
                cdist(point_i, point_j),
                cdist(point_i, centroids[(i + j) % 2]),
            )
    targets = {}
    for i in range(objects):
        row = [pair[tuple(sorted((i, j)))] for j in range(objects) if j != i]
        targets[f"medoid{i}"] = conj(row)
        targets[f"near{i}"] = disj(row)
    targets["spread"] = atom(
        "<=",
        cdist(centroids[0], centroids[1]),
        guard(TRUE, abs(readings[0]) + 1.0),
    )
    return pool, build_targets(targets)


def _time_bulk(evaluator, assignments, targets, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        evaluator.evaluate(assignments, targets)
        best = min(best, time.perf_counter() - started)
    return max(best, 1e-9)


def sweep_packed_bool(world_sweep, width, depth) -> List[Dict[str, float]]:
    network = bool_circuit(CIRCUIT_VARIABLES, width, depth, seed=2)
    targets = list(network.targets.values())
    dense = make_bulk_evaluator(network, packed=False)
    packed = make_bulk_evaluator(network)  # auto kernel
    fallback = make_bulk_evaluator(network, kernel="python")  # numpy segments
    rng = np.random.default_rng(11)
    rows = []
    for worlds in world_sweep:
        assignments = rng.random((worlds, CIRCUIT_VARIABLES)) < 0.5
        expected = dense.evaluate(assignments, targets)
        for candidate in (packed, fallback):
            actual = candidate.evaluate(assignments, targets)
            for node_id in targets:
                assert np.array_equal(
                    np.asarray(actual[node_id], dtype=bool),
                    np.asarray(expected[node_id], dtype=bool),
                ), f"packed engine diverged at W={worlds}"
        dense_seconds = _time_bulk(dense, assignments, targets)
        packed_seconds = _time_bulk(packed, assignments, targets)
        fallback_seconds = _time_bulk(fallback, assignments, targets)
        rows.append(
            {
                "worlds": worlds,
                "variables": CIRCUIT_VARIABLES,
                "network_nodes": len(network.nodes),
                "kernel": packed.kernel,
                "dense_seconds": dense_seconds,
                "packed_seconds": packed_seconds,
                "numpy_fallback_seconds": fallback_seconds,
                "speedup": dense_seconds / packed_seconds,
                "fallback_ratio": dense_seconds / fallback_seconds,
            }
        )
    return rows


def _walk(evaluator, variables: int, rounds: int) -> float:
    """Time a deterministic full push/pop walk (the Shannon leaf loop)."""
    started = time.perf_counter()
    for round_index in range(rounds):
        evaluator.push()
        for index in range(variables):
            evaluator.push(index, (index + round_index) % 2 == 0)
        for index in reversed(range(variables)):
            evaluator.pop(index)
        evaluator.pop()
    return max(time.perf_counter() - started, 1e-9)


def _best_walk(evaluator, variables: int, rounds: int, repeats: int = 7) -> float:
    # Best-of-N: the walks are milliseconds-scale, so the minimum (not
    # the mean) is the noise-robust statistic the regression gate needs.
    return min(_walk(evaluator, variables, rounds) for _ in range(repeats))


def _check_walk_agreement(python_eval, kernel_eval, variables: int, nodes: int):
    python_eval.push()
    kernel_eval.push()
    for index in range(variables):
        python_eval.push(index, index % 2 == 0)
        kernel_eval.push(index, index % 2 == 0)
        for node_id in range(nodes):
            left = python_eval.node_state(node_id)
            right = kernel_eval.node_state(node_id)
            assert type(left) is type(right) and (
                left == right
                if not hasattr(left, "may_def")
                else (left.lo, left.hi, left.may_u, left.may_def)
                == (right.lo, right.hi, right.may_u, right.may_def)
            ), f"kernel tier diverged at node {node_id}"
    for index in reversed(range(variables)):
        python_eval.pop(index)
        kernel_eval.pop(index)
    python_eval.pop()
    kernel_eval.pop()


def sweep_masked_kernel(object_sweep, rounds) -> List[Dict[str, float]]:
    rows = []
    for objects in object_sweep:
        pool, network = scalar_clustering_workload(objects, seed=1)
        python_eval = make_masked_evaluator(network, kernel="python")
        kernel_eval = make_masked_evaluator(network)  # auto tier
        assert isinstance(kernel_eval, KernelMaskedEvaluator), (
            "no compiled kernel tier available; cannot benchmark the seam"
        )
        variables = len(pool)
        _check_walk_agreement(
            python_eval, kernel_eval, variables, len(network.nodes)
        )
        # Warm both (schedules, cones, per-variable pointer caches).
        _walk(python_eval, variables, 1)
        _walk(kernel_eval, variables, 1)
        python_seconds = _best_walk(python_eval, variables, rounds)
        kernel_seconds = _best_walk(kernel_eval, variables, rounds)
        # Ungated context: the same tiers through a whole approximate
        # compile (tree search, ordering and bookkeeping dilute the
        # sweep win; exact expansion is intractable at these sizes).
        compile_python = compile_network(
            network, pool, scheme="hybrid", epsilon=0.1, kernel="python"
        )
        compile_kernel = compile_network(
            network,
            pool,
            scheme="hybrid",
            epsilon=0.1,
            kernel=kernel_eval.kernel,
        )
        for name in compile_python.bounds:
            diff = abs(
                compile_python.bounds[name][0] - compile_kernel.bounds[name][0]
            )
            assert diff <= MATCH_ABS, f"compile bounds diverged by {diff}"
        rows.append(
            {
                "objects": objects,
                "variables": variables,
                "network_nodes": len(network.nodes),
                "kernel": kernel_eval.kernel,
                "walk_rounds": rounds,
                "python_seconds": python_seconds,
                "kernel_seconds": kernel_seconds,
                "speedup": python_seconds / kernel_seconds,
                "compile_python_seconds": max(compile_python.seconds, 1e-9),
                "compile_kernel_seconds": max(compile_kernel.seconds, 1e-9),
                "compile_ratio": compile_python.seconds
                / max(compile_kernel.seconds, 1e-9),
            }
        )
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--output", type=Path, default=DEFAULT_OUTPUT,
        help="where to write the JSON results (default: repo root)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="seconds-scale subset (CI rot check, not a measurement)",
    )
    args = parser.parse_args(argv)

    world_sweep = SMOKE_WORLD_SWEEP if args.smoke else WORLD_SWEEP
    width = SMOKE_CIRCUIT_WIDTH if args.smoke else CIRCUIT_WIDTH
    depth = SMOKE_CIRCUIT_DEPTH if args.smoke else CIRCUIT_DEPTH
    object_sweep = SMOKE_OBJECT_SWEEP if args.smoke else OBJECT_SWEEP
    rounds = SMOKE_WALK_ROUNDS if args.smoke else WALK_ROUNDS

    packed_rows = sweep_packed_bool(world_sweep, width, depth)
    masked_rows = sweep_masked_kernel(object_sweep, rounds)

    dense_line = Series("dense bool")
    packed_line = Series("packed words")
    fallback_line = Series("packed numpy")
    for row in packed_rows:
        dense_line.add(row["worlds"], {"seconds": row["dense_seconds"]})
        packed_line.add(row["worlds"], {"seconds": row["packed_seconds"]})
        fallback_line.add(
            row["worlds"], {"seconds": row["numpy_fallback_seconds"]}
        )
    print_table(
        "Packed Boolean bulk sweeps (layered AND/OR/NOT circuit)",
        "worlds",
        [dense_line, packed_line, fallback_line],
        world_sweep,
    )
    print("\npacked-column speedups (dense seconds / packed seconds):")
    for row in packed_rows:
        print(
            f"  W={row['worlds']:6d} kernel={row['kernel']:11s} "
            f"{row['speedup']:6.2f}x  (numpy fallback {row['fallback_ratio']:5.2f}x)"
        )
    print("\nmasked cone-sweep speedups (python tier / kernel tier):")
    for row in masked_rows:
        print(
            f"  n={row['objects']} tier={row['kernel']:7s} "
            f"{row['speedup']:6.2f}x  (full compile {row['compile_ratio']:5.2f}x)"
        )

    payload = {
        "benchmark": "packed_kernels",
        "smoke": bool(args.smoke),
        "epsilon_match": MATCH_ABS,
        "packed_bool": packed_rows,
        "masked_kernel": masked_rows,
        # Gated headline ratios (see benchmarks/check_regression.py):
        "speedup_packed_bool": min(row["speedup"] for row in packed_rows),
        "speedup_masked_kernel": min(row["speedup"] for row in masked_rows),
        # Ungated context: the numpy fallback of the packed engine and
        # the end-to-end compile ratio of the kernel tier.
        "ratio_packed_numpy_fallback": min(
            row["fallback_ratio"] for row in packed_rows
        ),
        "ratio_compile_kernel": min(
            row["compile_ratio"] for row in masked_rows
        ),
        "target_speedup_packed_bool": 8.0,
        "target_speedup_masked_kernel": 3.0,
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {args.output}")
    return 0


# ----------------------------------------------------------------------
# pytest-benchmark subset (small sizes so the suite stays fast)
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_circuit():
    network = bool_circuit(24, 48, 3, seed=5)
    rng = np.random.default_rng(3)
    assignments = rng.random((4096, 24)) < 0.5
    return network, assignments, list(network.targets.values())


@pytest.mark.parametrize("packed", [False, True])
def bench_packed_bulk(benchmark, small_circuit, packed):
    network, assignments, targets = small_circuit
    evaluator = make_bulk_evaluator(network, packed=packed)
    benchmark.group = "packed bulk W=4096"
    benchmark(evaluator.evaluate, assignments, targets)


@pytest.mark.parametrize("kernel", ["python", "auto"])
def bench_masked_kernel_walk(benchmark, kernel):
    if kernel != "python" and get_backend("auto") is None:
        pytest.skip("no compiled kernel tier on this host")
    pool, network = scalar_clustering_workload(6, seed=1)
    evaluator = make_masked_evaluator(network, kernel=kernel)
    benchmark.group = "masked walk n=6"
    benchmark(_walk, evaluator, len(pool), 2)


if __name__ == "__main__":
    raise SystemExit(main())
