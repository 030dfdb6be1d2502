"""Kernel benchmark: the two kernels over the lowered program.

Both engines' hot loops run on one lowered program
(:class:`repro.engine.masked.MaskedProgram`), and this benchmark times
each kernel against the rung it replaces:

* **World block** — the naive/Monte Carlo world batches run the
  program two-valued, 64 worlds per ``uint64`` word, in one native call
  (:class:`repro.engine.kernels.WorldBlockEvaluator`) instead of one
  NumPy expression per vertex (the dense ``python`` rung,
  :class:`repro.engine.bulk.BulkEvaluator` /
  :class:`~repro.engine.bulk.FoldedBulkEvaluator`).  Measured on one
  flat and one folded k-medoids network (mutex lineage, 2-d readings)
  over a batch of sampled worlds; the headline
  ``min_speedup_world_block`` gates the smaller of the two ratios.

* **Masked cone sweeps through the kernel tier** — the Shannon schemes'
  leaf masking dispatches per-vertex through
  :mod:`repro.engine.kernels` (native C, ``auto``-selected) instead of
  the pure-Python loop.  Measured as push/pop walks over every variable
  of a k-medoids-shaped clustering workload over 1-d readings (guarded
  scalar readings, pairwise distance atoms, Boolean medoid events).
  The 1-d shape predates the lane lowering and is kept so the committed
  ratios stay comparable; the 2-d paper workload is measured end to end
  by ``benchmarks/e2e``'s ``shannon-deep``.  The headline
  ``speedup_masked_kernel`` gates the native tier against the Python
  tier.  A full Shannon compile ratio is recorded as ungated context.

Every timed pair is cross-checked first (world for world for the world
block, state for state for the walks) — the speedup is only reported
once agreement passes.  Results are printed paper-style and written to
``BENCH_packed.json`` at the repository root (override with
``--output``; ``--smoke`` runs a seconds-scale subset for CI).

Run the full sweep:  python -m benchmarks.bench_packed_kernels
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import time
from pathlib import Path
from typing import Dict, List

import numpy as np
import pytest

from repro.compile.compiler import compile_network
from repro.data.datasets import sensor_dataset
from repro.engine.bulk import make_bulk_evaluator
from repro.engine.kernels import (
    KernelMaskedEvaluator,
    WorldBlockEvaluator,
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
    var,
)
from repro.mining.kmedoids import KMedoidsSpec, build_kmedoids_folded
from repro.network.build import build_targets
from repro.worlds.variables import VariablePool

from .common import Series, make_workload, print_table

# (objects, worlds) per world-block row; each row times one flat and
# one folded network.
BLOCK_SWEEP = ((16, 8192), (24, 8192))
SMOKE_BLOCK_SWEEP = ((16, 4096),)
OBJECT_SWEEP = (16, 20, 24)
SMOKE_OBJECT_SWEEP = (20,)
WALK_ROUNDS = 6
SMOKE_WALK_ROUNDS = 4
MATCH_ABS = 1e-9
DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_packed.json"


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


def _median_bulk(evaluator, assignments, targets, repeats: int = 5) -> float:
    runs = []
    for _ in range(repeats):
        started = time.perf_counter()
        evaluator.evaluate(assignments, targets)
        runs.append(time.perf_counter() - started)
    return max(statistics.median(runs), 1e-9)


def kmedoids_networks(objects: int):
    """One flat and one folded k-medoids network over mutex lineage."""
    flat = make_workload(objects, "mutex", seed=3, iterations=3)
    dataset = sensor_dataset(objects, scheme="mutex", seed=3)
    folded = build_kmedoids_folded(dataset, KMedoidsSpec(k=2, iterations=3))
    return (
        ("flat", flat.dataset.pool, flat.network),
        ("folded", dataset.pool, folded),
    )


def sweep_world_block(block_sweep) -> List[Dict[str, float]]:
    rows = []
    for objects, worlds in block_sweep:
        for shape, pool, network in kmedoids_networks(objects):
            targets = list(network.targets.values())
            dense = make_bulk_evaluator(network, kernel="python")
            block = make_bulk_evaluator(network, kernel="auto")
            assert isinstance(block, WorldBlockEvaluator), (
                "no compiled kernel tier available; cannot benchmark the seam"
            )
            rng = np.random.default_rng(objects)
            assignments = rng.random((worlds, len(pool))) < np.asarray(
                pool.probabilities
            )
            expected = dense.evaluate(assignments, targets)
            actual = block.evaluate(assignments, targets)
            for node_id in targets:
                assert np.array_equal(
                    actual[node_id], np.asarray(expected[node_id], dtype=bool)
                ), f"world block diverged on the {shape} network"
            dense_seconds = _median_bulk(dense, assignments, targets)
            block_seconds = _median_bulk(block, assignments, targets)
            rows.append(
                {
                    "shape": shape,
                    "objects": objects,
                    "worlds": worlds,
                    "variables": len(pool),
                    "network_nodes": len(network.nodes),
                    "kernel": block.kernel,
                    "dense_seconds": dense_seconds,
                    "block_seconds": block_seconds,
                    "speedup": dense_seconds / block_seconds,
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

    block_sweep = SMOKE_BLOCK_SWEEP if args.smoke else BLOCK_SWEEP
    object_sweep = SMOKE_OBJECT_SWEEP if args.smoke else OBJECT_SWEEP
    rounds = SMOKE_WALK_ROUNDS if args.smoke else WALK_ROUNDS

    block_rows = sweep_world_block(block_sweep)
    masked_rows = sweep_masked_kernel(object_sweep, rounds)

    for shape in ("flat", "folded"):
        dense_line = Series("dense numpy")
        block_line = Series("world block")
        for row in block_rows:
            if row["shape"] == shape:
                dense_line.add(row["objects"], {"seconds": row["dense_seconds"]})
                block_line.add(row["objects"], {"seconds": row["block_seconds"]})
        print_table(
            f"World-block bulk sweeps ({shape} k-medoids, sampled worlds)",
            "objects",
            [dense_line, block_line],
            [objects for objects, _ in block_sweep],
        )
    print("\nworld-block speedups (dense seconds / world-block seconds):")
    for row in block_rows:
        print(
            f"  {row['shape']:6s} n={row['objects']} W={row['worlds']:6d} "
            f"kernel={row['kernel']:7s} {row['speedup']:6.2f}x"
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
        "world_block": block_rows,
        "masked_kernel": masked_rows,
        # Gated headline ratios (see benchmarks/check_regression.py):
        "min_speedup_world_block": min(row["speedup"] for row in block_rows),
        "speedup_masked_kernel": min(row["speedup"] for row in masked_rows),
        # Ungated context: the end-to-end compile ratio of the kernel tier.
        "ratio_compile_kernel": min(
            row["compile_ratio"] for row in masked_rows
        ),
        "target_speedup_masked_kernel": 3.0,
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {args.output}")
    return 0


# ----------------------------------------------------------------------
# pytest-benchmark subset (small sizes so the suite stays fast)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("kernel", ["python", "auto"])
def bench_world_block(benchmark, kernel):
    if kernel != "python" and get_backend("auto") is None:
        pytest.skip("no compiled kernel tier on this host")
    _, pool, network = kmedoids_networks(8)[1]
    assignments = np.random.default_rng(3).random((4096, len(pool))) < 0.5
    evaluator = make_bulk_evaluator(network, kernel=kernel)
    benchmark.group = "folded k-medoids bulk W=4096"
    benchmark(evaluator.evaluate, assignments, list(network.targets.values()))


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
