"""Shannon-compiler benchmark: masked flat-IR engine vs the scalar oracle.

The paper's headline algorithms — Shannon expansion with the exact /
lazy / eager / hybrid schemes (Algorithms 1-2) — spend their time in
leaf evaluation: masking the network under each branch's partial
assignment.  This benchmark times that inner loop through both engines
behind the ``make_evaluator`` seam on the paper's k-medoids workloads:

* ``scalar`` — the original recursive partial evaluator with per-step
  dict memos (now the cross-validation oracle);
* ``masked`` — the columnar flat-IR engine with per-variable cone
  recomputation (:mod:`repro.engine.masked`, the default).

Sections cover flat networks per scheme, the folded encoding, and a
distributed (``workers=``) run.  Each pair must agree to 1e-9 on every
bound (exactly, scheme by scheme) — the speedup is only reported once
that check passes.  Results are printed paper-style and written to
``BENCH_shannon.json`` at the repository root (override with
``--output``; ``--smoke`` runs a seconds-scale subset for CI).

Run the full sweep:  python -m benchmarks.bench_shannon_masked
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Dict, List

import pytest

from repro.compile.compiler import ShannonCompiler
from repro.compile.distributed import DistributedCompiler
from repro.data.datasets import sensor_dataset
from repro.mining.kmedoids import KMedoidsSpec, build_kmedoids_folded

from .common import Series, make_workload, print_table

OBJECT_SWEEP = (6, 7, 8)
SMOKE_SWEEP = (5,)
FOLDED_ITERATIONS = (2, 3)
SMOKE_FOLDED_ITERATIONS = (2,)
EPSILON = 0.1
SCHEMES = (("exact", 0.0), ("lazy", EPSILON), ("eager", EPSILON), ("hybrid", EPSILON))
MATCH_ABS = 1e-9
DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_shannon.json"


def _run_engine(network, pool, targets, scheme, epsilon, engine):
    compiler = ShannonCompiler(network, pool, targets=targets, engine=engine)
    # One throwaway run warms the per-network caches (flat IR, masked
    # program, schedules) so the measurement is the steady state.
    compiler.run(scheme=scheme, epsilon=epsilon)
    return compiler.run(scheme=scheme, epsilon=epsilon)


def _check_agreement(masked, scalar, context: str) -> float:
    max_diff = max(
        max(
            abs(masked.bounds[name][0] - scalar.bounds[name][0]),
            abs(masked.bounds[name][1] - scalar.bounds[name][1]),
        )
        for name in masked.bounds
    )
    assert max_diff <= MATCH_ABS, (
        f"masked engine diverged from the scalar oracle by {max_diff} ({context})"
    )
    return max_diff


def sweep_flat(object_sweep) -> List[Dict[str, float]]:
    rows = []
    for objects in object_sweep:
        workload = make_workload(objects, "independent", seed=1)
        pool = workload.dataset.pool
        for scheme, epsilon in SCHEMES:
            masked = _run_engine(
                workload.network, pool, workload.targets, scheme, epsilon, "masked"
            )
            scalar = _run_engine(
                workload.network, pool, workload.targets, scheme, epsilon, "scalar"
            )
            max_diff = _check_agreement(
                masked, scalar, f"{scheme} n={objects}"
            )
            rows.append(
                {
                    "objects": objects,
                    "variables": workload.variables,
                    "network_nodes": len(workload.network),
                    "scheme": scheme,
                    "epsilon": epsilon,
                    "tree_nodes": masked.tree_nodes,
                    "masked_seconds": max(masked.seconds, 1e-9),
                    "scalar_seconds": max(scalar.seconds, 1e-9),
                    "masked_evals": masked.evals,
                    "scalar_evals": scalar.evals,
                    "speedup": scalar.seconds / max(masked.seconds, 1e-9),
                    "max_abs_diff": max_diff,
                }
            )
    return rows


def sweep_folded(objects: int, iteration_sweep) -> List[Dict[str, float]]:
    rows = []
    for iterations in iteration_sweep:
        dataset = sensor_dataset(
            objects, scheme="independent", seed=7, group_size=1
        )
        folded = build_kmedoids_folded(
            dataset, KMedoidsSpec(k=2, iterations=iterations)
        )
        pool = dataset.pool
        targets = list(folded.targets)
        masked = _run_engine(folded, pool, targets, "exact", 0.0, "masked")
        scalar = _run_engine(folded, pool, targets, "exact", 0.0, "scalar")
        max_diff = _check_agreement(masked, scalar, f"folded it={iterations}")
        rows.append(
            {
                "objects": objects,
                "iterations": iterations,
                "variables": dataset.variable_count,
                "folded_nodes": len(folded.nodes),
                "scheme": "exact",
                "masked_seconds": max(masked.seconds, 1e-9),
                "scalar_seconds": max(scalar.seconds, 1e-9),
                "speedup": scalar.seconds / max(masked.seconds, 1e-9),
                "max_abs_diff": max_diff,
            }
        )
    return rows


def sweep_distributed(object_sweep) -> List[Dict[str, float]]:
    rows = []
    for objects in object_sweep:
        workload = make_workload(objects, "independent", seed=1)
        pool = workload.dataset.pool
        results = {}
        for engine in ("masked", "scalar"):
            coordinator = DistributedCompiler(
                workload.network,
                pool,
                targets=workload.targets,
                workers=4,
                job_size=3,
                engine=engine,
            )
            results[engine] = coordinator.run(scheme="exact")
        max_diff = _check_agreement(
            results["masked"], results["scalar"], f"exact-d n={objects}"
        )
        rows.append(
            {
                "objects": objects,
                "variables": workload.variables,
                "scheme": "exact-d",
                "workers": 4,
                "jobs": results["masked"].jobs,
                "masked_seconds": max(results["masked"].seconds, 1e-9),
                "scalar_seconds": max(results["scalar"].seconds, 1e-9),
                "speedup": (
                    results["scalar"].seconds
                    / max(results["masked"].seconds, 1e-9)
                ),
                "max_abs_diff": max_diff,
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

    object_sweep = SMOKE_SWEEP if args.smoke else OBJECT_SWEEP
    folded_sweep = SMOKE_FOLDED_ITERATIONS if args.smoke else FOLDED_ITERATIONS

    flat_rows = sweep_flat(object_sweep)
    folded_rows = sweep_folded(object_sweep[0], folded_sweep)
    distributed_rows = sweep_distributed(object_sweep[-1:])

    for scheme, _ in SCHEMES:
        scalar_line = Series(f"{scheme} scalar")
        masked_line = Series(f"{scheme} masked")
        for row in flat_rows:
            if row["scheme"] != scheme:
                continue
            scalar_line.add(row["objects"], {"seconds": row["scalar_seconds"]})
            masked_line.add(row["objects"], {"seconds": row["masked_seconds"]})
        print_table(
            f"Shannon compiler — {scheme} (masked vs scalar leaves)",
            "objects",
            [scalar_line, masked_line],
            object_sweep,
        )
    print("\nper-scheme speedups (scalar seconds / masked seconds):")
    for row in flat_rows:
        print(
            f"  n={row['objects']} {row['scheme']:7s} "
            f"{row['speedup']:6.2f}x  (tree={row['tree_nodes']})"
        )
    for row in folded_rows:
        print(
            f"  folded it={row['iterations']} exact   {row['speedup']:6.2f}x"
        )
    for row in distributed_rows:
        print(
            f"  n={row['objects']} exact-d {row['speedup']:6.2f}x "
            f"(jobs={row['jobs']})"
        )

    payload = {
        "benchmark": "shannon_masked",
        "smoke": bool(args.smoke),
        "epsilon_match": MATCH_ABS,
        "flat": flat_rows,
        "folded": folded_rows,
        "distributed": distributed_rows,
        "min_speedup_flat": min(row["speedup"] for row in flat_rows),
        "max_speedup_flat": max(row["speedup"] for row in flat_rows),
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {args.output}")
    return 0


# ----------------------------------------------------------------------
# pytest-benchmark subset (small sizes so the suite stays fast)
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_workload():
    workload = make_workload(5, "independent", seed=1)
    return workload


@pytest.mark.parametrize("engine", ["masked", "scalar"])
def bench_shannon_exact_engines(benchmark, small_workload, engine):
    workload = small_workload
    benchmark.group = "shannon exact n=5"
    benchmark(
        _run_engine,
        workload.network,
        workload.dataset.pool,
        workload.targets,
        "exact",
        0.0,
        engine,
    )


if __name__ == "__main__":
    raise SystemExit(main())
