"""Ordering benchmark: cone-aware dynamic variable ordering.

The paper's "influences as many events as possible" criterion (Section
4.1) scored through the flat IR's precomputed per-variable cones
intersected with the masked engine's resolved column
(:class:`~repro.compile.ordering.ConeInfluenceOrder`,
``order="dynamic"``), against the reference per-choice Python scan over
the network adjacency
(:class:`~repro.compile.ordering.DynamicInfluenceOrder`, which has no
``order=`` name: it is constructed here directly).  Both must pick the same variable at every
branching point, so end-to-end runs must explore identical trees — the
speedup is pure scoring cost.

Results are printed paper-style and written to ``BENCH_ordering.json``
at the repository root (override with ``--output``; ``--smoke`` runs a
seconds-scale subset for CI).

Run the full sweep:  python -m benchmarks.bench_ordering_cone
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path
from typing import Dict, List

import pytest

from repro.compile.compiler import ShannonCompiler
from repro.compile.ordering import ConeInfluenceOrder, DynamicInfluenceOrder
from repro.engine.masked import MaskedEvaluator

from .common import Series, make_workload, print_table

OBJECT_SWEEP = (6, 7, 8)
SMOKE_SWEEP = (5,)
PER_CHOICE_SWEEP = (8, 10, 12)
SMOKE_PER_CHOICE_SWEEP = (6,)
PER_CHOICE_REPEATS = 40
EPSILON = 0.1
MATCH_ABS = 1e-9
DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_ordering.json"


def _check_agreement(left, right, context: str) -> float:
    max_diff = max(
        max(
            abs(left.bounds[name][0] - right.bounds[name][0]),
            abs(left.bounds[name][1] - right.bounds[name][1]),
        )
        for name in left.bounds
    )
    assert max_diff <= MATCH_ABS, (
        f"orderings diverged by {max_diff} ({context})"
    )
    return max_diff


def _compile(workload, scan: bool, scheme="exact", epsilon=0.0):
    """One compile under the cone order, or under the reference scan."""
    compiler = ShannonCompiler(
        workload.network, workload.dataset.pool, targets=workload.targets,
        order="dynamic",
    )
    if scan:
        compiler.order = DynamicInfluenceOrder(workload.network)
    return compiler.run(scheme=scheme, epsilon=epsilon)


def _time_choices(order, evaluator, repeats: int) -> float:
    """Seconds per next_variable() call, cold per branching point.

    The masked engine shares one resolved-column materialisation per
    branching point (nothing resolves between pushes); bumping the
    version counter between calls reproduces that once-per-tree-node
    cost instead of letting the cache amortise it away.
    """
    started = time.perf_counter()
    for _ in range(repeats):
        evaluator._resolved_version += 1  # simulate a fresh branching point
        order.next_variable(evaluator)
    return (time.perf_counter() - started) / repeats


def sweep_per_choice(object_sweep, repeats=PER_CHOICE_REPEATS) -> List[Dict[str, float]]:
    """Per-branching-point scoring cost: adjacency scan vs cone columns."""
    rows = []
    for objects in object_sweep:
        workload = make_workload(objects, "independent", seed=1)
        network = workload.network
        evaluator = MaskedEvaluator(network)
        evaluator.push()
        variables = sorted(network.variables())
        for index in variables[: len(variables) // 3]:
            evaluator.push(index, True)
        dynamic = DynamicInfluenceOrder(network)
        cone = ConeInfluenceOrder(network)
        # Warm the cone caches and check the picks coincide.
        assert cone.next_variable(evaluator) == dynamic.next_variable(evaluator)
        dynamic_seconds = _time_choices(dynamic, evaluator, repeats)
        cone_seconds = _time_choices(cone, evaluator, repeats)
        evaluator.rewind_to(0)
        rows.append(
            {
                "objects": objects,
                "variables": workload.variables,
                "network_nodes": len(network),
                "scan_us_per_choice": dynamic_seconds * 1e6,
                "cone_us_per_choice": cone_seconds * 1e6,
                "speedup": dynamic_seconds / max(cone_seconds, 1e-12),
            }
        )
    return rows


def sweep_end_to_end(object_sweep) -> List[Dict[str, float]]:
    """Whole compilations under the two dynamic orders (identical trees)."""
    rows = []
    for objects in object_sweep:
        workload = make_workload(objects, "independent", seed=1)
        for scheme, epsilon in (("exact", 0.0), ("hybrid", EPSILON)):
            results = {}
            for scan in (True, False):
                # One throwaway run warms the per-network caches so the
                # measurement is the steady state.
                _compile(workload, scan, scheme, epsilon)
                results[scan] = _compile(workload, scan, scheme, epsilon)
            max_diff = _check_agreement(
                results[False], results[True], f"{scheme} n={objects}"
            )
            assert results[False].tree_nodes == results[True].tree_nodes, (
                "cone order diverged from the reference picks"
            )
            rows.append(
                {
                    "objects": objects,
                    "variables": workload.variables,
                    "scheme": scheme,
                    "epsilon": epsilon,
                    "tree_nodes": results[False].tree_nodes,
                    "scan_seconds": max(results[True].seconds, 1e-9),
                    "cone_seconds": max(results[False].seconds, 1e-9),
                    "speedup": (
                        results[True].seconds
                        / max(results[False].seconds, 1e-9)
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
    per_choice_sweep = (
        SMOKE_PER_CHOICE_SWEEP if args.smoke else PER_CHOICE_SWEEP
    )
    repeats = 10 if args.smoke else PER_CHOICE_REPEATS

    per_choice_rows = sweep_per_choice(per_choice_sweep, repeats)
    end_to_end_rows = sweep_end_to_end(object_sweep)

    print("\n== Per-choice ordering cost (masked evaluator, mid-DFS) ==")
    print(f"{'objects':>8}  {'nodes':>7}  {'scan µs':>9}  {'cone µs':>9}  {'speedup':>8}")
    for row in per_choice_rows:
        print(
            f"{row['objects']:>8}  {row['network_nodes']:>7}"
            f"  {row['scan_us_per_choice']:>9.1f}"
            f"  {row['cone_us_per_choice']:>9.1f}"
            f"  {row['speedup']:>7.2f}x"
        )

    for scheme in ("exact", "hybrid"):
        scan_line = Series(f"{scheme} scan")
        cone_line = Series(f"{scheme} cone")
        for row in end_to_end_rows:
            if row["scheme"] != scheme:
                continue
            scan_line.add(row["objects"], {"seconds": row["scan_seconds"]})
            cone_line.add(row["objects"], {"seconds": row["cone_seconds"]})
        print_table(
            f"Dynamic ordering end-to-end — {scheme} (scan vs cone scores)",
            "objects",
            [scan_line, cone_line],
            object_sweep,
        )

    payload = {
        "benchmark": "ordering_cone",
        "smoke": bool(args.smoke),
        "epsilon_match": MATCH_ABS,
        "per_choice": per_choice_rows,
        "end_to_end": end_to_end_rows,
        "min_speedup_per_choice": min(r["speedup"] for r in per_choice_rows),
        "max_speedup_per_choice": max(r["speedup"] for r in per_choice_rows),
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {args.output}")
    return 0


# ----------------------------------------------------------------------
# pytest-benchmark subset (small sizes so the suite stays fast)
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_workload():
    return make_workload(5, "independent", seed=1)


@pytest.mark.parametrize("scan", [True, False], ids=["scan", "cone"])
def bench_dynamic_orders(benchmark, small_workload, scan):
    benchmark.group = "ordering n=5"
    benchmark(_compile, small_workload, scan)


if __name__ == "__main__":
    raise SystemExit(main())
