"""Folded-network benchmark: the iteration-swept bulk path.

The paper's folded encoding (Section 4.2) keeps the event network
constant in size as the iteration count grows — but until the folded
flat IR landed, it was also the encoding the engine evaluated slowest,
falling back to per-world recursion.  This benchmark sweeps the
iteration count of a folded k-medoids workload and times three paths
through the scheme registry:

* ``folded-scalar`` — ``naive-scalar`` over the folded network (the
  old per-world fallback, now only a cross-validation oracle);
* ``folded-bulk`` — ``naive`` over the folded network (one vectorized
  loop-layer sweep per iteration);
* ``unfolded-bulk`` — ``naive`` over the equivalent unfolded network
  (the network itself grows linearly with iterations).

All three must agree to 1e-9 on the shared final-iteration targets; a
Monte Carlo section compares the scalar and bulk samplers at a fixed
sample budget.  Every timing is a per-call median (see ``_timed``).
Results are printed paper-style and written to
``BENCH_folded.json`` at the repository root (override with
``--output``; ``--smoke`` runs a seconds-scale subset for CI).

Run the full sweep:  python -m benchmarks.bench_folded_bulk
"""

from __future__ import annotations

import argparse
import json
import statistics
import time
from pathlib import Path
from typing import Dict, List

import pytest

from repro.data.datasets import sensor_dataset
from repro.engine.registry import run_scheme
from repro.mining.kmedoids import (
    KMedoidsSpec,
    build_kmedoids_folded,
    build_kmedoids_program,
)
from repro.mining.targets import medoid_targets
from repro.network.build import build_network

from .common import Series, print_table

ITERATION_SWEEP = (2, 4, 6, 8)
SMOKE_SWEEP = (2, 3)
OBJECTS = 8
SMOKE_OBJECTS = 5
GROUP_SIZE = 1
MC_SAMPLES = 2000
SMOKE_MC_SAMPLES = 200
MATCH_ABS = 1e-9
# Each side of a row is a per-call median: a call is repeated at least
# REPEATS times and until the calls add up to MIN_TOTAL_SECONDS, so the
# sub-millisecond bulk side gets hundreds of samples (single timings of
# it spread wider than the 25 % gate).  A call slower than SLOW_SECONDS
# runs once.
REPEATS = 5
MIN_TOTAL_SECONDS = 0.05
SLOW_SECONDS = 1.0
DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_folded.json"


def networks_for(objects: int, iterations: int):
    """Folded and unfolded k-medoids networks for one sweep point."""
    dataset = sensor_dataset(
        objects, scheme="independent", seed=7, group_size=GROUP_SIZE
    )
    spec = KMedoidsSpec(k=2, iterations=iterations)
    program = build_kmedoids_program(dataset, spec)
    targets = medoid_targets(program, spec.k, objects, iterations - 1)
    unfolded = build_network(program)
    folded = build_kmedoids_folded(dataset, spec)
    return dataset, folded, unfolded, targets


def _timed(scheme: str, network, pool, targets, **options) -> Dict[str, object]:
    """One scheme's result and its per-call median ``seconds`` (autorange)."""
    seconds, walls = [], []
    while True:
        started = time.perf_counter()
        result = run_scheme(scheme, network, pool, targets=targets, **options)
        walls.append(time.perf_counter() - started)
        seconds.append(max(result.seconds, 1e-9))
        if seconds[0] > SLOW_SECONDS or (
            len(seconds) >= REPEATS and sum(walls) >= MIN_TOTAL_SECONDS
        ):
            break
    return {
        "result": result,
        "seconds": statistics.median(seconds),
        "wall": statistics.median(walls),
    }


def sweep_naive(objects: int, iteration_sweep) -> List[Dict[str, float]]:
    rows = []
    for iterations in iteration_sweep:
        dataset, folded, unfolded, targets = networks_for(objects, iterations)
        pool = dataset.pool
        folded_scalar = _timed("naive-scalar", folded, pool, targets)
        folded_bulk = _timed("naive", folded, pool, targets)
        unfolded_bulk = _timed("naive", unfolded, pool, targets)
        max_diff = max(
            max(
                abs(
                    folded_bulk["result"].bounds[name][0]
                    - folded_scalar["result"].bounds[name][0]
                ),
                abs(
                    folded_bulk["result"].bounds[name][0]
                    - unfolded_bulk["result"].bounds[name][0]
                ),
            )
            for name in targets
        )
        assert max_diff <= MATCH_ABS, (
            f"folded bulk diverged from its oracles by {max_diff}"
        )
        rows.append(
            {
                "iterations": iterations,
                "objects": objects,
                "variables": dataset.variable_count,
                "worlds": 2**dataset.variable_count,
                "targets": len(targets),
                "folded_nodes": len(folded.nodes),
                "unfolded_nodes": len(unfolded.nodes),
                "folded_scalar_seconds": folded_scalar["seconds"],
                "folded_bulk_seconds": folded_bulk["seconds"],
                "unfolded_bulk_seconds": unfolded_bulk["seconds"],
                "speedup_vs_scalar": (
                    folded_scalar["seconds"] / folded_bulk["seconds"]
                ),
                "speedup_vs_unfolded_bulk": (
                    unfolded_bulk["seconds"] / folded_bulk["seconds"]
                ),
                "max_abs_diff": max_diff,
            }
        )
    return rows


def sweep_montecarlo(
    objects: int, iteration_sweep, samples: int
) -> List[Dict[str, float]]:
    rows = []
    for iterations in iteration_sweep:
        dataset, folded, _, targets = networks_for(objects, iterations)
        pool = dataset.pool
        scalar = _timed(
            "montecarlo-scalar", folded, pool, targets, samples=samples, seed=1
        )
        bulk = _timed(
            "montecarlo", folded, pool, targets, samples=samples, seed=1
        )
        rows.append(
            {
                "iterations": iterations,
                "objects": objects,
                "samples": samples,
                "folded_nodes": len(folded.nodes),
                "scalar_seconds": scalar["seconds"],
                "bulk_seconds": bulk["seconds"],
                "speedup": scalar["seconds"] / bulk["seconds"],
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

    objects = SMOKE_OBJECTS if args.smoke else OBJECTS
    iteration_sweep = SMOKE_SWEEP if args.smoke else ITERATION_SWEEP
    samples = SMOKE_MC_SAMPLES if args.smoke else MC_SAMPLES

    naive_rows = sweep_naive(objects, iteration_sweep)
    mc_rows = sweep_montecarlo(objects, iteration_sweep, samples)

    scalar_line = Series("folded scalar")
    bulk_line = Series("folded bulk")
    unfolded_line = Series("unfolded bulk")
    for row in naive_rows:
        scalar_line.add(row["iterations"], {"seconds": row["folded_scalar_seconds"]})
        bulk_line.add(row["iterations"], {"seconds": row["folded_bulk_seconds"]})
        unfolded_line.add(
            row["iterations"], {"seconds": row["unfolded_bulk_seconds"]}
        )
    print_table(
        f"Folded engine — naive enumeration (n={objects})",
        "iterations",
        [scalar_line, bulk_line, unfolded_line],
        iteration_sweep,
    )
    print(
        "max speedup folded-bulk over folded-scalar: "
        f"{max(r['speedup_vs_scalar'] for r in naive_rows):8.1f}x"
    )
    print("network nodes (unfolded, folded):")
    for row in naive_rows:
        print(
            f"  it={row['iterations']}: {row['unfolded_nodes']:6d} "
            f"{row['folded_nodes']:6d}"
        )

    mc_scalar_line = Series("folded scalar")
    mc_bulk_line = Series("folded bulk")
    for row in mc_rows:
        mc_scalar_line.add(row["iterations"], {"seconds": row["scalar_seconds"]})
        mc_bulk_line.add(row["iterations"], {"seconds": row["bulk_seconds"]})
    print_table(
        f"Folded engine — Monte Carlo ({samples} samples, n={objects})",
        "iterations",
        [mc_scalar_line, mc_bulk_line],
        iteration_sweep,
    )
    print(
        "max speedup folded-bulk over folded-scalar: "
        f"{max(r['speedup'] for r in mc_rows):8.1f}x"
    )

    payload = {
        "benchmark": "folded_bulk",
        "smoke": bool(args.smoke),
        "epsilon_match": MATCH_ABS,
        "naive": naive_rows,
        "montecarlo": mc_rows,
        "min_speedup_naive_vs_scalar": min(
            row["speedup_vs_scalar"] for row in naive_rows
        ),
        "min_speedup_montecarlo_vs_scalar": min(
            row["speedup"] for row in mc_rows
        ),
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {args.output}")
    return 0


# ----------------------------------------------------------------------
# pytest-benchmark subset (small sizes so the suite stays fast)
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_folded():
    dataset, folded, _, targets = networks_for(SMOKE_OBJECTS, 3)
    return dataset, folded, targets


@pytest.mark.parametrize("scheme", ["naive", "naive-scalar"])
def bench_folded_naive_paths(benchmark, small_folded, scheme):
    dataset, folded, targets = small_folded
    benchmark.group = "folded naive n=5 it=3"
    benchmark(run_scheme, scheme, folded, dataset.pool, targets=targets)


@pytest.mark.parametrize("scheme", ["montecarlo", "montecarlo-scalar"])
def bench_folded_montecarlo_paths(benchmark, small_folded, scheme):
    dataset, folded, targets = small_folded
    benchmark.group = "folded montecarlo n=5 it=3"
    benchmark(
        run_scheme, scheme, folded, dataset.pool, targets=targets,
        samples=200, seed=1,
    )


if __name__ == "__main__":
    raise SystemExit(main())
