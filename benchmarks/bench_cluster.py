"""Socket-cluster execution: scaling and work stealing.

Three questions, answered on the paper's k-medoids workloads:

* **Is socket mode an exact replica?**  Every row first asserts that
  ``execution="socket"`` (workers joined over TCP through the framed
  codec of :mod:`repro.compile.transport`) produces the same job DAG,
  the same decision trees, and bounds within 1e-9 of the deterministic
  simulation — the generation-barrier contract, now across a network
  hop.

* **How does the cluster scale?**  Exact wall clock over 2/4/8 local
  socket workers, with the wire traffic (framed bytes sent/received)
  each worker count generates.  On a single-CPU container the scaling
  rows are parity checks, not wins; the CPU budget is recorded.

* **What does in-generation work stealing buy?**  A deliberately skewed
  pool — one worker slowed by a fault-injected per-job sleep — run with
  stealing on and off.  Stealing must actually fire (``steals > 0``)
  and must not move a single tree node; since the skew is sleep-based
  (not CPU contention), the steal-on run finishes measurably earlier
  even on one CPU, asserted outside ``--smoke``.

This file's gate is its exactness assertions (``max_abs_diff`` 0.0 on
every row, ``steals > 0``).  Wall-clock ratios across scheduling
policies depend on the CPU budget and are recorded under
non-``speedup`` names so the regression gate does not guard them.

Results are printed paper-style and written to ``BENCH_cluster.json``
at the repository root (override with ``--output``; ``--smoke`` runs a
seconds-scale subset for CI).

Run the full sweep:  python -m benchmarks.bench_cluster
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path
from typing import Dict, List

from repro.compile.distributed import DistributedCompiler

from .common import assert_identical_runs, make_workload

WORKER_SWEEP = (2, 4, 8)
SMOKE_WORKER_SWEEP = (2,)
OBJECTS = 7
SMOKE_OBJECTS = 5
JOB_SIZE = 3
MATCH_ABS = 1e-9
STEAL_SLEEP = 0.004
STEAL_WIN_TARGET = 1.2
DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_cluster.json"


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def sweep_scaling(objects: int, worker_sweep) -> List[Dict[str, float]]:
    """Exact socket runs over the worker sweep, parity asserted."""
    rows = []
    workload = make_workload(objects, "independent", seed=1)
    pool = workload.dataset.pool
    for workers in worker_sweep:
        coordinator = DistributedCompiler(
            workload.network, pool, targets=workload.targets,
            workers=workers, job_size=JOB_SIZE,
        )
        try:
            simulated = coordinator.run(scheme="exact", execution="simulate")
            coordinator.run(scheme="exact", execution="socket")  # join+warm
            started = time.perf_counter()
            clustered = coordinator.run(scheme="exact", execution="socket")
            socket_seconds = time.perf_counter() - started
            diff = assert_identical_runs(
                clustered, simulated, f"{workers} workers socket"
            )
            rows.append(
                {
                    "objects": objects,
                    "variables": workload.variables,
                    "scheme": "exact-d",
                    "workers": workers,
                    "job_size": JOB_SIZE,
                    "jobs": clustered.jobs,
                    "tree_nodes": clustered.tree_nodes,
                    "simulate_seconds": simulated.seconds,
                    "socket_seconds": socket_seconds,
                    "spawn_seconds": clustered.extra["spawn_seconds"],
                    "wire_bytes_sent": clustered.extra["wire_bytes_sent"],
                    "wire_bytes_received": (
                        clustered.extra["wire_bytes_received"]
                    ),
                    "max_abs_diff": diff,
                }
            )
        finally:
            coordinator.close()
    return rows


def sweep_stealing(objects: int) -> Dict[str, float]:
    """Skewed 2-worker cluster, stealing on vs off; trees must match."""
    workload = make_workload(objects, "independent", seed=1)
    pool = workload.dataset.pool
    slow = {"worker": 0, "sleep_per_job": STEAL_SLEEP}
    results = {}
    seconds = {}
    for steal in (True, False):
        coordinator = DistributedCompiler(
            workload.network, pool, targets=workload.targets,
            workers=2, job_size=1, fault_injection=slow, steal=steal,
        )
        try:
            coordinator.run(scheme="exact", execution="socket")  # join+warm
            started = time.perf_counter()
            results[steal] = coordinator.run(
                scheme="exact", execution="socket"
            )
            seconds[steal] = time.perf_counter() - started
        finally:
            coordinator.close()
    diff = assert_identical_runs(
        results[True], results[False], "steal on vs off"
    )
    steals = results[True].extra["steals"]
    assert steals > 0, (
        "the skewed workload produced no steals; widen the wave "
        "(smaller job_size / larger instance)"
    )
    assert results[False].extra["steals"] == 0.0
    return {
        "objects": objects,
        "workers": 2,
        "job_size": 1,
        "jobs": results[True].jobs,
        "sleep_per_job": STEAL_SLEEP,
        "steals": steals,
        "steal_on_seconds": seconds[True],
        "steal_off_seconds": seconds[False],
        # CPU-independent here (the skew is sleep, not contention) but
        # still a wall-clock ratio: recorded, asserted only off-smoke.
        "wallclock_ratio_steal_off_vs_on": (
            seconds[False] / max(seconds[True], 1e-9)
        ),
        "max_abs_diff": diff,
    }


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
    worker_sweep = SMOKE_WORKER_SWEEP if args.smoke else WORKER_SWEEP
    cpus = _available_cpus()

    scaling_rows = sweep_scaling(objects, worker_sweep)
    stealing = sweep_stealing(objects)

    print(f"\n== Socket scaling (exact, n={objects}, {cpus} CPU(s)) ==")
    print(
        f"{'workers':>8}  {'jobs':>6}  {'simulate s':>11}  {'socket s':>9}"
        f"  {'spawn s':>8}  {'wire out':>10}  {'wire in':>10}"
    )
    for row in scaling_rows:
        print(
            f"{row['workers']:>8}  {row['jobs']:>6}"
            f"  {row['simulate_seconds']:>11.4f}"
            f"  {row['socket_seconds']:>9.4f}"
            f"  {row['spawn_seconds']:>8.4f}"
            f"  {row['wire_bytes_sent']:>10.0f}"
            f"  {row['wire_bytes_received']:>10.0f}"
        )

    print("\n== Work stealing on a skewed pool (2 workers, job_size=1) ==")
    print(
        f"  {stealing['steals']:.0f} steals over {stealing['jobs']} jobs; "
        f"steal-on {stealing['steal_on_seconds']:.4f}s vs steal-off "
        f"{stealing['steal_off_seconds']:.4f}s "
        f"({stealing['wallclock_ratio_steal_off_vs_on']:.2f}x)"
    )

    if not args.smoke:
        win = stealing["wallclock_ratio_steal_off_vs_on"]
        assert win >= STEAL_WIN_TARGET, (
            f"stealing won only {win:.2f}x on the skewed pool, expected "
            f">= {STEAL_WIN_TARGET}x (sleep-skew, CPU-independent)"
        )
    if cpus < 2:
        print(
            f"\nnote: only {cpus} CPU available — the scaling rows are "
            "parity checks here; wall-clock wins need a multi-core "
            "machine."
        )

    payload = {
        "benchmark": "cluster",
        "smoke": bool(args.smoke),
        "epsilon_match": MATCH_ABS,
        "cpu_count": os.cpu_count(),
        "cpu_affinity": cpus,
        "steal_win_target": STEAL_WIN_TARGET,
        "scaling": scaling_rows,
        "stealing": stealing,
        # Deliberately NOT named *speedup*: wall-clock ratios across
        # scheduling policies depend on the machine's CPU budget and
        # the injected skew, so the regression gate must not auto-guard
        # them.
        "wallclock_ratio_steal_off_vs_on": (
            stealing["wallclock_ratio_steal_off_vs_on"]
        ),
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
