"""The worker pool: exactness, spawn cost, stealing.

Three questions, answered on the paper's k-medoids workloads:

* **Is process mode an exact replica?**  Every row first asserts that
  ``execution="process"`` produces the same job DAG, the same decision
  trees, and bounds within 1e-9 of the deterministic simulation — the
  generation-barrier contract of :mod:`repro.compile.distributed` — for
  both ways the one pool gets its workers: ``pair`` (spawned locally on
  private socket pairs) and ``listen`` (``serve_worker`` processes, the
  ``repro cluster --connect`` entry point, joined over loopback TCP).

* **What does the pool cost?**  Spawn/join seconds, the cold first run,
  the median warm run and the framed bytes on the wire at 2 and 4
  workers, with the CPU budget the numbers were taken under
  (``cpu_count`` / ``cpu_affinity``).  On a single-CPU container the
  rows are parity checks, not wins.

* **What does in-generation work stealing buy?**  A deliberately skewed
  pool — one worker slowed by a fault-injected per-job sleep — run with
  stealing on and off.  Stealing must actually fire (``steals > 0``)
  and must not move a single tree node; since the skew is sleep-based
  (not CPU contention), the steal-on run finishes measurably earlier
  even on one CPU, asserted outside ``--smoke``.

This file's gate is its exactness assertions (``max_abs_diff`` 0.0 on
every row, ``steals > 0``).  Wall-clock numbers depend on the CPU
budget and are recorded under non-``speedup`` names so the regression
gate does not guard them.

Results are printed paper-style and written to ``BENCH_cluster.json``
at the repository root (override with ``--output``; ``--smoke`` runs a
seconds-scale subset for CI).

Run the full sweep:  python -m benchmarks.bench_cluster
"""

from __future__ import annotations

import argparse
import contextlib
import json
import multiprocessing
import os
import socket
import statistics
import time
from pathlib import Path
from typing import Dict, List

from repro.compile.distributed import DistributedCompiler
from repro.compile.transport import serve_worker

from .common import assert_identical_runs, make_workload

POOL_KINDS = ("pair", "listen")
WORKER_SWEEP = (2, 4)
SMOKE_WORKER_SWEEP = (2,)
OBJECT_SWEEP = (7, 8)
SMOKE_OBJECT_SWEEP = (5,)
WARM_RUNS = 15
SMOKE_WARM_RUNS = 3
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


@contextlib.contextmanager
def pooled_coordinator(kind: str, workload, workers: int, **kwargs):
    """A coordinator whose pool is spawned (``pair``) or joined (``listen``)."""
    joiners = []
    if kind == "listen":
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            address = "127.0.0.1:%d" % probe.getsockname()[1]
        kwargs["listen"] = address
        context = multiprocessing.get_context("spawn")
        joiners = [
            context.Process(
                target=serve_worker, args=(address, 30.0), daemon=True
            )
            for _ in range(workers)
        ]
        for joiner in joiners:
            joiner.start()
    coordinator = DistributedCompiler(
        workload.network, workload.dataset.pool, targets=workload.targets,
        workers=workers, **kwargs,
    )
    try:
        yield coordinator
    finally:
        coordinator.close()
        for joiner in joiners:
            joiner.join(10.0)
            if joiner.is_alive():  # pragma: no cover - hung joiner
                joiner.terminate()
                joiner.join(5.0)


def sweep_pools(object_sweep, worker_sweep, warm_runs) -> List[Dict[str, float]]:
    """Simulate vs process over both pool kinds, parity asserted."""
    rows = []
    for objects in object_sweep:
        workload = make_workload(objects, "independent", seed=1)
        for workers in worker_sweep:
            for kind in POOL_KINDS:
                with pooled_coordinator(
                    kind, workload, workers, job_size=JOB_SIZE
                ) as coordinator:
                    simulated = coordinator.run(scheme="exact")
                    started = time.perf_counter()
                    cold = coordinator.run(scheme="exact", execution="process")
                    cold_seconds = time.perf_counter() - started
                    warm = []
                    for _ in range(warm_runs):
                        started = time.perf_counter()
                        process = coordinator.run(
                            scheme="exact", execution="process"
                        )
                        warm.append(time.perf_counter() - started)
                diff = max(
                    assert_identical_runs(
                        run, simulated, f"n={objects} w={workers} {kind}"
                    )
                    for run in (cold, process)
                )
                rows.append(
                    {
                        "objects": objects,
                        "variables": workload.variables,
                        "scheme": "exact-d",
                        "pool": kind,
                        "workers": workers,
                        "job_size": JOB_SIZE,
                        "jobs": process.jobs,
                        "tree_nodes": process.tree_nodes,
                        "simulate_seconds": simulated.seconds,
                        "process_seconds": statistics.median(warm),
                        "process_cold_seconds": cold_seconds,
                        # ``listen``: the wait for the joiners' interpreters.
                        "spawn_seconds": cold.extra["spawn_seconds"],
                        "wire_bytes_sent": process.extra["wire_bytes_sent"],
                        "wire_bytes_received": (
                            process.extra["wire_bytes_received"]
                        ),
                        "max_abs_diff": diff,
                    }
                )
    return rows


def sweep_stealing(objects: int) -> Dict[str, float]:
    """Skewed 2-worker pool, stealing on vs off; trees must match."""
    workload = make_workload(objects, "independent", seed=1)
    slow = {"worker": 0, "sleep_per_job": STEAL_SLEEP}
    results = {}
    seconds = {}
    for steal in (True, False):
        with pooled_coordinator(
            "pair", workload, 2, job_size=1, fault_injection=slow, steal=steal
        ) as coordinator:
            coordinator.run(scheme="exact", execution="process")  # spawn+warm
            started = time.perf_counter()
            results[steal] = coordinator.run(
                scheme="exact", execution="process"
            )
            seconds[steal] = time.perf_counter() - started
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

    object_sweep = SMOKE_OBJECT_SWEEP if args.smoke else OBJECT_SWEEP
    worker_sweep = SMOKE_WORKER_SWEEP if args.smoke else WORKER_SWEEP
    warm_runs = SMOKE_WARM_RUNS if args.smoke else WARM_RUNS
    cpus = _available_cpus()

    pool_rows = sweep_pools(object_sweep, worker_sweep, warm_runs)
    stealing = sweep_stealing(object_sweep[0])

    print(f"\n== Simulate vs the worker pool (exact, {cpus} CPU(s)) ==")
    print(
        f"{'objects':>8}  {'pool':>7}  {'workers':>8}  {'jobs':>6}"
        f"  {'simulate s':>11}  {'warm s':>8}  {'cold s':>8}"
        f"  {'spawn s':>8}  {'wire out':>10}  {'wire in':>9}"
    )
    for row in pool_rows:
        print(
            f"{row['objects']:>8}  {row['pool']:>7}  {row['workers']:>8}"
            f"  {row['jobs']:>6}"
            f"  {row['simulate_seconds']:>11.4f}"
            f"  {row['process_seconds']:>8.4f}"
            f"  {row['process_cold_seconds']:>8.4f}"
            f"  {row['spawn_seconds']:>8.4f}"
            f"  {row['wire_bytes_sent']:>10.0f}"
            f"  {row['wire_bytes_received']:>9.0f}"
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
            f"\nnote: only {cpus} CPU available — the pool rows are "
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
        "pools": pool_rows,
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
