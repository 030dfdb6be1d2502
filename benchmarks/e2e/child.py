"""One benchmark child process: set up a workload, then stop, measure or trace.

Spawned by ``run.py`` with ``src/`` on ``PYTHONPATH``.  Protocol on
standard output: the line ``@e2e ready`` when set-up and the warm-up op
are done (the parent timestamps its arrival), then, in the measuring
modes, one ``@e2e result <json>`` line.

Modes: ``prime`` (load the kernel backend once so the native ``.so``
exists), ``setup`` (stop after ready), ``measure`` (closed loop of
plain ops for ``--seconds``), ``trace`` (plain and staged ops
alternating, spans written to ``results/``), ``tables`` (only build the
oracle's truth tables, for ``--write-expected``), ``cli-replay`` and
``cold-build`` (fresh processes the traced pass times from inside).
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import sys
from contextlib import redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

from spans import Tracer, now, self_time_by_name  # noqa: E402

RESULTS = os.path.join(HERE, "results")


def emit(kind: str, payload=None) -> None:
    line = f"@e2e {kind}"
    if payload is not None:
        line += " " + json.dumps(payload)
    sys.stdout.write(line + "\n")
    sys.stdout.flush()


# ----------------------------------------------------------------------
# Calibration: did the machine move between two runs?
# ----------------------------------------------------------------------

_CALIB_ARRAY = None


def calib_py() -> float:
    """Seconds of a fixed pure-Python spin."""
    started = now()
    total = 0
    for value in range(20000):
        total += value * value % 7
    return now() - started


def calib_np() -> float:
    """Seconds of a fixed NumPy sort + reduce."""
    import numpy as np

    global _CALIB_ARRAY
    if _CALIB_ARRAY is None:
        _CALIB_ARRAY = np.random.default_rng(0).random(50000)
    started = now()
    float(np.sort(_CALIB_ARRAY).sum())
    return now() - started


def cpu_seconds() -> float:
    """CPU of this process, all its threads and its waited-for children."""
    times = os.times()
    return times.user + times.system + times.children_user + times.children_system


def peak_rss_mb(workload) -> float:
    """Peak resident set of the program under measurement, in MiB."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload.program_is_subprocess:
        own = 0  # this process is harness only, and the larger of the two
    return max(own, children) / 1024.0  # Linux reports KiB


# ----------------------------------------------------------------------
# Set-up and the op loops
# ----------------------------------------------------------------------


def set_up(workload, tracer=None):
    """Run the set-up steps and one warm-up op (index 0)."""
    if tracer is None:
        for _, step in workload.setup_steps():
            step()
        workload.op(0)
        return
    tracer.op = "setup"
    for name, step in workload.setup_steps():
        with tracer.span(name):
            step()
    with tracer.span("op"):
        workload.staged_op(0, tracer)
    tracer.op = None


def timed(function, *args):
    """``(result or None, error or None, wall, cpu)`` of one op."""
    cpu_before = cpu_seconds()
    started = now()
    try:
        result, error = function(*args), None
    except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
        result, error = None, f"{type(exc).__name__}: {exc}"
    wall = now() - started
    return result, error, wall, cpu_seconds() - cpu_before


def tail(workload) -> dict:
    """Untimed: the tables the parent needs to judge the claims."""
    from oracle import ensure_table

    tables = {}
    for key, (network, variables, names) in workload.tables().items():
        tables[key] = ensure_table(
            network, variables, names, f"{workload.name}/{key}"
        )
    return {"tables": tables, "pools": workload.pools}


def op_row(index: int, kind: str, record, error, wall: float, cpu: float) -> dict:
    return {
        "index": index, "kind": kind, "wall": wall, "cpu": cpu, "error": error,
        "claims": record.claims if record else [],
        "tree_nodes": record.tree_nodes if record else 0,
        "evals": record.evals if record else 0,
        "native": record.native if record else [],
        "extra": record.extra if record else {},
    }


def measure(workload, seconds: float) -> dict:
    ops = []
    calibration = {"py": [], "np": []}
    deadline = now() + seconds
    index = 0
    while True:
        index += 1
        calibration["py"].append(calib_py())
        calibration["np"].append(calib_np())
        ops.append(op_row(index, "plain", *timed(workload.op, index)))
        if now() >= deadline:
            break
    rss = peak_rss_mb(workload)
    result = {"ops": ops, "peak_rss_mb": rss, "calibration": calibration}
    result.update(tail(workload))
    return result


def trace(workload, tracer: Tracer, seconds: float) -> dict:
    """Every op once plainly and once stage by stage, alternating."""
    ops = []
    calibration = {"py": [], "np": []}
    stats = []
    deadline = now() + seconds
    index = 0
    while True:
        calibration["py"].append(calib_py())
        calibration["np"].append(calib_np())
        index += 1
        # Exact service counts are the counter deltas around the first op.
        if index == 1:
            stats.append(workload.service_stats())
        ops.append(op_row(index, "plain", *timed(workload.op, index)))
        if index == 1:
            stats.append(workload.service_stats())
        index += 1
        tracer.op = f"op{index}"
        with tracer.span("op") as root:
            record, error, _, cpu = timed(workload.staged_op, index, tracer)
        tracer.op = None
        wall = root["end"] - root["start"]
        if record is not None:
            workload.after_staged(index, record)
        ops.append(op_row(index, "staged", record, error, wall, cpu))
        if now() >= deadline:
            break
    result = {
        "ops": ops,
        "calibration": calibration,
        "probes": workload.probes(),
        "shape": workload.shape(),
        "stage_self_s": {
            f"op{op['index']}": self_time_by_name(
                tracer.spans, f"op{op['index']}"
            )
            for op in ops if op["kind"] == "staged"
        },
        "setup_self_s": self_time_by_name(tracer.spans, "setup"),
        "stats": stats,
        "worlds_per_op": workload.worlds_per_op(),
    }
    result.update(tail(workload))
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"trace-{workload.name}.json")
    temporary = f"{path}.{os.getpid()}.tmp"
    with open(temporary, "w", encoding="utf-8") as handle:
        json.dump({"workload": workload.name, "seed": workload.seed,
                   "clock": "perf_counter seconds",
                   "spans": tracer.spans}, handle)
    os.replace(temporary, path)
    result["trace_file"] = os.path.relpath(path, os.getcwd())
    return result


# ----------------------------------------------------------------------
# Fresh processes timed from inside
# ----------------------------------------------------------------------


def cli_replay(argv, spawned_at: float) -> None:
    """``repro cluster`` stage by stage, as ``cli.py`` strings it together.

    Imports only what ``python -m repro`` imports, so the import stages
    cost what they cost the real process.
    """
    spans = []
    mark = now()
    spans.append(["process.python_start", spawned_at, mark])

    def stage(name: str, function):
        nonlocal mark
        value = function()
        end = now()
        spans.append([name, mark, end])
        mark = end
        return value

    def import_numpy():
        import numpy  # noqa: F401

    def import_repro():
        from repro import cli

        return cli

    stage("process.import_numpy", import_numpy)
    cli = stage("process.import_repro", import_repro)
    from repro.core.result import ProbabilisticResult
    from repro.data.datasets import sensor_dataset
    from repro.engine.ir import flatten
    from repro.engine.kernels import get_backend
    from repro.engine.masked import masked_program
    from repro.engine.registry import run_scheme
    from repro.mining.kmedoids import KMedoidsSpec, build_kmedoids_program
    from repro.mining.targets import medoid_targets
    from repro.network.build import build_network

    args = stage("cli.parse", lambda: cli.build_parser().parse_args(argv))
    dataset = stage(
        "data.sensor_dataset",
        lambda: sensor_dataset(
            args.objects, scheme=args.scheme, seed=args.seed,
            group_size=args.group_size, certain_fraction=args.certain,
            mutex_size=args.mutex_size,
        ),
    )
    spec = KMedoidsSpec(k=args.k, iterations=args.iterations)

    def build_program():
        program = build_kmedoids_program(dataset, spec)
        names = medoid_targets(program, spec.k, len(dataset), spec.iterations - 1)
        return program, names

    program, names = stage("mining.build_program", build_program)
    network = stage("network.build", lambda: build_network(program))
    stage("engine.ir.flatten", lambda: flatten(network))
    rows = len(stage("engine.masked.program", lambda: masked_program(network)))
    stage("engine.kernels.load", lambda: get_backend("auto"))
    raw = stage(
        "compile.shannon.kmedoids",
        lambda: run_scheme(
            args.algorithm, network, dataset.pool, targets=names,
            epsilon=args.epsilon, order=args.order,
        ),
    )
    captured = io.StringIO()

    def summarise():
        with redirect_stdout(captured):
            print(f"dataset: {args.objects} objects, "
                  f"{dataset.variable_count} variables ({args.scheme})")
            print(ProbabilisticResult(raw, names).summary(limit=args.limit))

    stage("cli.summary", summarise)
    print(json.dumps({
        "spans": spans,
        "stdout": captured.getvalue(),
        "evals": int(raw.evals),
        "kernel_tier": raw.extra.get("kernel_tier"),
        "shape": {"network.nodes": len(network.nodes),
                  "engine.masked.rows": rows},
    }))


def cold_build() -> None:
    """First ``get_backend`` of a machine: ``REPRO_KERNEL_CACHE`` is empty."""
    from repro.engine.kernels import get_backend

    started = now()
    backend = get_backend("auto")
    print(json.dumps({"seconds": now() - started,
                      "tier": getattr(backend, "name", "python")}))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", required=True)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--spawned-at", type=float, default=0.0)
    parser.add_argument("argv", nargs=argparse.REMAINDER,
                        help="after `--`: the `repro` arguments to replay")
    args = parser.parse_args()

    if args.mode == "cli-replay":
        cli_replay([arg for arg in args.argv if arg != "--"], args.spawned_at)
        return 0
    if args.mode == "cold-build":
        cold_build()
        return 0
    if args.mode == "prime":
        from repro.engine.kernels import get_backend

        get_backend("auto")
        return 0

    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    tracer = Tracer() if args.mode == "trace" else None
    set_up(workload, tracer)
    emit("ready")
    try:
        if args.mode == "measure":
            emit("result", measure(workload, args.seconds))
        elif args.mode == "trace":
            emit("result", trace(workload, tracer, args.seconds))
        elif args.mode == "tables":
            emit("result", tail(workload))
        elif args.mode != "setup":
            parser.error(f"unknown mode {args.mode!r}")
    finally:
        workload.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
