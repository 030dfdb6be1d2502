"""End-to-end benchmark launcher: one workload, one seed, one window.

    python3 benchmarks/e2e/run.py --workload cli-cold --seed 1 \\
        --seconds 15 --trace 0

prints, as the last line of standard output, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` — the end-to-end
metrics with ``--trace 0``, every per-layer metric with ``--trace 1``.
``--suite TAG`` runs every workload ``--runs`` times and leaves
``results/TAG-<workload>-<k>.json`` for ``compare.py``; ``--selftest``
checks the benchmark against itself in under a minute.

This process never imports ``repro``.  It spawns children
(``child.py``) with ``src/`` on their path, timestamps their set-up from
outside, and judges their answers against the oracle's truth tables
(``oracle.py``).  See ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from importlib import metadata
from typing import Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import metrics as M  # noqa: E402
from oracle import EXPECTED_DIR, Table, check_claim  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
CHILD = os.path.join(HERE, "child.py")
#: No child may outlive this; the driver allows a run 180 s.
CHILD_TIMEOUT = 170.0


class BenchmarkError(Exception):
    """The benchmark could not produce a result."""


# ----------------------------------------------------------------------
# Children
# ----------------------------------------------------------------------


def child_env(**extra: str) -> Dict[str, str]:
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + inherited if inherited else "")
    env["PYTHONHASHSEED"] = "0"
    env["REPRO_KERNEL_CACHE"] = os.path.join(RESULTS, "kernel-cache")
    # glibc gives every thread its own malloc arena; with them the peak
    # RSS of serve-mix (three threads) reads 93 or 105 MiB at random.
    env["MALLOC_ARENA_MAX"] = "1"
    env.pop("REPRO_KERNEL", None)
    env.update(extra)
    return env


class Child:
    """One ``child.py`` process, killed if it outlives the timeout."""

    def __init__(self, mode: str, *args: str, env: Optional[dict] = None) -> None:
        self.spawned = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, CHILD, "--mode", mode, *args],
            stdout=subprocess.PIPE, env=env or child_env(),
            encoding="utf-8", cwd=ROOT,
        )
        self._watchdog = threading.Timer(CHILD_TIMEOUT, self.process.kill)
        self._watchdog.daemon = True
        self._watchdog.start()

    def read(self, kind: str) -> Tuple[float, Optional[dict]]:
        """Arrival time and payload of the next ``@e2e <kind>`` line."""
        prefix = f"@e2e {kind}"
        for line in self.process.stdout:
            if line.startswith(prefix):
                arrived = time.perf_counter()
                payload = line[len(prefix):].strip()
                return arrived, json.loads(payload) if payload else None
        self.finish()
        raise BenchmarkError(
            f"child exited with {self.process.returncode} before '{prefix}'"
        )

    def finish(self) -> None:
        try:
            self.process.stdout.read()
            self.process.wait()
        finally:
            self._watchdog.cancel()
            self.process.stdout.close()
        if self.process.returncode != 0:
            raise BenchmarkError(
                f"child exited with status {self.process.returncode}"
            )

    def stop(self) -> None:
        """Kill (if still running) and reap; safe to call twice."""
        self._watchdog.cancel()
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        if not self.process.stdout.closed:
            self.process.stdout.close()


def workload_args(workload: str, seed: int, seconds: float = 0.0) -> List[str]:
    return ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]


def prime() -> None:
    """Unmeasured: builds the native ``.so`` (and the ``.pyc`` files of a
    fresh checkout) so that no timed child pays for either."""
    child = Child("prime")
    try:
        child.finish()
    finally:
        child.stop()


def setup_only(workload: str, seed: int) -> float:
    """Seconds from spawn to ready of one fresh child that then stops."""
    child = Child("setup", *workload_args(workload, seed))
    try:
        ready, _ = child.read("ready")
        child.finish()
    finally:
        child.stop()
    return ready - child.spawned


def python_seconds(code: str, repeats: int = 3) -> float:
    """Median wall time of ``python -c <code>`` in the children's environment."""
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=child_env(),
                       cwd=ROOT, check=True)
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def cold_build_ms() -> float:
    """Kernel build + load + self-validation with an empty kernel cache."""
    cache = os.path.join(RESULTS, f"kernel-cold-{os.getpid()}")
    shutil.rmtree(cache, ignore_errors=True)
    try:
        done = subprocess.run(
            [sys.executable, CHILD, "--mode", "cold-build"],
            env=child_env(REPRO_KERNEL_CACHE=cache), cwd=ROOT, check=True,
            stdout=subprocess.PIPE, encoding="utf-8", timeout=CHILD_TIMEOUT,
        )
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    return json.loads(done.stdout.splitlines()[-1])["seconds"] * 1e3


# ----------------------------------------------------------------------
# Environment
# ----------------------------------------------------------------------


def environment() -> Dict[str, object]:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "machine": platform.machine(),
    }


# ----------------------------------------------------------------------
# Judging
# ----------------------------------------------------------------------


def judge(result: dict) -> List[Optional[str]]:
    """Per op: ``None`` when it neither raised nor answered wrongly."""
    tables = {key: Table.load(path) for key, path in result["tables"].items()}
    verdicts: List[Optional[str]] = []
    for op in result["ops"]:
        problem = op["error"]
        if problem is None and not op["claims"]:
            problem = "the op made no claim"
        for claim in op["claims"]:
            if problem is not None:
                break
            problem = check_claim(
                claim, tables[claim["table"]], result["pools"][claim["pool"]]
            )
        verdicts.append(problem)
    return verdicts


def penalised_walls(ops: Sequence[dict], verdicts: Sequence[Optional[str]]):
    """A failed op counts against every metric: it is charged the wall
    time of the slowest op of the run, never less than its own."""
    worst = max(op["wall"] for op in ops)
    return [worst if problem else op["wall"]
            for op, problem in zip(ops, verdicts)]


def report_failures(verdicts: Sequence[Optional[str]]) -> List[str]:
    failures = [f"op {index + 1}: {problem}"
                for index, problem in enumerate(verdicts) if problem]
    for line in failures[:5]:
        print(f"FAILED {line}", file=sys.stderr)
    return failures


def metric_values(values: Dict[str, float], definitions) -> Dict[str, dict]:
    return {
        metric.name: {"value": values[metric.name], "unit": metric.unit}
        for metric in definitions
    }


# ----------------------------------------------------------------------
# One untraced run: the end-to-end metrics
# ----------------------------------------------------------------------


def run_untraced(workload: str, seed: int, seconds: float) -> dict:
    load_before = os.getloadavg()
    prime()
    setups = [setup_only(workload, seed) for _ in range(M.SETUP_CHILDREN_BEFORE)]
    child = Child("measure", *workload_args(workload, seed, seconds))
    try:
        ready, _ = child.read("ready")
        setups.append(ready - child.spawned)
        _, result = child.read("result")
        child.finish()
    finally:
        child.stop()
    setups += [setup_only(workload, seed) for _ in range(M.SETUP_CHILDREN_AFTER)]

    verdicts = judge(result)
    walls = penalised_walls(result["ops"], verdicts)
    values = {
        "setup_s": M.second_fastest(setups),
        "op_p50_s": M.quantile(walls, 0.5),
        "op_fast_s": M.quantile(walls, 0.1),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    failures = report_failures(verdicts)
    return {
        "correct": not failures,
        "attempted": len(walls),
        "failed": len(failures),
        "metrics": metric_values(values, M.END_TO_END),
        "detail": {
            "workload": workload, "seed": seed, "seconds": seconds, "trace": 0,
            "environment": environment(),
            "loadavg_before": load_before, "loadavg_after": os.getloadavg(),
            "calibration_ms": calibration_ms(result["calibration"]),
            "setup_s_samples": setups,
            "op_wall_s": [op["wall"] for op in result["ops"]],
            "op_cpu_s": [op["cpu"] for op in result["ops"]],
            "failures": failures,
        },
    }


def calibration_ms(calibration: Dict[str, List[float]]) -> Dict[str, float]:
    return {key: statistics.median(samples) * 1e3
            for key, samples in calibration.items()}


# ----------------------------------------------------------------------
# One traced run: the per-layer metrics
# ----------------------------------------------------------------------

#: metric -> (span name, True when the metric is per call, not per op)
STAGE_METRICS = {
    "data.sensor_dataset_ms": ("data.sensor_dataset", False),
    "lang.translate_ms": ("lang.translate", False),
    "mining.build_program_ms": ("mining.build_program", False),
    "network.build_ms": ("network.build", False),
    "engine.ir.flatten_ms": ("engine.ir.flatten", False),
    "engine.ir.flatten_folded_ms": ("engine.ir.flatten_folded", False),
    "engine.masked.program_ms": ("engine.masked.program", False),
    "compile.shannon.kmedoids_ms": ("compile.shannon.kmedoids", False),
    "compile.shannon.mcl_ms": ("compile.shannon.mcl", False),
    "engine.packed.naive_ms": ("engine.packed.naive", False),
    "engine.packed.montecarlo_ms": ("engine.packed.montecarlo", False),
    "engine.packed.folded_ms": ("engine.packed.folded", False),
    "serve.hit_ms": ("serve.hit", True),
    "serve.miss_shannon_ms": ("serve.miss_shannon", True),
    "serve.miss_bulk_ms": ("serve.miss_bulk", True),
    "serve.condition_ms": ("serve.condition", True),
    "serve.put_ms": ("serve.put", True),
    "serve.rewarm_ms": ("serve.rewarm", True),
    "session.open_ms": ("session.open", False),
    "session.assert_ms": ("session.assert", True),
    "session.retract_ms": ("session.retract", True),
    "session.requery_ms": ("session.requery", True),
    "session.set_probability_ms": ("session.set_probability", True),
    "cli.summary_ms": ("cli.summary", False),
}
SHANNON_SPANS = ("compile.shannon.kmedoids", "compile.shannon.mcl",
                 "session.requery")
PACKED_SPANS = ("engine.packed.naive", "engine.packed.montecarlo",
                "engine.packed.folded")


def layer_values(result: dict, walls: Dict[str, List[float]]):
    """Every per-layer metric of one traced child; a layer the workload
    does not run reads 0."""
    values = {layer.name: 0.0 for layer in M.PER_LAYER}
    staged = list(result["stage_self_s"].values())
    setup = result["setup_self_s"]

    def per_op(span: str, per_call: bool = False) -> List[float]:
        samples = []
        for stages in staged:
            if span in stages:
                seconds, calls = stages[span]
                samples.append(seconds / calls if per_call else seconds)
        return samples

    for metric, (span, per_call) in STAGE_METRICS.items():
        samples = per_op(span, per_call)
        if samples:
            values[metric] = statistics.median(samples) * 1e3
        elif span in setup:
            seconds, calls = setup[span]
            values[metric] = (seconds / calls if per_call else seconds) * 1e3
    # The first get_backend of a process is in set-up (or, for cli-cold,
    # in every replayed process); later calls return the cached backend.
    if "engine.kernels.load" in setup:
        values["engine.kernels.load_ms"] = setup["engine.kernels.load"][0] * 1e3

    plain = [op for op in result["ops"] if op["kind"] == "plain"]
    staged_ops = [op for op in result["ops"] if op["kind"] == "staged"]
    first = plain[0]
    extras = [op["extra"] for op in result["ops"]]

    def from_extra(key: str) -> Optional[float]:
        found = [extra[key] for extra in extras if key in extra]
        return statistics.median(found) if found else None

    for key in ("network.nodes", "engine.masked.rows"):
        value = result["shape"].get(key, from_extra(key))
        if value is not None:
            values[key] = float(value)

    # Exact counts come from one fixed op (the first plain one), so that
    # they do not depend on how many ops the machine fitted in the window.
    # (`repro cluster` prints its tree nodes but neither its evaluation
    # count nor its tier: those two come from the replayed process.)
    values["compile.shannon.tree_nodes"] = float(first["tree_nodes"])
    values["compile.shannon.evals"] = float(
        first["evals"] or staged_ops[0]["evals"]
    )
    native = first["native"] or staged_ops[0]["native"]
    if native:
        values["engine.kernels.native_share"] = sum(native) / len(native)
    node_us = [
        sum(stages[span][0] for span in SHANNON_SPANS if span in stages)
        / op["tree_nodes"] * 1e6
        for stages, op in zip(staged, staged_ops) if op["tree_nodes"]
    ]
    if any(node_us):
        values["compile.shannon.us_per_node"] = statistics.median(node_us)
    for name, value in result["probes"].items():
        values[name] = value

    packed = [sum(stages[span][0] for span in PACKED_SPANS if span in stages)
              for stages in staged]
    if result["worlds_per_op"] and all(packed):
        values["engine.packed.mworlds_per_s"] = (
            result["worlds_per_op"] / statistics.median(packed) / 1e6
        )
        values["engine.packed.plan_ms"] = statistics.median(
            stages["engine.packed.naive"][0] - op["extra"]["naive_replanned_s"]
            for stages, op in zip(staged, staged_ops)
        ) * 1e3

    if all(result["stats"]):
        direct_s = from_extra("direct_miss_s")
        values["compile.shannon.kmedoids_ms"] = direct_s * 1e3
        values["compile.shannon.us_per_node"] = (
            direct_s / from_extra("direct_miss_nodes") * 1e6
        )
        values["serve.overhead_ms"] = (
            values["serve.miss_shannon_ms"] - direct_s * 1e3
        )
        values["serve.queue_wait_ms"] = from_extra("queue_wait_s") * 1e3
        before, after = result["stats"]
        hits = after["cache"]["hits"] - before["cache"]["hits"]
        misses = after["cache"]["misses"] - before["cache"]["misses"]
        values["serve.cache_hit_ratio"] = hits / (hits + misses)
        values["serve.passes_per_op"] = float(
            after["executor"]["passes"] - before["executor"]["passes"]
        )
    if "recomputed_per_edit" in first["extra"]:
        values["session.recomputed_per_edit"] = first["extra"]["recomputed_per_edit"]
    shares = [op["extra"]["reported_seconds"] / op["wall"]
              for op in plain if "reported_seconds" in op["extra"]]
    if shares:
        values["cli.reported_share"] = statistics.median(shares)

    values["harness.op_p90_s"] = M.quantile(walls["plain"], 0.9)
    values["harness.ops_per_s"] = len(plain) / sum(walls["plain"])
    values["harness.cpu_s_per_op"] = statistics.fmean(op["cpu"] for op in plain)
    values["harness.ops"] = float(len(plain))
    calibration = calibration_ms(result["calibration"])
    values["harness.calib_py_ms"] = calibration["py"]
    values["harness.calib_np_ms"] = calibration["np"]
    values["harness.coverage"] = statistics.median(
        1.0 - stages["op"][0] / op["wall"]
        for stages, op in zip(staged, staged_ops)
    )
    values["harness.trace_overhead"] = statistics.median(
        walls["staged"]
    ) / statistics.median(walls["plain"])
    return values


def run_traced(workload: str, seed: int, seconds: float,
               probes: bool = True) -> dict:
    load_before = os.getloadavg()
    prime()
    process = {}
    if probes:
        bare = python_seconds("pass")
        with_numpy = python_seconds("import numpy")
        with_repro = python_seconds("import repro")
        process = {
            "process.python_start_ms": bare * 1e3,
            "process.import_numpy_ms": (with_numpy - bare) * 1e3,
            "process.import_repro_ms": (with_repro - with_numpy) * 1e3,
            "engine.kernels.cold_build_ms": cold_build_ms(),
        }
    child = Child("trace", *workload_args(workload, seed, seconds))
    try:
        child.read("ready")
        _, result = child.read("result")
        child.finish()
    finally:
        child.stop()

    verdicts = judge(result)
    penalised = penalised_walls(result["ops"], verdicts)
    walls: Dict[str, List[float]] = {"plain": [], "staged": []}
    for op, wall in zip(result["ops"], penalised):
        walls[op["kind"]].append(wall)
    failures = report_failures(verdicts)
    values = layer_values(result, walls)
    values.update(process)
    return {
        "correct": not failures,
        "attempted": len(verdicts),
        "failed": len(failures),
        "metrics": metric_values(values, M.PER_LAYER),
        "detail": {
            "workload": workload, "seed": seed, "seconds": seconds, "trace": 1,
            "environment": environment(),
            "loadavg_before": load_before, "loadavg_after": os.getloadavg(),
            "calibration_ms": calibration_ms(result["calibration"]),
            "trace_file": result["trace_file"],
            "tables": {key: os.path.basename(path)
                       for key, path in result["tables"].items()},
            "pools": result["pools"],
            "failures": failures,
        },
    }


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------


def save(result: dict, name: str) -> str:
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
        handle.write("\n")
    return path


def final_line(result: dict) -> str:
    return json.dumps({key: result[key]
                       for key in ("correct", "attempted", "failed", "metrics")})


def run_one(workload: str, seed: int, seconds: float, trace: int,
            name: Optional[str] = None) -> dict:
    runner = run_traced if trace else run_untraced
    result = runner(workload, seed, seconds)
    if name is None:
        name = f"run-{workload}-s{seed}-t{trace}-{time.time_ns()}.json"
    save(result, name)
    return result


def run_suite(tag: str, runs: int, seed: int, seconds: float, trace: int) -> int:
    status = 0
    for k in range(runs):
        for workload in M.workload_names():
            result = run_one(workload, seed + k, seconds, trace,
                             f"{tag}-{workload}-{k}.json")
            row = "  ".join(f"{name}={entry['value']:.4g}{entry['unit']}"
                            for name, entry in result["metrics"].items()
                            if trace == 0 or entry["value"])
            print(f"{tag} {workload} #{k} seed={seed + k} "
                  f"failed={result['failed']}/{result['attempted']}  {row}",
                  flush=True)
            status |= 0 if result["correct"] else 1
    return status


def write_expected() -> int:
    """Commit-ready truth tables of the default seed under ``expected/``
    (run after a change to a workload's shape or to a generator)."""
    os.makedirs(EXPECTED_DIR, exist_ok=True)
    prime()
    for workload in M.workload_names():
        child = Child("tables", *workload_args(workload, M.DEFAULT_SEED))
        try:
            _, result = child.read("result")
            child.finish()
        finally:
            child.stop()
        for key, path in result["tables"].items():
            target = os.path.join(EXPECTED_DIR, os.path.basename(path))
            if os.path.abspath(path) != target:
                shutil.copyfile(path, target)
            print(f"{workload}/{key}: {os.path.relpath(target, ROOT)}")
    return 0


# ----------------------------------------------------------------------
# Self-test
# ----------------------------------------------------------------------


def contract_problems(document: dict) -> List[str]:
    """Limits the driver puts on ``BENCHMARK.json`` (names, units, sizes)."""
    name_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit_re = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    problems = []
    names = []
    for workload in document["workloads"]:
        names.append(workload["name"])
        if len(workload["why"]) > 200 or "\n" in workload["why"]:
            problems.append(f"why of {workload['name']} is not one short line")
    for metric in document["end_to_end"] + document["per_layer"]:
        names.append(metric["name"])
        if not unit_re.match(metric["unit"]):
            problems.append(f"bad unit {metric['unit']!r}")
        if metric["better"] not in ("lower", "higher"):
            problems.append(f"bad direction on {metric['name']}")
    for metric in document["end_to_end"]:
        if not 0.0 < metric["bound"] <= 0.25:
            problems.append(f"bound of {metric['name']} outside (0, 0.25]")
    problems += [f"bad name {name!r}" for name in names if not name_re.match(name)]
    if len(set(names)) != len(names):
        problems.append("a name is used twice")
    if not 2 <= len(document["workloads"]) <= 8:
        problems.append("need 2 to 8 workloads")
    if not 1 <= len(document["per_layer"]) <= 128:
        problems.append("need 1 to 128 per-layer metrics")
    if not any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in document["end_to_end"]):
        problems.append("no setup_s metric")
    if not 1 <= document["run_seconds"] <= 60:
        problems.append("run_seconds outside 1..60")
    if len(json.dumps(document)) > 64 * 1024:
        problems.append("BENCHMARK.json above 64 KiB")
    return problems


def input_digest(detail: dict) -> str:
    return hashlib.sha256(json.dumps(
        [detail["tables"], detail["pools"]], sort_keys=True
    ).encode()).hexdigest()[:16]


def selftest() -> int:
    started = time.perf_counter()
    problems: List[str] = []
    expected = M.benchmark_json()
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            on_disk = json.load(handle)
    except (OSError, ValueError) as exc:
        on_disk = None
        problems.append(f"cannot read BENCHMARK.json: {exc}")
    if on_disk is not None and on_disk != expected:
        problems.append("BENCHMARK.json differs from metrics.py "
                        "(run.py --write-benchmark-json regenerates it)")
    problems += contract_problems(expected)

    prime()
    seeds = (M.DEFAULT_SEED, M.DEFAULT_SEED, M.DEFAULT_SEED + 1)
    jobs = [(workload, seed) for workload in M.workload_names() for seed in seeds]
    # Two at a time: nothing here is a timing, and the machine has two cores.
    with ThreadPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(
            lambda job: run_traced(job[0], job[1], 0.0, probes=False), jobs
        ))
    for index, workload in enumerate(M.workload_names()):
        first, second, other = results[3 * index:3 * index + 3]
        for run in (first, second, other):
            if not run["correct"]:
                problems.append(f"{workload}: {run['detail']['failures'][:1]}")
            coverage = run["metrics"]["harness.coverage"]["value"]
            if coverage < M.MIN_COVERAGE:
                problems.append(f"{workload}: coverage {coverage:.3f}")
        for name in M.EXACT_COUNTS:
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            if a != b:
                problems.append(f"{workload}: {name} {a} != {b} on one seed")
        if input_digest(first["detail"]) != input_digest(second["detail"]):
            problems.append(f"{workload}: one seed gave two input digests")
        if input_digest(first["detail"]) == input_digest(other["detail"]):
            problems.append(f"{workload}: a second seed left the inputs unchanged")
    for problem in problems:
        print(f"selftest: {problem}")
    print(f"selftest: {'FAILED' if problems else 'ok'} "
          f"in {time.perf_counter() - started:.1f} s")
    return 1 if problems else 0


# ----------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=M.workload_names())
    parser.add_argument("--seed", type=int, default=M.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(M.RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--suite", metavar="TAG",
                        help="run every workload --runs times; results go to "
                             "results/TAG-<workload>-<k>.json")
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--write-benchmark-json", action="store_true")
    parser.add_argument("--write-expected", action="store_true",
                        help="rebuild expected/ for the default seed")
    args = parser.parse_args(argv)

    if args.write_benchmark_json:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w",
                  encoding="utf-8") as handle:
            json.dump(M.benchmark_json(), handle, indent=2)
            handle.write("\n")
        return 0
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"run.py: no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    try:
        if args.selftest:
            return selftest()
        if args.write_expected:
            return write_expected()
        if args.suite:
            return run_suite(args.suite, args.runs, args.seed, args.seconds,
                             args.trace)
        if args.workload is None:
            parser.error("--workload is required")
        result = run_one(args.workload, args.seed, args.seconds, args.trace)
    except BenchmarkError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    print(final_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
