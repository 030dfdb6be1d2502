"""Property tests: multi-process execution is an exact replica.

The contract behind ``execution="process"``: a job is a pure function
of its creation-time inputs and the generation barriers merge results
in creation order, so however the OS schedules the worker processes —
and whichever workers end up executing which jobs — the decision trees,
job DAG, and probability bounds must be *identical* (to 1e-9) to the
deterministic single-process simulation, for all four schemes and both
handoff modes.  The column-patch wire format
(:meth:`~repro.engine.masked.MaskedEvaluator.export_patch`) rides the
same assertions: a patch that diverged from a local re-sweep by one
write would shift some bound.

``execution="socket"`` inherits the whole contract: the same jobs ride
a framed TCP stream instead of pipes, idle workers may *steal* queued
jobs, and patches are pipelined ahead of execution — none of which may
move a single tree node, because stealing only reassigns *which*
worker computes a job and merges stay creation-ordered.
"""

from __future__ import annotations

import random

import pytest

from repro.compile.compiler import compile_network
from repro.compile.distributed import DistributedCompiler
from repro.network.build import build_targets

from ..conftest import make_pool, random_event
from .test_folded_bulk_vs_scalar import _random_folded_instance

MATCH_ABS = 1e-9
SCHEMES = [("exact", 0.0), ("lazy", 0.07), ("eager", 0.07), ("hybrid", 0.07)]


def _random_instance(seed: int):
    rng = random.Random(seed)
    pool = make_pool([rng.uniform(0.05, 0.95) for _ in range(rng.randint(4, 6))])
    events = {
        f"t{index}": random_event(pool, rng, depth=rng.randint(1, 3))
        for index in range(rng.randint(1, 3))
    }
    return pool, build_targets(events)


def _assert_identical(left, right, context: str) -> None:
    assert left.jobs == right.jobs, context
    assert left.tree_nodes == right.tree_nodes, context
    for name in left.bounds:
        assert left.bounds[name][0] == pytest.approx(
            right.bounds[name][0], abs=MATCH_ABS
        ), (context, name)
        assert left.bounds[name][1] == pytest.approx(
            right.bounds[name][1], abs=MATCH_ABS
        ), (context, name)


@pytest.mark.parametrize("handoff", ["delta", "replay"])
def test_process_matches_simulated_all_schemes(handoff):
    # One coordinator per handoff: the persistent worker pool is reused
    # across all schemes and seeds, keeping spawn cost out of the loop.
    pool, network = _random_instance(11)
    coordinator = DistributedCompiler(
        network, pool, workers=2, job_size=2, handoff=handoff
    )
    try:
        for scheme, epsilon in SCHEMES:
            simulated = coordinator.run(
                scheme=scheme, epsilon=epsilon, execution="simulate"
            )
            process = coordinator.run(
                scheme=scheme, epsilon=epsilon, execution="process"
            )
            _assert_identical(
                process, simulated, f"{scheme}/{handoff} process vs simulated"
            )
    finally:
        coordinator.close()


@pytest.mark.parametrize("kernel", ["python", "auto"])
def test_delta_ships_patches_only_for_python_sweeps(kernel):
    # Applying a patch beats re-sweeping on the Python tier only; on a
    # compiled tier the delta handoff pushes the suffix.  Either way the
    # process run is the simulated run.
    pool, network = _random_instance(5)
    coordinator = DistributedCompiler(
        network, pool, workers=2, job_size=1, kernel=kernel
    )
    try:
        for scheme, epsilon in SCHEMES:
            simulated = coordinator.run(scheme=scheme, epsilon=epsilon)
            process = coordinator.run(
                scheme=scheme, epsilon=epsilon, execution="process"
            )
            _assert_identical(process, simulated, f"{scheme} kernel={kernel}")
        python_tier = coordinator._compiler.evaluator.kernel == "python"
        assert coordinator._process_pool.capture_patches is python_tier
        if kernel == "python":
            assert python_tier
    finally:
        coordinator.close()


def test_process_matches_simulated_random_instances():
    for seed in range(3):
        pool, network = _random_instance(seed)
        coordinator = DistributedCompiler(network, pool, workers=2, job_size=1)
        try:
            simulated = coordinator.run(scheme="hybrid", epsilon=0.05)
            process = coordinator.run(
                scheme="hybrid", epsilon=0.05, execution="process"
            )
            threaded = coordinator.run(
                scheme="hybrid", epsilon=0.05, execution="threads"
            )
            _assert_identical(process, simulated, f"seed {seed}")
            _assert_identical(threaded, simulated, f"seed {seed} (threads)")
        finally:
            coordinator.close()


@pytest.mark.parametrize("steal", [True, False], ids=["steal", "no-steal"])
@pytest.mark.parametrize("handoff", ["delta", "replay"])
def test_socket_matches_simulated_all_schemes(handoff, steal):
    # Same pool-reuse pattern as the process test: one socket cluster
    # (2 local TCP workers) serves all four schemes.
    pool, network = _random_instance(11)
    coordinator = DistributedCompiler(
        network, pool, workers=2, job_size=2, handoff=handoff, steal=steal
    )
    try:
        for scheme, epsilon in SCHEMES:
            simulated = coordinator.run(
                scheme=scheme, epsilon=epsilon, execution="simulate"
            )
            clustered = coordinator.run(
                scheme=scheme, epsilon=epsilon, execution="socket"
            )
            _assert_identical(
                clustered,
                simulated,
                f"{scheme}/{handoff}/steal={steal} socket vs simulated",
            )
    finally:
        coordinator.close()


def test_socket_pipelining_depth_does_not_change_the_tree():
    # pipeline_depth=1 is ship-then-run, 2 overlaps the next patch with
    # the current job; both must yield the simulated tree exactly.
    pool, network = _random_instance(7)
    results = []
    for depth in (1, 2):
        coordinator = DistributedCompiler(
            network, pool, workers=2, job_size=1, pipeline_depth=depth
        )
        try:
            results.append(
                coordinator.run(scheme="hybrid", epsilon=0.05, execution="socket")
            )
        finally:
            coordinator.close()
    baseline = DistributedCompiler(network, pool, workers=2, job_size=1)
    simulated = baseline.run(scheme="hybrid", epsilon=0.05)
    for depth, clustered in zip((1, 2), results):
        _assert_identical(clustered, simulated, f"pipeline depth {depth}")


def test_process_matches_sequential_exact_folded():
    pool, folded = _random_folded_instance(2)
    sequential = compile_network(folded, pool)
    coordinator = DistributedCompiler(folded, pool, workers=2, job_size=2)
    try:
        process = coordinator.run(scheme="exact", execution="process")
        simulated = coordinator.run(scheme="exact", execution="simulate")
    finally:
        coordinator.close()
    _assert_identical(process, simulated, "folded exact")
    for name in folded.targets:
        assert process.bounds[name][0] == pytest.approx(
            sequential.bounds[name][0], abs=MATCH_ABS
        )
        assert process.bounds[name][1] == pytest.approx(
            sequential.bounds[name][1], abs=MATCH_ABS
        )
