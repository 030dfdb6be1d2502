"""Property tests: multi-process execution is an exact replica.

The contract behind ``execution="process"``: a job is a pure function
of its creation-time inputs and the generation barriers merge results
in creation order, so however the OS schedules the worker processes —
and whichever workers end up executing which jobs — the decision trees,
job DAG, evaluation counts and probability bounds must be *identical*,
bit for bit, to the deterministic single-process simulation, for all
four schemes on both kernel tiers.  Every worker reaches a job root by
seeking its own cursor there; a seek that left one column off a root
replay would shift some bound.

``execution="socket"`` inherits the whole contract: the same jobs ride
a framed TCP stream instead of pipes, idle workers may *steal* queued
jobs, and two jobs are kept in flight per worker — none of which may
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

MATCH_ABS = 1e-9  # against the sequential compiler; modes match exactly
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
    assert left.evals == right.evals, context
    assert left.bounds == right.bounds, context


@pytest.mark.parametrize("kernel", ["python", "auto"])
def test_process_matches_simulated_all_schemes(kernel):
    # One coordinator per tier: the persistent worker pool is reused
    # across all schemes, keeping spawn cost out of the loop.
    pool, network = _random_instance(11)
    coordinator = DistributedCompiler(
        network, pool, workers=2, job_size=2, kernel=kernel
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
                process, simulated, f"{scheme}/{kernel} process vs simulated"
            )
        if kernel == "python":
            assert coordinator._compiler.evaluator.kernel == "python"
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
def test_socket_matches_simulated_all_schemes(steal):
    # Same pool-reuse pattern as the process test: one socket cluster
    # (2 local TCP workers) serves all four schemes.
    pool, network = _random_instance(11)
    coordinator = DistributedCompiler(network, pool, workers=2, job_size=2, steal=steal)
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
                f"{scheme}/steal={steal} socket vs simulated",
            )
    finally:
        coordinator.close()


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
