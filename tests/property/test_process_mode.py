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

The whole contract holds for both ways the one pool gets its workers —
spawned on private socket pairs, or joined over TCP through
``listen=`` — and with idle workers *stealing* queued jobs, which only
reassigns *which* worker computes a job: merges stay creation-ordered,
so not a single tree node may move.
"""

from __future__ import annotations

import random

import pytest

from repro.compile.compiler import compile_network
from repro.network.build import build_targets

from ..conftest import (
    POOL_KINDS,
    make_pool,
    pooled_coordinator,
    random_event,
)
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


def _assert_pool_matches_simulation(coordinator, context: str) -> None:
    """All four schemes: the pool's run is the simulation, bit for bit."""
    for scheme, epsilon in SCHEMES:
        simulated = coordinator.run(
            scheme=scheme, epsilon=epsilon, execution="simulate"
        )
        process = coordinator.run(scheme=scheme, epsilon=epsilon, execution="process")
        _assert_identical(process, simulated, f"{scheme}/{context}")


@pytest.mark.parametrize("kernel", ["python", "auto"])
def test_process_matches_simulated_all_schemes(kernel):
    # One coordinator per tier and pool kind: the persistent worker pool
    # is reused across all schemes, keeping spawn cost out of the loop.
    pool, network = _random_instance(11)
    for pool_kind in POOL_KINDS:
        with pooled_coordinator(
            pool_kind, network, pool, job_size=2, kernel=kernel
        ) as coordinator:
            _assert_pool_matches_simulation(coordinator, f"{kernel}/{pool_kind}")
            if kernel == "python":
                assert coordinator._compiler.evaluator.kernel == "python"


def test_process_matches_simulated_without_stealing():
    # Stealing (the default, above) only reassigns which worker runs a
    # job; switching it off must not move a tree node either.
    pool, network = _random_instance(11)
    for pool_kind in POOL_KINDS:
        with pooled_coordinator(
            pool_kind, network, pool, job_size=2, steal=False
        ) as coordinator:
            _assert_pool_matches_simulation(coordinator, f"no-steal/{pool_kind}")


def test_process_matches_simulated_random_instances():
    for seed in range(3):
        pool, network = _random_instance(seed)
        with pooled_coordinator(
            POOL_KINDS[seed % 2], network, pool, job_size=1
        ) as coordinator:
            simulated = coordinator.run(scheme="hybrid", epsilon=0.05)
            process = coordinator.run(
                scheme="hybrid", epsilon=0.05, execution="process"
            )
            _assert_identical(process, simulated, f"seed {seed}")


def test_process_matches_sequential_exact_folded():
    pool, folded = _random_folded_instance(2)
    sequential = compile_network(folded, pool)
    for pool_kind in POOL_KINDS:
        with pooled_coordinator(pool_kind, folded, pool, job_size=2) as coordinator:
            process = coordinator.run(scheme="exact", execution="process")
            simulated = coordinator.run(scheme="exact", execution="simulate")
        _assert_identical(process, simulated, f"folded exact/{pool_kind}")
        for name in folded.targets:
            assert process.bounds[name] == pytest.approx(
                sequential.bounds[name], abs=MATCH_ABS
            )
