"""Property tests: the world-block kernel against the NumPy row rung.

Both rungs of :class:`repro.engine.bulk.BulkEvaluator` run the same
lowered program: the world block (:func:`repro.engine.kernels._world_block`)
over 64-world words, the ``python`` rung as one NumPy column per row.
The two must agree *exactly*: the same Boolean outcome in every world
for every target, flat and folded, scalar and vector c-values at every
width, at every batch size around the 64-world word — so ``naive``
bounds are equal bit for bit and ``montecarlo`` hit counts are
identical per seed.

``python``/``native`` name the world block's two executions: its source
run as plain Python (``conftest.source_backend``) and the C generated
from it.
"""

from __future__ import annotations

import random
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compile.montecarlo import monte_carlo_probabilities
from repro.engine import bulk, kernels
from repro.engine.bulk import (
    BulkEvaluator,
    bulk_naive_probabilities,
    enumerate_worlds,
    make_bulk_evaluator,
)
from repro.events.expressions import TRUE, atom, cdist, cinv, guard, var
from repro.network.build import build_targets
from repro.network.nodes import EventNetwork, Kind
from repro.worlds.naive import naive_probabilities

from ..conftest import make_pool, require_native, source_backend
from .test_folded_bulk_vs_scalar import _random_folded_instance
from .test_masked_vs_scalar import _random_instance
from .test_vector_lowering import _folded_vector_instance, _vector_instance

BLOCK_TIERS = ("python", "native")

# World counts around the 64-world word: one world, a word less one, a
# word, a word and one, just under two words, two words, a partial tail.
BOUNDARY_WORLDS = (1, 63, 64, 65, 127, 128, 200)


def _world_block(network, tier="native"):
    backend = source_backend() if tier == "python" else require_native()
    return BulkEvaluator(network, backend)


def _world_matrix(rng, worlds, variables):
    return np.array(
        [[rng.random() < 0.5 for _ in range(variables)] for _ in range(worlds)],
        dtype=bool,
    ).reshape(worlds, variables)


def assert_same_outcomes(network, assignments, tier="native"):
    """Exact Boolean equality, world for world, for every target."""
    targets = list(network.targets.values())
    rows = make_bulk_evaluator(network, kernel="python")
    assert rows.kernel == "python"
    expected = rows.evaluate(assignments, targets)
    actual = _world_block(network, tier).evaluate(assignments, targets)
    for node_id in targets:
        assert actual[node_id].dtype == bool
        np.testing.assert_array_equal(
            actual[node_id], np.asarray(expected[node_id], dtype=bool)
        )


@pytest.mark.parametrize("kernel", BLOCK_TIERS)
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_packed_matches_dense_flat(kernel, seed):
    pool, events = _random_instance(seed)
    rng = random.Random(seed + 1)
    worlds = rng.choice(BOUNDARY_WORLDS)
    assignments = _world_matrix(rng, worlds, len(pool))
    assert_same_outcomes(build_targets(events), assignments, kernel)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_packed_matches_dense_folded(seed):
    pool, folded = _random_folded_instance(seed)
    assert make_bulk_evaluator(folded, kernel="python").kernel == "python"
    rng = random.Random(seed + 1)
    worlds = rng.choice(BOUNDARY_WORLDS)
    assert_same_outcomes(folded, _world_matrix(rng, worlds, len(pool)))


@pytest.mark.parametrize("width", (1, 2, 3, 9))
@pytest.mark.parametrize("seed", range(6))
def test_vector_lanes_match_dense(width, seed):
    # Lane-wise SUM/PROD/COND, INV of a count, n-ary DIST under all
    # three metrics and a negative exponent lowered to INV(POW).
    pool, events = _vector_instance(seed, width)
    rng = random.Random(seed)
    assert_same_outcomes(
        build_targets(events), _world_matrix(rng, 130, len(pool))
    )
    pool, folded = _folded_vector_instance(seed, width)
    assert_same_outcomes(folded, _world_matrix(rng, 130, len(pool)))


def test_wide_dist_reduces_left_to_right():
    # Regression: the NumPy rung summed a width-9 DIST with np.sum, which
    # is pairwise from width 8 on, while the world block sums left to
    # right.  At this tie the rungs resolved the atom differently, so
    # ``naive`` answered differently with and without a C compiler.
    rng = np.random.default_rng(0)
    a, b = rng.random(9), rng.random(9)
    tie = 0.0
    for x, y in zip(a, b):
        tie += (x - y) * (x - y)
    assert tie == 1.9406478306770025
    network = build_targets({
        "t": atom(
            "<=",
            cdist(guard(var(0), a), guard(TRUE, b), "sqeuclidean"),
            guard(TRUE, tie),
        )
    })
    target = network.targets["t"]
    assignments = np.array([[True], [False]])
    rows = make_bulk_evaluator(network, kernel="python")
    assert rows.evaluate(assignments, [target])[target].tolist() == [True, True]
    assert_same_outcomes(network, assignments, "python")
    pool = make_pool([0.5])
    assert naive_probabilities(network, pool, kernel="python").bounds == {
        "t": (1.0, 1.0)
    }


def _network_of_empties():
    """Empty AND/OR/SUM/PROD and INV of 0, interned as raw nodes (the
    expression builders would fold them away)."""
    network = EventNetwork()
    true = network._intern(Kind.TRUE, (), None, None)

    def node(kind, children=(), payload=None):
        return network._intern(kind, tuple(children), payload, (kind, payload))

    x0 = node(Kind.VAR, payload=0)
    network.add_target("and", node(Kind.AND))
    network.add_target("or_x0", node(Kind.OR, [node(Kind.OR), x0]))
    one = node(Kind.GUARD, [true], 1.0)
    for name, value in (
        ("sum", node(Kind.SUM)),
        ("prod", node(Kind.PROD)),
        ("inv0", node(Kind.INV, [node(Kind.GUARD, [x0], 0.0)])),
    ):
        network.add_target(name, node(Kind.ATOM, [value, one], ">"))
    return network


def test_empty_operators_and_inverse_of_zero():
    network = _network_of_empties()
    assignments = np.array([[True], [False]])
    expected = {
        "and": [True, True],  # the empty conjunction
        "or_x0": [True, False],  # the empty disjunction is false
        "sum": [True, True],  # undefined: the atom holds
        "prod": [False, False],  # 1.0 > 1.0
        "inv0": [True, True],  # 1/0 is undefined, not inf
    }
    for tier in BLOCK_TIERS:
        evaluator = _world_block(network, tier)
        outcomes = evaluator.evaluate(assignments, list(network.targets.values()))
        for name, values in expected.items():
            assert outcomes[network.targets[name]].tolist() == values, (tier, name)
    assert_same_outcomes(network, assignments)


@pytest.mark.parametrize("worlds", BOUNDARY_WORLDS)
def test_word_boundary_worlds_exact(worlds):
    pool, events = _random_instance(3)
    rng = random.Random(worlds)
    assignments = _world_matrix(rng, worlds, len(pool))
    assert_same_outcomes(build_targets(events), assignments)


def test_empty_batch_and_zero_variable_pool():
    pool, events = _random_instance(5)
    network = build_targets(events)
    for tier in BLOCK_TIERS:
        outcomes = _world_block(network, tier).evaluate(
            np.zeros((0, len(pool)), dtype=bool), list(network.targets.values())
        )
        assert all(column.shape == (0,) for column in outcomes.values())
    assert_same_outcomes(network, np.zeros((0, len(pool)), dtype=bool))
    assert _world_block(network).evaluate(np.ones((5, len(pool)), bool), []) == {}
    # No variables at all: one world, evaluated like any other.
    constant = build_targets({
        "c": atom("<=", guard(TRUE, 0.5), cinv(guard(TRUE, 2.0)))
    })
    for worlds in (0, 1, 64, 65):
        assert_same_outcomes(constant, np.zeros((worlds, 0), dtype=bool))
    result = bulk_naive_probabilities(constant, make_pool([]))
    assert result.bounds["c"] == (1.0, 1.0)


def test_numeric_roots_and_missing_variables_raise():
    network = build_targets({"t": atom("<=", guard(var(1), 1.0), guard(TRUE, 2.0))})
    evaluator = _world_block(network)
    numeric = network.nodes[network.targets["t"]].children[0]
    with pytest.raises(TypeError, match="Boolean"):
        evaluator.evaluate(np.ones((4, 2), dtype=bool), [numeric])
    with pytest.raises(IndexError):
        evaluator.evaluate(np.ones((4, 1), dtype=bool), [network.targets["t"]])


@pytest.mark.parametrize("kernel", BLOCK_TIERS)
def test_naive_probabilities_packed_matches_unpacked(kernel, monkeypatch):
    if kernel == "python":  # the world block's source behind the driver
        monkeypatch.setattr(
            kernels, "get_backend",
            lambda name: None if name == "python" else source_backend(),
        )
    else:
        require_native()
    for seed in range(6):
        pool, events = _random_instance(seed)
        network = build_targets(events)
        evaluator = make_bulk_evaluator(network, kernel="native")
        assert evaluator.kernel == ("source" if kernel == "python" else "native")
        blocks = naive_probabilities(network, pool, kernel="native")
        rows = naive_probabilities(network, pool, kernel="python")
        assert blocks.bounds == rows.bounds  # bit for bit
        assert blocks.tree_nodes == rows.tree_nodes
        assert "packed" not in blocks.extra and "kernel_tier" not in blocks.extra


def test_naive_probabilities_packed_matches_unpacked_folded():
    require_native()
    for seed in range(4):
        pool, folded = _random_folded_instance(seed)
        blocks = naive_probabilities(folded, pool, kernel="native")
        rows = naive_probabilities(folded, pool, kernel="python")
        assert blocks.bounds == rows.bounds


def test_monte_carlo_packed_matches_unpacked_per_seed():
    # Same seed → same sampled worlds → identical hit counts.
    require_native()
    for seed in range(4):
        pool, events = _random_instance(seed)
        pool_folded, folded = _random_folded_instance(seed)
        for network, samples_pool in ((build_targets(events), pool),
                                      (folded, pool_folded)):
            runs = [
                monte_carlo_probabilities(
                    network, samples_pool, samples=257, seed=seed, kernel=kernel
                )
                for kernel in ("native", "python")
            ]
            assert runs[0].bounds == runs[1].bounds


def test_world_keys_and_timeouts_match_dense(monkeypatch):
    require_native()
    pool, events = _random_instance(11)
    network = build_targets(events)
    keys = list(network.targets.values())
    runs = [
        bulk_naive_probabilities(network, pool, world_key_nodes=keys, kernel=k)
        for k in ("native", "python")
    ]
    assert runs[0].bounds == runs[1].bounds
    assert runs[0].extra["distinct_worlds"] == runs[1].extra["distinct_worlds"]
    # A clock that ticks once per read: the budget admits one chunk, so
    # both rungs report the same partial sums over the same worlds.
    for kernel in ("native", "python"):
        ticks = iter(range(1000))
        monkeypatch.setattr(
            bulk, "time",
            types.SimpleNamespace(perf_counter=lambda: float(next(ticks))),
        )
        runs.append(bulk_naive_probabilities(
            network, pool, timeout=1.5, chunk_size=8, kernel=kernel
        ))
    partial = runs[2:]
    assert [run.extra["timed_out"] for run in partial] == [1.0, 1.0]
    assert partial[0].bounds == partial[1].bounds
    assert partial[0].tree_nodes == partial[1].tree_nodes == 8
    assert all(upper == 1.0 for _, upper in partial[0].bounds.values())


def test_enumerate_worlds_batches_agree_with_packed_eval():
    # enumerate_worlds chunks feed the world block during naive runs;
    # every world of a pool, one batch.
    pool, events = _random_instance(7)
    worlds = enumerate_worlds(len(pool), 0, 1 << len(pool))
    assert_same_outcomes(build_targets(events), worlds)
