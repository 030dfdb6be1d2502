"""Property tests: cone-aware ordering and the job handoff.

Two contracts:

* :class:`~repro.compile.ordering.ConeInfluenceOrder` (precomputed IR
  cones ∩ the masked engine's resolved column) must pick **the same
  variable** as the reference
  :class:`~repro.compile.ordering.DynamicInfluenceOrder` (per-choice
  Python scan over the network adjacency) at every branching point, on
  flat and folded networks alike, with identical tie-breaking;
* a worker reaches a job root by ``_PrefixCursor.seek`` — rewind to the
  common ancestor of the prefix it holds and the job's, push the
  suffix.  After any sequence of seeks the persistent evaluator must be
  **state for state** the evaluator that pushed the same prefix from the
  root: every column, the resolved mask, the trail, ``depth`` and
  ``assignment`` — on flat and folded networks, scalar and vector
  c-values, the Python and the native tier.  The seek is a pure
  evaluator-state move and must not leak into the job DAG or the
  budgets, so exact distributed runs equal the sequential compiler.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compile.compiler import compile_network, make_evaluator
from repro.compile.distributed import _PrefixCursor, compile_distributed
from repro.compile.ordering import ConeInfluenceOrder, DynamicInfluenceOrder
from repro.engine.masked import MaskedEvaluator
from repro.network.build import build_targets
from repro.worlds.variables import VariablePool

from ..conftest import random_event, require_native, trail_entries
from .test_folded_bulk_vs_scalar import _random_folded_instance
from .test_masked_vs_scalar import _random_instance as _random_masked_instance

MATCH_ABS = 1e-9


def _random_instance(seed: int):
    rng = random.Random(seed)
    pool = VariablePool()
    for _ in range(rng.randint(3, 7)):
        pool.add(rng.uniform(0.05, 0.95))
    events = {
        f"t{index}": random_event(pool, rng, depth=rng.randint(1, 3))
        for index in range(rng.randint(1, 3))
    }
    return pool, events


def _assert_same_picks(pool, network, evaluator, rng, steps=12):
    """Walk random pushes/pops; the two orders must agree at every node."""
    dynamic = DynamicInfluenceOrder(network)
    cone = ConeInfluenceOrder(network)
    evaluator.push()
    stack = []
    for _ in range(steps):
        assert cone.next_variable(evaluator) == dynamic.next_variable(evaluator)
        for index in sorted(network.variables()):
            if index in evaluator.assignment:
                continue
            assert evaluator.count_unresolved_in_cone(index) == (
                evaluator.count_unresolved(dynamic.influence_cone(index))
            ), index
        if stack and rng.random() < 0.4:
            evaluator.pop(stack.pop())
        else:
            free = [
                index
                for index in range(len(pool))
                if index not in evaluator.assignment
            ]
            if not free:
                break
            variable = rng.choice(free)
            evaluator.push(variable, rng.random() < 0.5)
            stack.append(variable)
    while stack:
        evaluator.pop(stack.pop())
    evaluator.pop()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_cone_order_matches_dynamic_flat(seed):
    pool, events = _random_instance(seed)
    network = build_targets(events)
    evaluator = make_evaluator(network, engine="masked")
    assert isinstance(evaluator, MaskedEvaluator)
    _assert_same_picks(pool, network, evaluator, random.Random(seed + 1))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_cone_order_matches_dynamic_folded(seed):
    pool, folded = _random_folded_instance(seed)
    evaluator = make_evaluator(folded, engine="masked")
    assert isinstance(evaluator, MaskedEvaluator)
    _assert_same_picks(pool, folded, evaluator, random.Random(seed + 1))


def _prefix_walk(rng, variables, steps):
    """Random job prefixes: identical, deeper, shallower, sibling, cousin."""
    prefix = ()
    for _ in range(steps):
        move = rng.choice(("same", "deeper", "shallower", "sibling", "cousin"))
        if move == "shallower":
            prefix = prefix[: rng.randint(0, len(prefix))]
        elif move == "sibling" and prefix:
            variable, value = prefix[-1]
            prefix = prefix[:-1] + ((variable, not value),)
        elif move != "same":
            if move == "cousin":  # branch off a random ancestor
                prefix = prefix[: rng.randint(0, len(prefix))]
            taken = {variable for variable, _ in prefix}
            free = [index for index in range(variables) if index not in taken]
            rng.shuffle(free)
            prefix += tuple(
                (variable, rng.random() < 0.5)
                for variable in free[: rng.randint(1, 2)]
            )
        yield prefix


def _assert_seek_matches_root_replay(network, variables, tier, rng):
    """One persistent cursor vs. a fresh evaluator pushed from the root."""
    engine = f"masked:{tier}"
    cursor = _PrefixCursor(network, engine)
    seeker = cursor.ensure()
    assert seeker.kernel == tier
    for prefix in _prefix_walk(rng, variables, steps=14):
        cursor.seek(prefix)
        replayed = make_evaluator(network, engine=engine)
        replayed.push()
        for variable, value in prefix:
            replayed.push(variable, value)
        assert cursor.applied == prefix
        assert seeker.depth == replayed.depth == 1 + len(prefix)
        # Item order too: a forked child's prefix is assignment.items().
        assert list(seeker.assignment.items()) == list(prefix)
        assert list(replayed.assignment.items()) == list(prefix)
        for column in (
            "bstate", "lo", "hi", "may_u", "may_def", "resolved_mask"
        ):
            np.testing.assert_array_equal(  # NaN == NaN here
                getattr(seeker, column), getattr(replayed, column), column
            )
        # repr() makes NaN payloads comparable.
        assert [repr(trail_entries(f)) for f in seeker._frames] == [
            repr(trail_entries(f)) for f in replayed._frames
        ]
    cursor.release()
    assert (seeker.depth, seeker.assignment, cursor.applied) == (0, {}, ())


@pytest.mark.parametrize("tier", ["python", "native"])
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_seek_matches_root_replay_flat(tier, seed):
    if tier == "native":
        require_native()
    # Half of these instances carry vector c-values.
    pool, events = _random_masked_instance(seed)
    network = build_targets(events)
    _assert_seek_matches_root_replay(
        network, len(pool), tier, random.Random(seed + 2)
    )


@pytest.mark.parametrize("tier", ["python", "native"])
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_seek_matches_root_replay_folded(tier, seed):
    if tier == "native":
        require_native()
    pool, folded = _random_folded_instance(seed)
    _assert_seek_matches_root_replay(
        folded, len(pool), tier, random.Random(seed + 2)
    )


def test_delta_handoff_matches_sequential_exact():
    for seed in range(6):
        pool, events = _random_instance(seed)
        network = build_targets(events)
        sequential = compile_network(network, pool)
        distributed = compile_distributed(
            network, pool, scheme="exact", workers=4, job_size=2
        )
        for name in network.targets:
            assert distributed.bounds[name][0] == pytest.approx(
                sequential.bounds[name][0], abs=MATCH_ABS
            )
            assert distributed.bounds[name][1] == pytest.approx(
                sequential.bounds[name][1], abs=MATCH_ABS
            )
