"""Property tests: the folded bulk path against the scalar oracles.

Randomly generated *folded* networks — multi-slot, mixing Boolean
(:class:`LoopEvent`) and numeric (:class:`LoopCVal`) loop-carried state,
over randomly weighted pools and random iteration counts — must get
identical probabilities (to 1e-9) from three independent paths:

* the iteration-swept bulk engine (``naive`` through the registry),
* the per-world recursive folded evaluator (``naive-scalar``),
* Shannon expansion over the folded network (``exact``).

This is the contract that let the scalar folded fallback be deleted:
folded networks take the same vectorized path as flat ones.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.registry import run_scheme
from repro.events.expressions import (
    TRUE,
    LoopCVal,
    LoopEvent,
    atom,
    cond,
    csum,
    disj,
    guard,
    literal,
)
from repro.network.build import NetworkBuilder
from repro.network.nodes import EventNetwork
from repro.worlds.variables import VariablePool

from ..conftest import random_event

MATCH_ABS = 1e-9


def _random_folded_instance(seed: int):
    """A folded network with one Boolean and one numeric loop slot."""
    rng = random.Random(seed)
    pool = VariablePool()
    for _ in range(rng.randint(2, 5)):
        pool.add(rng.uniform(0.05, 0.95))
    iterations = rng.randint(1, 4)
    builder = NetworkBuilder(EventNetwork(iterations=iterations))

    flag = LoopEvent("flag")
    total = LoopCVal("total")
    # Boolean slot: a latch that can be set (and sometimes gated) by
    # fresh events each iteration.
    flag_next = disj(
        [
            flag,
            random_event(pool, rng, depth=rng.randint(1, 2)),
        ]
    )
    # Numeric slot: a running sum fed by guarded constants, one of them
    # conditioned on the Boolean slot (cross-slot dependence).
    total_next = csum(
        [
            total,
            guard(
                random_event(pool, rng, depth=1), rng.uniform(-1.5, 1.5)
            ),
            cond(flag, guard(TRUE, rng.uniform(-1.0, 1.0))),
        ]
    )
    builder.define_slot(
        "flag", init=random_event(pool, rng, depth=1), next_value=flag_next
    )
    builder.define_slot(
        "total", init=literal(rng.uniform(-0.5, 0.5)), next_value=total_next
    )
    builder.add_target("flag_out", flag_next)
    builder.add_target(
        "total_out",
        atom(
            rng.choice(["<=", "<", ">=", ">"]),
            total_next,
            literal(rng.uniform(-2.0, 2.0)),
        ),
    )
    return pool, builder.network


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_folded_bulk_matches_scalar_oracle(seed):
    pool, folded = _random_folded_instance(seed)
    bulk = run_scheme("naive", folded, pool)
    scalar = run_scheme("naive-scalar", folded, pool)
    assert bulk.extra.get("vectorized") == 1.0
    for name in folded.targets:
        assert bulk.bounds[name][0] == pytest.approx(
            scalar.bounds[name][0], abs=MATCH_ABS
        )
        # Exact schemes collapse the interval.
        assert bulk.bounds[name][0] == bulk.bounds[name][1]
    assert bulk.tree_nodes == scalar.tree_nodes


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_folded_bulk_agrees_with_shannon_exact(seed):
    pool, folded = _random_folded_instance(seed)
    bulk = run_scheme("naive", folded, pool)
    shannon = run_scheme("exact", folded, pool)
    for name in folded.targets:
        assert bulk.bounds[name][0] == pytest.approx(
            shannon.bounds[name][0], abs=MATCH_ABS
        )
