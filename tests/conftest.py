"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random
import sys

import pytest

# The compiler's DFS is iterative, but the *scalar* oracle evaluators
# still recurse over deep networks in the cross-validation suites;
# raising the limit up front keeps them usable on large instances.
sys.setrecursionlimit(100_000)

from repro.events.expressions import (
    TRUE,
    atom,
    conj,
    csum,
    disj,
    guard,
    negate,
    var,
)
from repro.worlds.variables import VariablePool


def make_pool(probabilities):
    pool = VariablePool()
    for probability in probabilities:
        pool.add(probability)
    return pool


def require_native():
    """The native kernel backend, or skip with the reason it was rejected."""
    from repro.engine.kernels import BACKEND_ERRORS, get_backend

    backend = get_backend("native")
    if backend is None:
        pytest.skip(f"native kernel tier unavailable: {BACKEND_ERRORS.get('native')}")
    return backend


def source_backend():
    """The kernel *source* run as plain Python: a test-local reference.

    Not a registered tier — ``_masked_sweep``/``_packed_segments`` are
    the text the native C is generated from and numba's input; running
    them un-jitted gives the differential suites a second execution of
    that text that owes nothing to the emitter or a compiler.
    """
    from repro.engine import kernels

    return kernels._Backend(
        "source",
        sweep_py=kernels._masked_sweep,
        packed_py=kernels._packed_segments,
    )


def random_event(pool, rng, depth=3):
    """A random event expression over the pool (shared by many tests)."""
    if depth == 0 or rng.random() < 0.3:
        return var(rng.randrange(len(pool)))
    choice = rng.random()
    if choice < 0.35:
        return conj(
            random_event(pool, rng, depth - 1) for _ in range(rng.randint(2, 3))
        )
    if choice < 0.70:
        return disj(
            random_event(pool, rng, depth - 1) for _ in range(rng.randint(2, 3))
        )
    if choice < 0.85:
        return negate(random_event(pool, rng, depth - 1))
    terms = [
        guard(random_event(pool, rng, 1), rng.uniform(-2.0, 2.0)) for _ in range(3)
    ]
    return atom(
        rng.choice(["<=", "<", ">=", ">"]),
        csum(terms),
        guard(TRUE, rng.uniform(-2.0, 2.0)),
    )


@pytest.fixture
def rng():
    return random.Random(1234)


@pytest.fixture
def small_pool():
    return make_pool([0.5, 0.3, 0.8])
