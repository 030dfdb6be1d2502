"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import contextlib
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
    the text the native C is generated from; running them as plain
    Python gives the differential suites a second execution of
    that text that owes nothing to the emitter or a compiler.
    """
    from repro.engine import kernels

    return kernels._Backend(
        "source",
        sweep_py=kernels._masked_sweep,
        packed_py=kernels._packed_segments,
    )


def trail_entries(frame):
    """One trail frame as plain ``(tag, vid, *old values)`` tuples.

    Emission order is part of the tier contract, so the differential
    suites compare frames entry by entry.  A Python-tier frame is
    already a list of such tuples; a kernel ``_KFrame`` keeps the same
    entries as column slices, read here slot by slot.
    """
    from repro.engine.masked import _TAG_BOOL, _TAG_NUM

    if isinstance(frame, list):
        entries = frame
    else:
        entries = [
            (tag, vid, b) if tag == _TAG_BOOL else (tag, vid, lo, hi, mu, md)
            for tag, vid, b, lo, hi, mu, md in zip(
                frame.tag, frame.vid, frame.b,
                frame.lo, frame.hi, frame.mu, frame.md,
            )
        ]
    return [
        (_TAG_BOOL, int(vid), int(old[0]))
        if tag == _TAG_BOOL
        else (_TAG_NUM, int(vid), float(old[0]), float(old[1]),
              bool(old[2]), bool(old[3]))
        for tag, vid, *old in entries
    ]


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


#: The two ways ``execution="process"`` gets its workers.
POOL_KINDS = ("pair", "listen")


def free_port() -> int:
    """A loopback port nothing listens on (for ``listen=`` runs)."""
    import socket

    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


@contextlib.contextmanager
def pooled_coordinator(kind, network, pool, workers=2, **kwargs):
    """A ``DistributedCompiler`` whose process pool is of ``kind``.

    ``"pair"`` spawns local workers on private socket pairs (the
    default); ``"listen"`` binds a free loopback port and starts
    ``workers`` out-of-tree ``serve_worker()`` processes — the ``repro
    cluster --connect`` entry point — that join it.  Everything is torn
    down on exit, stalled joiners included.
    """
    import multiprocessing

    from repro.compile.distributed import DistributedCompiler
    from repro.compile.transport import serve_worker

    joiners = []
    if kind == "listen":
        address = f"127.0.0.1:{free_port()}"
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
        network, pool, workers=workers, **kwargs
    )
    try:
        yield coordinator
    finally:
        coordinator.close(force=True)
        for joiner in joiners:
            joiner.join(2.0)
            if joiner.is_alive():  # crashed-into-stall or never joined
                joiner.terminate()
                joiner.join(5.0)


@pytest.fixture
def rng():
    return random.Random(1234)


@pytest.fixture
def small_pool():
    return make_pool([0.5, 0.3, 0.8])
