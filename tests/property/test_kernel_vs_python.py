"""Property tests: the kernel-tier masked sweeps against the Python tier.

The kernel tier (:mod:`repro.engine.kernels`: the C generated from the
single-source sweep) must be *state-for-state* equivalent to the pure-Python
:class:`~repro.engine.masked.MaskedEvaluator` — the same three-valued
Boolean state and the same numeric abstraction for every node, under
every partial assignment reachable by a random push/pop walk, on flat
and folded networks alike.  The four Shannon schemes (plus their
``workers=`` runs) must produce identical bounds whichever tier sweeps
the cones.

``native`` joins the matrix whenever it compiles and passes
self-validation; a host without a C compiler runs no compiled tier (and
``BACKEND_ERRORS`` says why).  The kernel *source* run as plain
Python is compared with the C generated from it in
``tests/unit/test_cgen.py``.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compile.compiler import compile_network
from repro.compile.distributed import compile_distributed
from repro.engine.kernels import (
    KernelMaskedEvaluator,
    available_kernels,
    get_backend,
    make_masked_evaluator,
)
from repro.engine.masked import MaskedEvaluator
from repro.network.build import build_targets

from ..conftest import source_backend, trail_entries
from .test_folded_bulk_vs_scalar import _random_folded_instance
from .test_masked_vs_scalar import (
    MATCH_ABS,
    _random_instance,
    _random_walk,
    _states_equal,
)

# Every compiled tier that built and self-validated in this process.
TIERS = tuple(
    name for name in available_kernels() if name not in ("auto", "python")
)


def _walk_pair(pool, oracle, candidate, rng, checker, steps=10):
    """Reuse the scalar-vs-masked walk driver for a tier pair."""
    _random_walk(pool, oracle, candidate, rng, checker, steps=steps)


def assert_tiers_identical(oracle, candidate):
    """Two tiers over one program: same columns, mask, trail and evals.

    Tiers run the same lowered program, so everything observable must be
    bit-identical — every column (``lo``/``hi`` wherever the value is
    defined), the resolved mask, the trail entries of every open frame
    in emission order, and the evaluation counter.
    """
    np.testing.assert_array_equal(candidate.bstate, oracle.bstate)
    np.testing.assert_array_equal(candidate.may_u, oracle.may_u)
    np.testing.assert_array_equal(candidate.may_def, oracle.may_def)
    np.testing.assert_array_equal(candidate.resolved_mask, oracle.resolved_mask)
    np.testing.assert_array_equal(candidate.lo, oracle.lo)  # NaN == NaN here
    np.testing.assert_array_equal(candidate.hi, oracle.hi)
    assert candidate.evals == oracle.evals
    assert candidate.depth == oracle.depth
    for theirs, ours in zip(oracle._frames, candidate._frames):
        # repr() makes NaN payloads comparable and keeps -0.0 apart from 0.0.
        assert [repr(e) for e in trail_entries(ours)] == [
            repr(e) for e in trail_entries(theirs)
        ]


@pytest.mark.parametrize("tier", TIERS)
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_kernel_matches_python_states_flat(tier, seed):
    pool, events = _random_instance(seed)
    network = build_targets(events)
    oracle = make_masked_evaluator(network, kernel="python")
    candidate = make_masked_evaluator(network, kernel=tier)
    assert type(oracle) is MaskedEvaluator
    # Half of these instances carry vector c-values: the tier never
    # depends on the network.
    assert isinstance(candidate, KernelMaskedEvaluator)
    assert candidate.kernel == tier
    rng = random.Random(seed + 1)
    target_ids = list(network.targets.values())

    def check():
        for node_id in range(len(network.nodes)):
            expected = oracle.node_state(node_id)
            actual = candidate.node_state(node_id)
            assert _states_equal(expected, actual), (
                tier,
                node_id,
                network.nodes[node_id],
                oracle.assignment,
            )
        assert candidate.count_unresolved(
            target_ids
        ) == oracle.count_unresolved(target_ids)
        assert_tiers_identical(oracle, candidate)

    _walk_pair(pool, oracle, candidate, rng, check)


@pytest.mark.parametrize("tier", TIERS)
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_kernel_matches_python_states_folded(tier, seed):
    pool, folded = _random_folded_instance(seed)
    oracle = make_masked_evaluator(folded, kernel="python")
    candidate = make_masked_evaluator(folded, kernel=tier)
    rng = random.Random(seed + 1)

    def check():
        for node_id in range(len(folded.nodes)):
            expected = oracle.node_state(node_id)
            actual = candidate.node_state(node_id)
            assert _states_equal(expected, actual), (
                tier,
                node_id,
                folded.nodes[node_id],
                oracle.assignment,
            )
        assert_tiers_identical(oracle, candidate)

    _walk_pair(pool, oracle, candidate, rng, check)


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize(
    "scheme,epsilon",
    [("exact", 0.0), ("lazy", 0.07), ("eager", 0.07), ("hybrid", 0.07)],
)
def test_schemes_agree_between_tiers(tier, scheme, epsilon):
    for seed in range(5):
        pool, events = _random_instance(seed)
        network = build_targets(events)
        results = {
            kernel: compile_network(
                network,
                pool,
                scheme=scheme,
                epsilon=epsilon,
                engine="masked",
                kernel=kernel,
            )
            for kernel in ("python", tier)
        }
        for name in network.targets:
            tier_bounds = results[tier].bounds[name]
            python_bounds = results["python"].bounds[name]
            assert tier_bounds[0] == pytest.approx(
                python_bounds[0], abs=MATCH_ABS
            )
            assert tier_bounds[1] == pytest.approx(
                python_bounds[1], abs=MATCH_ABS
            )
        # Identical leaf states must induce the identical decision tree.
        assert results[tier].tree_nodes == results["python"].tree_nodes


@pytest.mark.parametrize("tier", TIERS)
def test_distributed_agrees_between_tiers(tier):
    for seed in range(3):
        pool, events = _random_instance(seed)
        network = build_targets(events)
        results = {
            kernel: compile_distributed(
                network,
                pool,
                scheme="exact",
                workers=3,
                job_size=2,
                engine="masked",
                kernel=kernel,
            )
            for kernel in ("python", tier)
        }
        for name in network.targets:
            assert results[tier].bounds[name][0] == pytest.approx(
                results["python"].bounds[name][0], abs=MATCH_ABS
            )
            assert results[tier].bounds[name][1] == pytest.approx(
                results["python"].bounds[name][1], abs=MATCH_ABS
            )
        assert results[tier].jobs == results["python"].jobs


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_kernel_trail_restores_baseline(seed):
    """Vectorized pop restore returns every column to the built state."""
    pool, events = _random_instance(seed)
    network = build_targets(events)
    # The restore is the evaluator's, whoever ran the sweep: the kernel
    # source as plain Python runs on every host.
    candidate = KernelMaskedEvaluator(network, source_backend())
    baseline = (
        candidate._b.copy(),
        candidate._lo.copy(),
        candidate._hi.copy(),
        candidate._mu.copy(),
        candidate._md.copy(),
        candidate._resolved.copy(),
        candidate._assign.copy(),
    )
    oracle = make_masked_evaluator(network, kernel="python")
    rng = random.Random(seed + 2)
    _walk_pair(pool, oracle, candidate, rng, lambda: None)
    assert candidate.depth == 0
    assert candidate.assignment == {}
    current = (
        candidate._b,
        candidate._lo,
        candidate._hi,
        candidate._mu,
        candidate._md,
        candidate._resolved,
        candidate._assign,
    )
    for column, expected in zip(current, baseline):
        np.testing.assert_array_equal(np.asarray(column), expected)


def test_native_tier_covered_where_compiler_exists():
    """On hosts with a C toolchain the native tier must be in the matrix."""
    import shutil

    if shutil.which("cc") is None and shutil.which("gcc") is None:
        pytest.skip("no C compiler on this host")
    assert get_backend("native") is not None
    assert "native" in TIERS
