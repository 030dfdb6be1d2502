"""Property tests: vector c-values lowered to scalar lanes.

:func:`repro.engine.masked.masked_program` expands every vector-valued
vertex into scalar lane vertices, so k-medoids and k-means — the
paper's workloads, whose c-values are feature vectors — run on every
kernel tier.  The contracts pinned down here:

* every live tier (Python list columns, the generated native C) walks
  the *same* lowered program and stays bit-identical to the other:
  columns, resolved mask, trail entries in
  order, ``evals``;
* the lowered program agrees with the untouched scalar oracle
  (:class:`PartialEvaluator`, which keeps array-valued ``NumState``
  objects) to 1e-9 on every node, for widths
  1, 2, 3 and 9 (past NumPy's pairwise-summation threshold);
* node-granular contracts survive the new vertex space: a vector node
  reads back as one array-valued state and counts as unresolved while
  any lane is, so the cone order still picks what the scan reference
  picks;
* all Shannon schemes on k-medoids, k-means and MCL agree with
  ``naive-scalar`` to 1e-9 (ε-schemes enclose it) on every tier.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro import ENFrame, KMedoidsSpec, MCLSpec
from repro.compile.compiler import ShannonCompiler, make_evaluator
from repro.compile.ordering import ConeInfluenceOrder, DynamicInfluenceOrder
from repro.compile.partial import B_TRUE, NumState, PartialEvaluator
from repro.correlations.schemes import make_lineage
from repro.data.datasets import from_lineage, sensor_dataset
from repro.engine.kernels import (
    KernelMaskedEvaluator,
    available_kernels,
    make_masked_evaluator,
)
from repro.engine.masked import MaskedEvaluator, masked_program
from repro.engine.registry import run_scheme
from repro.events.expressions import (
    LoopCVal,
    TRUE,
    atom,
    cdist,
    cinv,
    cond,
    cpow,
    cprod,
    csum,
    guard,
    var,
)
from repro.mining.kmeans import KMeansSpec
from repro.mining.markov import (
    attraction_targets,
    build_mcl_program,
    stochastic_graph,
)
from repro.network.build import NetworkBuilder, build_network, build_targets
from repro.network.nodes import EventNetwork
from repro.worlds.variables import VariablePool

from ..conftest import random_event
from .test_kernel_vs_python import assert_tiers_identical
from .test_masked_vs_scalar import _random_walk
from .test_ordering_and_handoff import _assert_same_picks

MATCH_ABS = 1e-9
WIDTHS = (1, 2, 3, 9)
#: Every tier live in this process, the Python list-column tier included.
TIERS = tuple(name for name in available_kernels() if name != "auto")
COMPILED = tuple(name for name in TIERS if name != "python")
SCHEMES = (("exact", 0.0), ("lazy", 0.07), ("eager", 0.07), ("hybrid", 0.07))


def _close(expected, actual) -> bool:
    """Same abstract state, numeric bounds to 1e-9 (shapes included)."""
    if isinstance(expected, NumState) != isinstance(actual, NumState):
        return False
    if not isinstance(expected, NumState):
        return int(expected) == int(actual)
    if expected.may_def != actual.may_def or expected.may_u != actual.may_u:
        return False
    if not expected.may_def:
        return True
    for ours, theirs in ((expected.lo, actual.lo), (expected.hi, actual.hi)):
        if np.shape(ours) != np.shape(theirs):
            return False
        if not np.allclose(ours, theirs, rtol=0.0, atol=MATCH_ABS):
            return False
    return True


def _vector_instance(seed: int, width: int):
    """Random events plus every lane-wise operator over width-d vectors."""
    rng = random.Random(seed)
    pool = VariablePool()
    for _ in range(rng.randint(3, 6)):
        pool.add(rng.uniform(0.05, 0.95))

    def point():
        return [rng.uniform(-1.0, 1.0) for _ in range(width)]

    def event():
        return random_event(pool, rng, depth=rng.randint(1, 2))

    members = [event() for _ in range(3)]
    objects = [guard(member, point()) for member in members]
    count = csum([cond(member, guard(TRUE, 1.0)) for member in members])
    # The k-means centroid: INV of a count times a lane-wise vector sum.
    centroid = cprod([cinv(count), csum(objects)])
    metric = rng.choice(["euclidean", "sqeuclidean", "manhattan"])
    events = {
        "near": atom(
            "<=",
            cdist(objects[0], centroid, metric),
            cdist(guard(TRUE, point()), centroid, metric),
        ),
        # A negative exponent on a scalar: lowered to INV(POW).
        "inverse": atom(
            rng.choice(["<", ">="]),
            cpow(csum([guard(TRUE, 1.5), guard(event(), -1.0)]), -2),
            guard(TRUE, rng.uniform(0.5, 5.0)),
        ),
        # Even power of a vector (lanes straddle zero), then a distance.
        "squares": atom(
            "<",
            cdist(cpow(csum(objects[:2]), 2), guard(TRUE, point()), "manhattan"),
            guard(event(), rng.uniform(0.0, 2.0 * width)),
        ),
        # Vector atoms: certain only when certain in every lane.
        "dominates": atom(rng.choice(["<=", ">"]), objects[1], objects[2]),
        "same": atom("==", csum(objects[:2]), objects[0]),
        "plain": event(),
    }
    return pool, events


def _folded_vector_instance(seed: int, width: int):
    """A folded network whose loop slot carries a width-d vector."""
    rng = random.Random(seed)
    pool = VariablePool()
    for _ in range(rng.randint(2, 5)):
        pool.add(rng.uniform(0.05, 0.95))

    def point():
        return [rng.uniform(-1.0, 1.0) for _ in range(width)]

    builder = NetworkBuilder(EventNetwork(iterations=rng.randint(1, 4)))
    centre = LoopCVal("centre")
    pull = guard(random_event(pool, rng, depth=1), point())
    near = atom("<=", cdist(centre, pull), guard(TRUE, rng.uniform(0.2, 1.5)))
    centre_next = csum([cond(near, centre), cond(near, pull), guard(TRUE, point())])
    builder.define_slot(
        "centre",
        init=guard(random_event(pool, rng, depth=1), point()),
        next_value=centre_next,
    )
    builder.add_target("near", near)
    builder.add_target(
        "far",
        atom(">", cdist(centre_next, guard(TRUE, point()), "sqeuclidean"),
             guard(TRUE, rng.uniform(0.5, 3.0))),
    )
    return pool, builder.network


def _walk_all_tiers(pool, network, seed):
    """One random walk: scalar oracle, Python tier, every compiled tier."""
    scalar = make_evaluator(network, engine="scalar")
    python = make_masked_evaluator(network, kernel="python")
    assert type(python) is MaskedEvaluator
    nodes = range(len(network.nodes))

    def check_oracle():
        memo = {}
        for node_id in nodes:
            expected = scalar.node_state(node_id, memo)
            actual = python.node_state(node_id)
            assert _close(expected, actual), (
                node_id, network.nodes[node_id], scalar.assignment,
            )

    _random_walk(pool, scalar, python, random.Random(seed + 1), check_oracle)
    for tier in COMPILED:
        oracle = make_masked_evaluator(network, kernel="python")
        candidate = make_masked_evaluator(network, kernel=tier)
        assert isinstance(candidate, KernelMaskedEvaluator)
        assert candidate.kernel == tier
        _random_walk(
            pool, oracle, candidate, random.Random(seed + 1),
            lambda: assert_tiers_identical(oracle, candidate),
        )


@pytest.mark.parametrize("width", WIDTHS)
def test_flat_vector_walks_agree_on_every_tier(width):
    for seed in range(12):
        pool, events = _vector_instance(seed, width)
        network = build_targets(events)
        program = masked_program(network)
        assert program.node_width.max() == width
        assert (program.pow_exponent >= 0).all()
        _walk_all_tiers(pool, network, seed)


@pytest.mark.parametrize("width", WIDTHS)
def test_folded_vector_slots_agree_on_every_tier(width):
    for seed in range(12):
        pool, folded = _folded_vector_instance(seed, width)
        program = masked_program(folded)
        slot_node = folded.slots["centre"][0]
        assert program.node_width[slot_node] == width
        _walk_all_tiers(pool, folded, seed)


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("tier", TIERS)
def test_vector_node_reads_back_as_one_array_state(tier, width):
    """A vector-valued node through ``node_state``: one array state."""
    left = [float(lane + 1) for lane in range(width)]
    right = [-float(lane) for lane in range(width)]
    total = csum([guard(var(0), left), guard(var(1), right)])
    network = build_targets({"t": atom("<=", cdist(total, guard(TRUE, left)),
                                       guard(TRUE, 1.0))})
    vector_node = next(
        node.id for node in network.nodes if node.kind.name == "SUM"
    )
    evaluator = make_masked_evaluator(network, kernel=tier)
    scalar = make_evaluator(network, engine="scalar")

    state = evaluator.node_state(vector_node)
    assert isinstance(state.lo, np.ndarray) and state.lo.shape == (width,)
    assert state.may_u and state.may_def
    # Unresolved while any lane is: both guards are still open.
    assert evaluator.count_unresolved([vector_node]) == 1

    for evaluator_ in (evaluator, scalar):
        evaluator_.push(0, True)
        evaluator_.push(1, False)
    state = evaluator.node_state(vector_node)
    assert _close(scalar.node_state(vector_node, {}), state)
    np.testing.assert_array_equal(state.lo, np.asarray(left))
    np.testing.assert_array_equal(state.hi, np.asarray(left))
    assert not state.may_u
    assert evaluator.count_unresolved([vector_node]) == 0
    evaluator.rewind_to(0)
    assert evaluator.count_unresolved([vector_node]) == 1


def _shared_coordinate_dataset(seed: int, count: int = 8):
    """Points that all share their second coordinate (zero).

    As soon as one member of a k-means cluster is certain, lane 1 of the
    member sum is the point interval ``[0, 0]`` and resolves, long
    before lane 0 does — the node must stay unresolved until its last
    lane is.
    """
    rng = random.Random(seed)
    points = np.asarray([[rng.uniform(0.0, 1.0), 0.0] for _ in range(count)])
    lineage = make_lineage("mutex", count, rng, group_size=2, mutex_size=2)
    return from_lineage(points, lineage)


def _half_resolved_nodes(evaluator):
    """Vector nodes with a resolved lane next to an unresolved one."""
    program, mask = evaluator._prog, evaluator.resolved_mask
    nodes = []
    for node_id in np.flatnonzero(program.node_width > 1).tolist():
        first = program.final_vertex[node_id]
        lanes = mask[first : first + program.node_width[node_id]]
        if lanes.any() and not lanes.all():
            nodes.append(node_id)
    return nodes


@pytest.mark.parametrize("tier", TIERS)
def test_ordering_picks_match_scan_when_lanes_resolve_apart(tier):
    for seed in range(4):
        dataset = _shared_coordinate_dataset(seed)
        platform = ENFrame(dataset).kmeans(KMeansSpec(k=2, iterations=2))
        network = platform.network
        evaluator = make_masked_evaluator(network, kernel=tier)
        scan = DynamicInfluenceOrder(network)
        cone = ConeInfluenceOrder(network)
        seen_apart = 0
        for index in range(len(dataset.pool) - 1):
            evaluator.push(index, True)
            apart = _half_resolved_nodes(evaluator)
            seen_apart += len(apart)
            # Half-resolved is unresolved, node for node ...
            assert evaluator.count_unresolved(apart) == len(apart)
            # ... so the cone order still picks what the scan picks.
            assert cone.next_variable(evaluator) == scan.next_variable(evaluator)
        assert seen_apart  # the degenerate shape really occurs
        evaluator.rewind_to(0)
        _assert_same_picks(
            dataset.pool, network, evaluator, random.Random(seed), steps=8
        )
        compiler = ShannonCompiler(
            network, dataset.pool, targets=platform.target_names,
            order="dynamic", kernel=tier,
        )
        cone_tree = compiler.run().tree_nodes
        compiler.order = DynamicInfluenceOrder(network)
        assert compiler.run().tree_nodes == cone_tree


def _cluster_platforms():
    mutex = dict(scheme="mutex", group_size=2, mutex_size=2)
    yield "kmedoids", ENFrame.from_sensor_data(8, seed=3, **mutex).kmedoids(
        KMedoidsSpec(k=2, iterations=2)
    )
    yield "kmedoids-folded", ENFrame.from_sensor_data(8, seed=4, **mutex).kmedoids(
        KMedoidsSpec(k=2, iterations=3), folded=True
    )
    yield "kmeans", ENFrame.from_sensor_data(8, seed=5, **mutex).kmeans(
        KMeansSpec(k=2, iterations=2)
    )
    yield "kmedoids-3d", ENFrame(
        sensor_dataset(6, seed=6, dimensions=3, **mutex)
    ).kmedoids(KMedoidsSpec(k=2, iterations=2, metric="manhattan"))


def _mcl_instance():
    nodes = 5
    weights = stochastic_graph(nodes, random.Random(7))
    lineage = make_lineage("independent", nodes, random.Random(8), group_size=1)
    spec = MCLSpec(inflation=2, iterations=2)
    program = build_mcl_program(weights, lineage.events, spec)
    names = attraction_targets(
        program, nodes, spec.iterations - 1, pairs=[(i, 0) for i in range(nodes)]
    )
    return build_network(program), lineage.pool, names


def _assert_schemes_match_truth(network, pool, names, label):
    truth = run_scheme("naive-scalar", network, pool, targets=names).bounds
    for tier in TIERS:
        trees = {}
        for scheme, epsilon in SCHEMES:
            result = run_scheme(
                scheme, network, pool, targets=names, epsilon=epsilon, kernel=tier
            )
            trees[scheme] = result.tree_nodes
            for name in names:
                lower, upper = result.bounds[name]
                exact = truth[name][0]
                if epsilon == 0.0:
                    assert lower == pytest.approx(exact, abs=MATCH_ABS), (label, tier)
                    assert upper == pytest.approx(exact, abs=MATCH_ABS), (label, tier)
                else:
                    assert lower - MATCH_ABS <= exact <= upper + MATCH_ABS, (
                        label, tier, scheme, name,
                    )
        # Identical leaf states induce identical trees on every tier.
        if tier == TIERS[0]:
            reference = trees
        assert trees == reference, (label, tier)


def test_schemes_on_clustering_networks_match_naive_scalar_on_every_tier():
    for label, platform in _cluster_platforms():
        _assert_schemes_match_truth(
            platform.network, platform.dataset.pool,
            list(platform.target_names), label,
        )
    network, pool, names = _mcl_instance()
    _assert_schemes_match_truth(network, pool, names, "mcl")


def test_kmeans_bulk_schemes_match_naive_scalar():
    """Regression: a ``(W,)`` scalar column times a ``(W, d)`` vector one.

    ``engine/bulk.py::_compute`` multiplied k-means' ``INV(count)`` by
    the member sum without aligning ranks, so ``naive`` and
    ``montecarlo`` raised ``operands could not be broadcast together``.
    """
    platform = ENFrame.from_sensor_data(
        8, scheme="mutex", group_size=2, mutex_size=2, seed=1
    ).kmeans(KMeansSpec(k=2, iterations=2))
    truth = platform.run("naive-scalar").raw.bounds
    naive = platform.run("naive").raw.bounds
    carlo = platform.run("montecarlo", samples=4000, seed=11, confidence=0.999999)
    for name, (exact, _) in truth.items():
        assert naive[name][0] == pytest.approx(exact, abs=MATCH_ABS)
        assert naive[name][1] == pytest.approx(exact, abs=MATCH_ABS)
        lower, upper = carlo.raw.bounds[name]
        assert lower - MATCH_ABS <= exact <= upper + MATCH_ABS, name


def test_mismatched_widths_are_rejected_at_lowering():
    network = build_targets(
        {"t": atom("<=", cdist(guard(var(0), [1.0, 2.0]), guard(var(1), [1.0, 2.0, 3.0])),
                   guard(TRUE, 1.0))}
    )
    with pytest.raises(ValueError, match="different widths"):
        masked_program(network)


def test_inverting_a_vector_is_rejected_like_the_oracle():
    network = build_targets(
        {"t": atom("<=", cdist(cinv(guard(var(0), [1.0, 2.0])), guard(TRUE, [0.0, 0.0])),
                   guard(TRUE, 1.0))}
    )
    with pytest.raises(TypeError, match="scalar c-values"):
        masked_program(network)


def test_scalar_oracles_round_wide_distances_like_the_kernels():
    """Regression: the oracles summed a width-9 distance pairwise.

    ``np.sum`` reduces pairwise from eight terms on; both kernels add
    lanes left to right.  An atom comparing a distance with its own
    left-to-right sum is then true for the engines and false for
    ``naive-scalar`` and :class:`PartialEvaluator`.
    """
    rng = np.random.default_rng(0)
    a, b = rng.random(9), rng.random(9)
    total = 0.0
    for term in ((a - b) ** 2).tolist():
        total += term
    assert total == 1.9406478306770025
    pool = VariablePool()
    pool.add(0.3)
    left = guard(var(0), a.tolist())
    network = build_targets(
        {"t": atom("<=", cdist(left, guard(TRUE, b.tolist()), "sqeuclidean"),
                   guard(TRUE, total))}
    )
    for scheme in ("naive-scalar", "naive", "exact"):
        bounds = run_scheme(scheme, network, pool, targets=["t"]).bounds
        assert bounds["t"] == (1.0, 1.0), scheme
    scalar = PartialEvaluator(network)
    scalar.push()
    scalar.push(0, True)
    target = network.targets["t"]
    assert scalar.target_states([target]) == {target: B_TRUE}
