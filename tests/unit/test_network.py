"""Unit tests for event-network construction and hash-consing (§4.1)."""

import gc
import random

import numpy as np
import pytest

from repro import ENFrame, KMedoidsSpec, MCLSpec
from repro.correlations.schemes import make_lineage
from repro.data.datasets import sensor_dataset
from repro.events.expressions import (
    CRef,
    Ref,
    atom,
    cdist,
    conj,
    csum,
    disj,
    guard,
    literal,
    negate,
    ref,
    var,
)
from repro.events.program import EventProgram
from repro.lang.translate import dataset_externals, translate_source
from repro.mining.kmeans import KMeansSpec
from repro.mining.kmedoids import build_kmedoids_folded
from repro.mining.markov import build_mcl_program, stochastic_graph
from repro.mining.programs import KMEDOIDS_SOURCE
from repro.network import folded
from repro.network.build import NetworkBuilder, build_network, build_targets
from repro.network.dot import to_dot
from repro.network.nodes import Kind


class TestHashConsing:
    def test_identical_expressions_share_nodes(self):
        builder = NetworkBuilder()
        first = builder.build(conj([var(0), var(1)]))
        second = builder.build(conj([var(0), var(1)]))
        assert first == second

    def test_shared_subexpressions_once(self):
        # Two atoms over the same sum share the sum node (Section 4.1).
        shared = csum([guard(var(0), 1.0), guard(var(1), 2.0)])
        network = build_targets(
            {
                "a": atom("<=", shared, literal(3.0)),
                "b": atom(">=", shared, literal(1.0)),
            }
        )
        sums = [node for node in network.nodes if node.kind is Kind.SUM]
        assert len(sums) == 1

    def test_distinct_payloads_not_shared(self):
        builder = NetworkBuilder()
        a = builder.build(guard(var(0), 1.0))
        b = builder.build(guard(var(0), 2.0))
        assert a != b

    def test_vector_payloads_interned_by_content(self):
        builder = NetworkBuilder()
        a = builder.build(guard(var(0), np.array([1.0, 2.0])))
        b = builder.build(guard(var(0), np.array([1.0, 2.0])))
        assert a == b

    def test_atom_operator_distinguishes(self):
        builder = NetworkBuilder()
        a = builder.build(atom("<=", literal(1.0), literal(2.0)))
        b = builder.build(atom("<", literal(1.0), literal(2.0)))
        assert a != b


    def test_equal_but_distinct_objects_map_to_one_node(self):
        def vector_sum():
            return csum([guard(var(0), np.array([1.0, 2.0])), guard(var(1), 3.0)])

        first, second = vector_sum(), vector_sum()
        assert first is not second and first == second
        builder = NetworkBuilder()
        assert builder.build(first) == builder.build(second)
        program = EventProgram()
        program.declare("A", atom("<=", vector_sum(), literal(4.0)))
        program.declare("B", atom("<=", vector_sum(), literal(4.0)))
        network = build_network(program)
        assert network.names["A"] == network.names["B"]
        assert [node.kind for node in network.nodes].count(Kind.SUM) == 1

    def test_collected_expression_does_not_alias_a_fresh_one(self):
        # The memo is keyed on id(): a dropped key must stay alive, or a
        # fresh expression allocated at its address would read its node.
        builder = NetworkBuilder()
        first = builder.build(conj([var(0), var(1)]))
        gc.collect()
        for index in range(2, 102):
            fresh = conj([var(index), var(index + 1)])
            node = builder.network.nodes[builder.build(fresh)]
            assert node.id != first
            assert [builder.network.nodes[c].payload for c in node.children] == [
                index, index + 1,
            ]
            del fresh
            gc.collect()


class StructuralBuilder(NetworkBuilder):
    """Reference: every expression type's node, memoised on structure."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.structural = {}

    def build(self, expression) -> int:
        if expression in self.structural:
            return self.structural[expression]
        network = self.network
        if isinstance(expression, (Ref, CRef)):
            node_id = network.names[expression.name]
        elif isinstance(expression, (folded.LoopEvent, folded.LoopCVal)):
            payload = (expression.name, isinstance(expression, folded.LoopEvent))
            node_id = network._intern(Kind.LOOP_IN, (), payload, payload)
            network.slots.setdefault(expression.name, (node_id, None, None))
        else:
            kind, field = STRUCTURE[type(expression).__name__]
            children = tuple(self.build(c) for c in expression.children())
            payload = getattr(expression, field) if field else None
            key = payload
            if isinstance(payload, np.ndarray):
                key = (payload.shape, payload.tobytes())
            node_id = network._intern(kind, children, payload, key)
        self.structural[expression] = node_id
        return node_id


STRUCTURE = {
    "_TrueEvent": (Kind.TRUE, None), "_FalseEvent": (Kind.FALSE, None),
    "Var": (Kind.VAR, "index"), "Not": (Kind.NOT, None),
    "And": (Kind.AND, None), "Or": (Kind.OR, None), "Atom": (Kind.ATOM, "op"),
    "Guard": (Kind.GUARD, "value"), "Cond": (Kind.COND, None),
    "CSum": (Kind.SUM, None), "CProd": (Kind.PROD, None),
    "CInv": (Kind.INV, None), "CPow": (Kind.POW, "exponent"),
    "CDist": (Kind.DIST, "metric"),
}


class StructuralFoldedBuilder(StructuralBuilder, folded.FoldedBuilder):
    pass


def node_arrays(network):
    def payload(value):
        if isinstance(value, np.ndarray):
            return ("vec", value.dtype.str, value.shape, value.tobytes())
        return (type(value).__name__, value)

    return (
        [(n.id, n.kind, n.children, payload(n.payload)) for n in network.nodes],
        network.names, network.targets, getattr(network, "slots", None),
    )


def _mutex_platform():
    return ENFrame.from_sensor_data(
        12, seed=3, certain_fraction=0.0, scheme="mutex", group_size=3,
        mutex_size=2,
    )


class TestFrontEndsAgainstStructuralMemo:
    """Identity work-sharing plus the interner builds the same node
    arrays, in the same order, as a memo keyed on structural equality."""

    def assert_matches_reference(self, program, network):
        reference = StructuralBuilder().build_program(program)
        assert node_arrays(network) == node_arrays(reference)

    def test_kmedoids(self):
        platform = _mutex_platform().kmedoids(KMedoidsSpec(k=2, iterations=2))
        self.assert_matches_reference(platform.program, platform.network)

    def test_kmeans(self):
        platform = _mutex_platform().kmeans(KMeansSpec(k=2, iterations=2))
        self.assert_matches_reference(platform.program, platform.network)

    def test_mcl(self):
        lineage = make_lineage("independent", 6, random.Random(1), group_size=1)
        program = build_mcl_program(
            stochastic_graph(6, random.Random(7)), lineage.events,
            MCLSpec(inflation=2, iterations=2),
        )
        self.assert_matches_reference(program, build_network(program))

    def test_translated_source(self):
        platform = ENFrame.from_sensor_data(
            8, seed=11, scheme="positive", variables=6, literals=3
        )
        externals = dataset_externals(platform.dataset, (2, 2), range(2))
        program, _ = translate_source(KMEDOIDS_SOURCE, externals)
        self.assert_matches_reference(program, build_network(program))

    def test_folded_kmedoids(self, monkeypatch):
        dataset = sensor_dataset(8, scheme="mutex", seed=2)
        spec = KMedoidsSpec(k=2, iterations=3)
        network = build_kmedoids_folded(dataset, spec)
        monkeypatch.setattr(folded, "FoldedBuilder", StructuralFoldedBuilder)
        reference = build_kmedoids_folded(dataset, spec)
        assert node_arrays(network) == node_arrays(reference)


class TestProgramGrounding:
    def test_references_resolve_to_shared_nodes(self):
        program = EventProgram()
        program.declare("A", conj([var(0), var(1)]))
        program.declare("B", disj([ref("A"), var(2)]))
        program.declare("C", negate(ref("A")))
        program.add_target("B")
        program.add_target("C")
        network = build_network(program)
        ands = [node for node in network.nodes if node.kind is Kind.AND]
        assert len(ands) == 1

    def test_targets_registered(self):
        program = EventProgram()
        program.declare("T", var(0))
        program.add_target("T")
        network = build_network(program)
        assert "T" in network.targets
        assert network.nodes[network.targets["T"]].kind is Kind.VAR

    def test_cval_target_rejected(self):
        network = build_targets({})
        builder = NetworkBuilder(network)
        node = builder.build(literal(1.0))
        with pytest.raises(TypeError):
            network.add_target("bad", node)

    def test_forward_reference_rejected(self):
        builder = NetworkBuilder()
        with pytest.raises(KeyError):
            builder.build(ref("missing"))


class TestIntrospection:
    def make(self):
        return build_targets(
            {
                "t": conj(
                    [
                        var(0),
                        atom(
                            "<=",
                            cdist(
                                guard(var(1), np.array([0.0])),
                                guard(var(2), np.array([1.0])),
                            ),
                            literal(2.0),
                        ),
                    ]
                )
            }
        )

    def test_variables(self):
        network = self.make()
        assert network.variables() == {0, 1, 2}

    def test_variable_frequencies(self):
        network = self.make()
        frequencies = network.variable_frequencies()
        assert set(frequencies) == {0, 1, 2}
        assert all(count >= 1 for count in frequencies.values())

    def test_parents(self):
        network = self.make()
        parents = network.parents()
        # every non-root node has at least one parent
        roots = set(network.targets.values())
        for node in network.nodes:
            if node.id not in roots:
                assert parents[node.id]

    def test_reachable_from_target(self):
        network = self.make()
        reachable = network.reachable_from(list(network.targets.values()))
        assert reachable == set(range(len(network.nodes)))

    def test_depth(self):
        network = self.make()
        assert network.depth() >= 3

    def test_stats(self):
        network = self.make()
        stats = network.stats()
        assert stats["total"] == len(network)
        assert stats["targets"] == 1
        assert stats["variables"] == 3
        assert stats["AND"] == 1

    def test_dot_export(self):
        network = self.make()
        rendered = to_dot(network)
        assert rendered.startswith("digraph")
        assert "lightblue" in rendered  # the target is highlighted
        assert rendered.count("->") == sum(
            len(node.children) for node in network.nodes
        )

    def test_dot_fragment(self):
        network = self.make()
        var_node = next(n for n in network.nodes if n.kind is Kind.VAR)
        rendered = to_dot(network, roots=[var_node.id])
        assert "->" not in rendered  # a leaf fragment has no edges
