"""Unit tests for the flattened network IR."""

import numpy as np
import pytest

from repro.engine.ir import ATOM_OPS, UnsupportedNetworkError, flatten
from repro.engine.masked import masked_program
from repro.events.expressions import (
    TRUE,
    atom,
    conj,
    csum,
    disj,
    guard,
    literal,
    negate,
    var,
)
from repro.network.build import NetworkBuilder, build_targets
from repro.network.folded import FoldedBuilder, LoopCVal
from repro.network.nodes import EventNetwork, Kind, Node


def _example_network():
    threshold = guard(TRUE, 1.5)
    total = csum([guard(var(0), 1.0), guard(var(1), 2.0)])
    return build_targets(
        {
            "bool": disj([var(0), conj([var(1), negate(var(2))])]),
            "cmp": atom("<=", total, threshold),
        }
    )


class TestFlatten:
    def test_round_trips_node_structure(self):
        network = _example_network()
        flat = flatten(network)
        assert len(flat) == len(network.nodes)
        for node in network.nodes:
            assert flat.kinds[node.id] == int(node.kind)
            assert list(flat.children(node.id)) == list(node.children)

    def test_payload_columns(self):
        network = _example_network()
        flat = flatten(network)
        for node in network.nodes:
            if node.kind is Kind.VAR:
                assert flat.var_index[node.id] == node.payload
            elif node.kind is Kind.ATOM:
                assert flat.atom_op[node.id] == ATOM_OPS[node.payload]
            elif node.kind is Kind.GUARD:
                assert flat.guard_values[node.id] == pytest.approx(node.payload)

    def test_cached_per_network(self):
        network = _example_network()
        assert flatten(network) is flatten(network)

    def test_cache_invalidated_when_network_grows(self):
        from repro.network.build import NetworkBuilder

        network = _example_network()
        first = flatten(network)
        NetworkBuilder(network).build(var(5))
        second = flatten(network)
        assert second is not first
        assert len(second) == len(network.nodes)

    def test_vector_guard_payload(self):
        network = build_targets(
            {"t": atom("==", guard(var(0), np.array([1.0, 2.0])),
                       guard(TRUE, np.array([1.0, 2.0])))}
        )
        flat = flatten(network)
        vectors = [v for v in flat.guard_values.values()]
        assert any(isinstance(v, np.ndarray) and v.shape == (2,) for v in vectors)


def _kmedoids_folded(iterations=2):
    from repro.data.datasets import sensor_dataset
    from repro.mining.kmedoids import KMedoidsSpec, build_kmedoids_folded

    dataset = sensor_dataset(5, scheme="independent", seed=2, group_size=2)
    return build_kmedoids_folded(dataset, KMedoidsSpec(k=2, iterations=iterations))


class TestFoldedFlatIR:
    def test_folded_networks_supported_through_folded_ir(self):
        # One record for both kinds: a folded network fills the slot
        # columns, a plain one leaves them empty with one iteration.
        folded = _kmedoids_folded()
        ir = flatten(folded)
        assert ir.iterations == folded.iterations
        assert len(ir.loop_in_ids) == len(ir.init_ids) == len(folded.slots)
        assert len(ir.next_ids) == len(folded.slots)
        assert ir.loop_dependent.tolist() == [
            node.id in folded.loop_dependent() for node in folded.nodes
        ]
        plain = flatten(_example_network())
        assert plain.iterations == 1
        assert len(plain.loop_in_ids) == len(plain.init_ids) == 0
        assert len(plain.next_ids) == 0
        assert not (plain.loop_slot >= 0).any()
        assert not plain.loop_dependent.any()

    def test_loop_inputs_outside_a_folded_network_rejected(self):
        # Only a FoldedNetwork binds slots; a LOOP_IN node in a plain
        # network has no meaning.
        network = EventNetwork()
        network.nodes.append(Node(0, Kind.LOOP_IN, (), ("S", False)))
        network.nodes.append(Node(1, Kind.VAR, (), 0))
        network.nodes.append(Node(2, Kind.AND, (0, 1), None))
        with pytest.raises(UnsupportedNetworkError):
            flatten(network)

    def test_slot_columns_bind_loop_inputs(self):
        folded = _kmedoids_folded()
        ir = flatten(folded)
        for slot, name in enumerate(folded.slots):
            loop_in, init_node, next_node = folded.slots[name]
            assert ir.loop_in_ids[slot] == loop_in
            assert ir.init_ids[slot] == init_node
            assert ir.next_ids[slot] == next_node
            assert ir.loop_slot[loop_in] == slot
        assert int((ir.loop_slot >= 0).sum()) == len(folded.slots)

    def test_cached_per_network(self):
        folded = _kmedoids_folded()
        assert flatten(folded) is flatten(folded)

    def test_incomplete_slots_rejected(self):
        builder = FoldedBuilder(2)
        builder.add_target("t", atom(">=", LoopCVal("S"), literal(1.0)))
        with pytest.raises(ValueError):
            flatten(builder.folded)

    def test_loop_dependent_initialiser_flagged(self):
        # A cross-slot init chain (A starts from B's value) is legal —
        # the IR flags A's init as loop-dependent, so the unrolled program
        # orders it inside the first iteration's row.
        builder = FoldedBuilder(2)
        slot_a, slot_b = LoopCVal("A"), LoopCVal("B")
        builder.add_target("t", atom(">=", slot_a, literal(1.0)))
        builder.define_slot(
            "A", init=csum([slot_b, literal(1.0)]), next_value=literal(1.0)
        )
        builder.define_slot("B", init=literal(0.0), next_value=literal(0.0))
        ir = flatten(builder.folded)
        assert ir.loop_dependent[ir.init_ids].tolist() == [True, False]
        assert len(masked_program(builder.folded)) > len(ir)

    def test_cache_invalidated_when_slot_rebound(self):
        # Regression: define_slot changes iteration semantics without
        # growing the network; the size-keyed cache must not survive it.
        builder = FoldedBuilder(2)
        slot = LoopCVal("S")
        builder.add_target("t", atom(">=", slot, literal(1.0)))
        builder.define_slot("S", init=literal(0.0), next_value=literal(0.0))
        folded = builder.folded
        first = flatten(folded)
        loop_in, _, next_node = folded.slots["S"]
        other_init = NetworkBuilder(folded).build(guard(TRUE, 2.0))
        folded.define_slot("S", other_init, next_node)
        second = flatten(folded)
        assert second is not first
        assert second.init_ids[list(folded.slots).index("S")] == other_init
