"""Unit tests for folded event networks (§4.2)."""

import pytest

from repro.compile.compiler import compile_network, make_evaluator
from repro.data.datasets import sensor_dataset
from repro.events.expressions import (
    LoopCVal,
    LoopEvent,
    atom,
    csum,
    guard,
    literal,
    var,
)
from repro.mining.kmedoids import (
    KMedoidsSpec,
    build_kmedoids_folded,
    build_kmedoids_program,
)
from repro.mining.targets import medoid_targets
from repro.compile.partial import PartialEvaluator
from repro.network.build import NetworkBuilder, build_network
from repro.network.nodes import EventNetwork

from ..conftest import make_pool


def make_counter_network(iterations):
    """A folded network: S_{t} = S_{t-1} + (x_t present? 1 : skip).

    Slot ``S`` accumulates guards across iterations; the target asks
    whether the final sum reaches a threshold.
    """
    builder = NetworkBuilder(EventNetwork(iterations=iterations))
    slot = LoopCVal("S")
    next_value = csum([slot, guard(var(0), 1.0)])
    builder.define_slot("S", init=literal(0.0), next_value=next_value)
    builder.add_target("big", atom(">=", next_value, literal(float(iterations))))
    return builder.network


class TestFoldedConstruction:
    def test_slots_registered(self):
        network = make_counter_network(3)
        assert "S" in network.slots
        network.check_complete()

    def test_unbound_slot_rejected(self):
        builder = NetworkBuilder(EventNetwork(iterations=2))
        builder.add_target("t", atom(">=", LoopCVal("S"), literal(1.0)))
        with pytest.raises(ValueError):
            builder.network.check_complete()

    def test_define_unknown_slot_rejected(self):
        builder = NetworkBuilder(EventNetwork(iterations=2))
        with pytest.raises(KeyError):
            builder.network.define_slot("ghost", 0, 0)

    def test_iterations_validated(self):
        with pytest.raises(ValueError):
            EventNetwork(iterations=0)

    def test_loop_dependent_closure(self):
        network = make_counter_network(2)
        dependent = network.loop_dependent()
        loop_in = network.slots["S"][0]
        assert loop_in in dependent
        # the guard over var(0) is iteration-invariant
        from repro.network.nodes import Kind

        guards = [n.id for n in network.nodes if n.kind is Kind.GUARD]
        assert any(g not in dependent for g in guards)

    def test_loop_expression_equality(self):
        assert LoopCVal("S") == LoopCVal("S")
        assert LoopCVal("S") != LoopCVal("T")
        assert LoopEvent("E") != LoopCVal("E")
        assert hash(LoopCVal("S")) == hash(LoopCVal("S"))

    def test_loop_dependent_single_pass_matches_fixpoint(self):
        # Regression: loop_dependent() used repeated full passes
        # (quadratic); the single topological pass must compute the
        # identical closure, including through deep dependency chains.
        dataset = sensor_dataset(6, scheme="independent", seed=4, group_size=2)
        spec = KMedoidsSpec(k=2, iterations=3)
        network = build_kmedoids_folded(dataset, spec)
        dependent = network.loop_dependent()

        reference = {loop_in for loop_in, _, _ in network.slots.values()}
        changed = True
        while changed:
            changed = False
            for node in network.nodes:
                if node.id not in reference and any(
                    child in reference for child in node.children
                ):
                    reference.add(node.id)
                    changed = True
        assert dependent == reference
        # The closure is non-trivial: it must propagate past the direct
        # parents of the loop inputs.
        loop_ins = {loop_in for loop_in, _, _ in network.slots.values()}
        assert len(dependent) > 2 * len(loop_ins)

    def test_loop_dependent_cached_and_invalidated_on_rebinding(self):
        network = make_counter_network(2)
        first = network.loop_dependent()
        assert network.loop_dependent() is first
        loop_in, init_node, next_node = network.slots["S"]
        network.define_slot("S", init_node, next_node)
        assert network.loop_dependent() is not first
        assert network.loop_dependent() == first


class TestFoldedEvaluation:
    def test_make_evaluator_dispatches(self):
        from repro.engine.masked import MaskedEvaluator

        network = make_counter_network(2)
        assert isinstance(make_evaluator(network), MaskedEvaluator)
        assert isinstance(
            make_evaluator(network, engine="scalar"), PartialEvaluator
        )
        with pytest.raises(ValueError):
            make_evaluator(network, engine="turbo")

    def test_counter_semantics(self):
        # With x0 true, S after t iterations is t; the target needs
        # S = iterations, i.e. x0 must be true.
        pool = make_pool([0.3])
        network = make_counter_network(3)
        result = compile_network(network, pool)
        assert result.probability("big") == pytest.approx(0.3)

    def test_folded_matches_unfolded_kmedoids(self):
        dataset = sensor_dataset(
            6, scheme="independent", seed=4, group_size=2
        )
        spec = KMedoidsSpec(k=2, iterations=3)
        unfolded = build_network(
            build_kmedoids_program(dataset, spec)
        )
        program = build_kmedoids_program(dataset, spec)
        names = medoid_targets(program, 2, 6, spec.iterations - 1)
        unfolded = build_network(program)
        folded = build_kmedoids_folded(dataset, spec)
        ru = compile_network(unfolded, dataset.pool)
        rf = compile_network(folded, dataset.pool)
        for name in names:
            assert rf.bounds[name][0] == pytest.approx(ru.bounds[name][0])

    def test_folded_network_smaller_than_unfolded(self):
        dataset = sensor_dataset(6, scheme="independent", seed=4, group_size=2)
        for iterations in (2, 4):
            spec = KMedoidsSpec(k=2, iterations=iterations)
            program = build_kmedoids_program(dataset, spec)
            medoid_targets(program, 2, 6, iterations - 1)
            unfolded = build_network(program)
            folded = build_kmedoids_folded(dataset, spec)
            assert len(folded) < len(unfolded)

    def test_folded_size_independent_of_iterations(self):
        dataset = sensor_dataset(6, scheme="independent", seed=4, group_size=2)
        sizes = {
            len(build_kmedoids_folded(dataset, KMedoidsSpec(k=2, iterations=it)))
            for it in (1, 3, 5)
        }
        assert len(sizes) == 1

    def test_nodes_added_after_the_evaluator_are_rejected(self):
        # Keys are t·N + v with N fixed when the evaluator is made, so a
        # later node's key would read as another node at a later iteration.
        builder = NetworkBuilder(EventNetwork(iterations=3))
        slot = LoopCVal("S")
        builder.define_slot("S", init=literal(0.0), next_value=slot)
        builder.add_target("t", atom(">=", slot, literal(1.0)))
        evaluator = PartialEvaluator(builder.network)
        late = builder.add_target("late", atom(">=", literal(5.0), literal(1.0)))
        with pytest.raises(ValueError, match="added after"):
            evaluator.node_state(late, {})

    def test_trail_undo(self):
        pool = make_pool([0.5])
        network = make_counter_network(2)
        evaluator = PartialEvaluator(network)
        evaluator.push()
        evaluator.push(0, True)
        evaluator.target_states(list(network.targets.values()))
        assert evaluator.resolved
        evaluator.pop(0)
        evaluator.pop()
        assert not evaluator.resolved


class TestConvergenceDetection:
    def test_constant_slot_converges_immediately(self):
        builder = NetworkBuilder(EventNetwork(iterations=10))
        slot = LoopCVal("S")
        # Referencing the slot (in the target) registers it; S never
        # changes: its next value is the constant it started with.
        builder.add_target("t", atom(">=", slot, literal(0.5)))
        builder.define_slot("S", init=literal(1.0), next_value=literal(1.0))
        evaluator = PartialEvaluator(builder.network)
        evaluator.push()
        iterations, converged = evaluator.slot_trace()
        assert converged
        assert iterations <= 2

    def test_kmedoids_converges_before_iteration_budget(self):
        dataset = sensor_dataset(6, scheme="independent", seed=4, group_size=3)
        spec = KMedoidsSpec(k=2, iterations=8)
        folded = build_kmedoids_folded(dataset, spec)
        evaluator = PartialEvaluator(folded)
        evaluator.push()
        # Under a full assignment, clustering reaches a fixpoint early.
        for index in range(dataset.variable_count):
            evaluator.assignment[index] = True
        iterations, converged = evaluator.slot_trace()
        assert converged
        assert iterations < 8
