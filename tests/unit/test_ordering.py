"""Unit tests for the variable-ordering strategies (Section 4.1)."""

import pytest

from repro.compile.compiler import (
    ShannonCompiler,
    compile_network,
    make_evaluator,
)
from repro.compile.ordering import (
    ConeInfluenceOrder,
    DynamicInfluenceOrder,
    make_order,
)
from repro.compile.partial import PartialEvaluator
from repro.engine.masked import MaskedEvaluator
from repro.events.expressions import (
    LoopCVal,
    atom,
    conj,
    csum,
    disj,
    guard,
    literal,
    var,
)
from repro.network.build import NetworkBuilder, build_targets
from repro.network.nodes import EventNetwork

from ..conftest import make_pool


def influence_network():
    # var 0 influences three targets, var 1 one, var 2 two.
    return build_targets(
        {
            "a": conj([var(0), var(1)]),
            "b": disj([var(0), var(2)]),
            "c": atom(
                "<=", csum([guard(var(0), 1.0), guard(var(2), 2.0)]), literal(1.5)
            ),
        }
    )


def folded_counter(iterations=3):
    builder = NetworkBuilder(EventNetwork(iterations=iterations))
    slot = LoopCVal("S")
    next_value = csum([slot, guard(var(0), 1.0), guard(var(1), 0.5)])
    builder.define_slot("S", init=literal(0.0), next_value=next_value)
    builder.add_target("big", atom(">=", next_value, literal(float(iterations))))
    return builder.network


class TestConeInfluenceOrder:
    def test_picks_widest_unresolved_cone(self):
        network = influence_network()
        evaluator = MaskedEvaluator(network)
        evaluator.push()
        order = ConeInfluenceOrder(network)
        assert order.next_variable(evaluator) == 0

    def test_matches_dynamic_scores(self):
        network = influence_network()
        evaluator = MaskedEvaluator(network)
        evaluator.push()
        dynamic = DynamicInfluenceOrder(network)
        for index in sorted(network.variables()):
            assert evaluator.count_unresolved_in_cone(index) == (
                evaluator.count_unresolved(dynamic.influence_cone(index))
            )

    def test_falls_back_to_reference_on_scalar_evaluators(self):
        network = influence_network()
        scalar = PartialEvaluator(network)
        scalar.push()
        scalar.target_states(list(network.targets.values()))
        dynamic = DynamicInfluenceOrder(network)
        cone = ConeInfluenceOrder(network)
        assert cone.next_variable(scalar) == dynamic.next_variable(scalar)

    def test_exhausts_to_none(self):
        network = build_targets({"t": var(0)})
        evaluator = MaskedEvaluator(network)
        evaluator.push()
        evaluator.push(0, True)
        assert ConeInfluenceOrder(network).next_variable(evaluator) is None

    def test_folded_cone_follows_loop_edges(self):
        network = folded_counter()
        dynamic = DynamicInfluenceOrder(network)
        loop_in, _, next_node = network.slots["S"]
        cone = dynamic.influence_cone(0)
        assert next_node in cone
        assert loop_in in cone
        evaluator = MaskedEvaluator(network)
        evaluator.push()
        assert evaluator.count_unresolved_in_cone(0) == (
            evaluator.count_unresolved(cone)
        )


class TestMakeOrder:
    def test_dynamic_resolves_to_cone_order(self):
        network = influence_network()
        assert isinstance(make_order(network, "dynamic"), ConeInfluenceOrder)
        # One dynamic order: the alias and the reference scan have no name.
        for retired in ("cone", "dynamic-scan"):
            with pytest.raises(ValueError, match="unknown variable order"):
                make_order(network, retired)

    def test_all_named_orders_agree_on_probability(self):
        pool = make_pool([0.4, 0.5, 0.6])
        network = influence_network()
        expected = compile_network(network, pool).bounds
        for order in ("dynamic", "index"):
            result = compile_network(network, pool, order=order)
            for name, bounds in expected.items():
                assert result.bounds[name] == pytest.approx(bounds)

    def test_cone_and_scan_induce_identical_trees(self):
        pool = make_pool([0.4, 0.5, 0.6])
        network = influence_network()
        cone = compile_network(network, pool, order="dynamic")
        reference = ShannonCompiler(network, pool)
        reference.order = DynamicInfluenceOrder(network)
        scan = reference.run()
        assert cone.tree_nodes == scan.tree_nodes
        assert cone.bounds == scan.bounds


class TestTrailRewind:
    @pytest.mark.parametrize("engine", ["masked", "scalar"])
    def test_rewind_to_restores_depth_and_assignment(self, engine):
        network = influence_network()
        evaluator = make_evaluator(network, engine=engine)
        evaluator.push()
        evaluator.push(0, True)
        evaluator.push(1, False)
        evaluator.rewind_to(1)
        assert evaluator.depth == 1
        assert evaluator.assignment == {}
        evaluator.rewind_to(0)
        assert evaluator.depth == 0

    def test_rewind_validates_depth(self):
        network = influence_network()
        evaluator = make_evaluator(network)
        evaluator.push(0, True)
        with pytest.raises(ValueError):
            evaluator.rewind_to(2)
        with pytest.raises(ValueError):
            evaluator.rewind_to(-1)

    @pytest.mark.parametrize(
        "factory", [MaskedEvaluator, PartialEvaluator]
    )
    def test_pop_cross_checks_the_frame_variable(self, factory):
        network = influence_network()
        evaluator = factory(network)
        evaluator.push(0, True)
        with pytest.raises(ValueError):
            evaluator.pop(1)
        evaluator.pop(0)
        assert evaluator.depth == 0

    def test_folded_evaluator_rewinds(self):
        network = folded_counter()
        evaluator = PartialEvaluator(network)
        evaluator.push()
        evaluator.push(0, True)
        evaluator.target_states(list(network.targets.values()))
        evaluator.rewind_to(0)
        assert evaluator.depth == 0
        assert evaluator.assignment == {}
        assert evaluator.resolved == {}
