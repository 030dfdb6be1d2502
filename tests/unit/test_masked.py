"""Unit tests for the masked flat-IR evaluation engine."""

import sys

import pytest

from repro.compile.compiler import ShannonCompiler, compile_network, make_evaluator
from repro.compile.ordering import DynamicInfluenceOrder
from repro.compile.partial import B_FALSE, B_TRUE, B_UNKNOWN, PartialEvaluator
from repro.engine.ir import flatten
from repro.engine.masked import MaskedEvaluator, masked_program
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
from repro.network.nodes import EventNetwork, InvalidNetworkError, Kind, Node

from ..conftest import make_pool


def small_network():
    return build_targets(
        {
            "and": conj([var(0), var(1)]),
            "or": disj([var(1), var(2)]),
            "atom": atom(
                "<=", csum([guard(var(0), 1.0), guard(var(2), 2.0)]), literal(1.5)
            ),
        }
    )


def counter_network(iterations):
    builder = NetworkBuilder(EventNetwork(iterations=iterations))
    slot = LoopCVal("S")
    next_value = csum([slot, guard(var(0), 1.0)])
    builder.define_slot("S", init=literal(0.0), next_value=next_value)
    builder.add_target("big", atom(">=", next_value, literal(float(iterations))))
    return builder.network


class TestMaskedProgram:
    def test_flat_program_is_identity(self):
        network = small_network()
        program = masked_program(network)
        assert len(program) == len(network.nodes)
        assert program.final_vertex.tolist() == list(range(len(network.nodes)))

    def test_program_cached_per_network(self):
        network = small_network()
        assert masked_program(network) is masked_program(network)

    def test_folded_program_unrolls_only_the_loop_layer(self):
        network = counter_network(4)
        program = masked_program(network)
        dependent = network.loop_dependent()
        expected = (len(network.nodes) - len(dependent)) + 4 * len(dependent)
        assert len(program) == expected

    def test_flat_var_cone_is_downstream_closure(self):
        network = small_network()
        flat = flatten(network)
        cone = set(flat.var_cone(0).tolist())
        # Everything reachable upward from VAR(0): the conjunction, the
        # guard, the sum, the atom — but not the pure var(1)/var(2) parts.
        var0 = next(
            n.id for n in network.nodes if n.kind is Kind.VAR and n.payload == 0
        )
        assert var0 in cone
        assert network.targets["and"] in cone
        assert network.targets["atom"] in cone
        assert network.targets["or"] not in cone

    def test_folded_var_cone_follows_loop_edges(self):
        network = counter_network(3)
        ir = flatten(network)
        cone = set(ir.var_cone(0).tolist())
        loop_in, _, next_node = network.slots["S"]
        # var(0) feeds the next node, and hence the loop input.
        assert next_node in cone
        assert loop_in in cone
        assert network.targets["big"] in cone


class TestMaskedEvaluator:
    def test_three_valued_states(self):
        network = small_network()
        evaluator = MaskedEvaluator(network)
        evaluator.push()
        states = evaluator.target_states(list(network.targets.values()))
        assert all(state == B_UNKNOWN for state in states.values())
        evaluator.push(1, True)
        states = evaluator.target_states(list(network.targets.values()))
        assert states[network.targets["or"]] == B_TRUE
        assert states[network.targets["and"]] == B_UNKNOWN
        evaluator.push(0, False)
        states = evaluator.target_states(list(network.targets.values()))
        assert states[network.targets["and"]] == B_FALSE
        assert states[network.targets["atom"]] == B_UNKNOWN

    def test_pop_restores_columns(self):
        network = small_network()
        evaluator = MaskedEvaluator(network)
        before = (
            evaluator.bstate.tolist(),
            evaluator.resolved_mask.tolist(),
            evaluator.lo.tolist(),
        )
        evaluator.push()
        evaluator.push(0, True)
        evaluator.push(1, False)
        evaluator.pop(1)
        evaluator.pop(0)
        evaluator.pop()
        after = (
            evaluator.bstate.tolist(),
            evaluator.resolved_mask.tolist(),
            evaluator.lo.tolist(),
        )
        assert evaluator.depth == 0
        assert evaluator.assignment == {}
        # lo columns contain NaN for undefined entries; compare via repr
        # of the defined part and direct equality elsewhere.
        assert before[0] == after[0]
        assert before[1] == after[1]
        assert [x for x in before[2] if x == x] == [x for x in after[2] if x == x]

    def test_push_sweeps_only_the_cone(self):
        # Two independent target groups: assigning a variable of one
        # group must not recompute anything in the other.
        network = build_targets(
            {
                "left": conj([var(0), var(1)]),
                "right": disj([var(2), var(3)]),
            }
        )
        evaluator = MaskedEvaluator(network)
        evaluator.push()
        before = evaluator.evals
        evaluator.push(2, True)
        cone = masked_program(network).py_var_cone(2)
        assert evaluator.evals - before <= len(cone)
        state = evaluator.target_states([network.targets["right"]])
        assert state[network.targets["right"]] == B_TRUE
        left_state = evaluator.target_states([network.targets["left"]])
        assert left_state[network.targets["left"]] == B_UNKNOWN

    def test_resolved_vertices_skip_recomputation(self):
        network = build_targets({"t": disj([var(0), var(1)])})
        evaluator = MaskedEvaluator(network)
        evaluator.push()
        evaluator.push(0, True)  # resolves the disjunction to true
        resolved_evals = evaluator.evals
        evaluator.push(1, False)  # cone is fully resolved already
        assert evaluator.evals - resolved_evals <= 1  # just the VAR vertex
        evaluator.pop(1)
        evaluator.pop(0)
        evaluator.pop()

    def test_count_unresolved_matches_scalar(self):
        network = small_network()
        masked = MaskedEvaluator(network)
        scalar = PartialEvaluator(network)
        order = DynamicInfluenceOrder(network)
        for evaluator in (masked, scalar):
            evaluator.push()
            evaluator.push(0, True)
            evaluator.target_states(list(network.targets.values()))
        assert order.next_variable(masked) == order.next_variable(scalar)

    def test_evals_counter_advances(self):
        network = small_network()
        evaluator = MaskedEvaluator(network)
        evaluator.push()
        before = evaluator.evals
        evaluator.push(0, True)
        assert evaluator.evals > before


class TestEngineSeam:
    def test_make_evaluator_default_is_masked(self):
        network = small_network()
        assert isinstance(make_evaluator(network), MaskedEvaluator)
        assert isinstance(
            make_evaluator(network, engine="scalar"), PartialEvaluator
        )

    def test_non_topological_network_is_rejected(self):
        network = EventNetwork()
        # Hand-built, deliberately out of topological order: the masked
        # engine rejects it instead of handing it to the scalar oracle.
        network.nodes.append(Node(0, Kind.AND, (1,), None))
        network.nodes.append(Node(1, Kind.VAR, (), 0))
        network.targets["t"] = 0
        with pytest.raises(InvalidNetworkError, match="not topological"):
            make_evaluator(network)

    def test_compiler_records_engine(self):
        pool = make_pool([0.5, 0.5])
        network = build_targets({"t": conj([var(0), var(1)])})
        compiler = ShannonCompiler(network, pool, engine="scalar")
        assert isinstance(compiler.evaluator, PartialEvaluator)
        assert compiler.run().probability("t") == pytest.approx(0.25)

    def test_repeated_runs_reuse_the_evaluator(self):
        pool = make_pool([0.5, 0.5])
        network = build_targets({"t": conj([var(0), var(1)])})
        compiler = ShannonCompiler(network, pool)
        first = compiler.evaluator
        result_one = compiler.run()
        result_two = compiler.run()
        assert compiler.evaluator is first
        assert result_one.bounds == result_two.bounds
        assert result_one.evals == result_two.evals  # per-run delta


class TestIterativeDFS:
    def test_deep_decision_tree_without_recursion(self):
        # A conjunction of many variables makes the decision tree as
        # deep as the variable count; the explicit-stack DFS and the
        # masked evaluator must handle it far below the interpreter
        # recursion limit (the old recursive compiler raised the limit
        # to 100k instead).
        count = 1500
        pool = make_pool([0.5] * count)
        network = build_targets({"t": conj([var(i) for i in range(count)])})
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(900)
        try:
            result = compile_network(network, pool)
        finally:
            sys.setrecursionlimit(limit)
        assert result.is_exact()
        assert result.max_depth >= count
        assert result.probability("t") == pytest.approx(0.0)

    def test_no_recursion_limit_mutation(self):
        pool = make_pool([0.5, 0.5])
        network = build_targets({"t": conj([var(0), var(1)])})
        before = sys.getrecursionlimit()
        compile_network(network, pool)
        assert sys.getrecursionlimit() == before
