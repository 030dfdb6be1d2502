"""Unit tests for sensitivity analysis and explanations."""

import pytest

from repro.core.sensitivity import (
    conditioned_probability,
    explain,
    sufficient_assignments,
    variable_influences,
)
from repro.events.expressions import conj, disj, negate, var
from repro.events.probability import event_probability
from repro.network.build import build_targets
from repro.worlds.variables import VariablePool

from ..conftest import make_pool


class TestConditionedProbability:
    def test_conditioning_on_supporting_variable(self):
        pool = make_pool([0.5, 0.5])
        network = build_targets({"t": conj([var(0), var(1)])})
        assert conditioned_probability(network, pool, "t", {0: True}) == pytest.approx(0.5)
        assert conditioned_probability(network, pool, "t", {0: False}) == 0.0

    def test_pool_probabilities_restored(self):
        pool = make_pool([0.3, 0.7])
        network = build_targets({"t": var(0)})
        conditioned_probability(network, pool, "t", {0: True, 1: False})
        assert pool.probability(0) == pytest.approx(0.3)
        assert pool.probability(1) == pytest.approx(0.7)

    def test_total_probability_law(self):
        pool = make_pool([0.4, 0.6])
        event = disj([var(0), conj([negate(var(0)), var(1)])])
        network = build_targets({"t": event})
        given_true = conditioned_probability(network, pool, "t", {0: True})
        given_false = conditioned_probability(network, pool, "t", {0: False})
        reconstructed = 0.4 * given_true + 0.6 * given_false
        assert reconstructed == pytest.approx(event_probability(event, pool))


class TestInfluences:
    def test_and_gate_influences_positive(self):
        pool = make_pool([0.5, 0.5])
        network = build_targets({"t": conj([var(0), var(1)])})
        influences = variable_influences(network, pool, "t")
        assert {i.variable for i in influences} == {0, 1}
        for influence in influences:
            assert influence.derivative == pytest.approx(0.5)

    def test_negative_influence(self):
        pool = make_pool([0.5])
        network = build_targets({"t": negate(var(0))})
        (influence,) = variable_influences(network, pool, "t")
        assert influence.derivative == pytest.approx(-1.0)

    def test_irrelevant_variables_skipped(self):
        pool = make_pool([0.5, 0.5, 0.5])
        network = build_targets({"t": var(0)})
        influences = variable_influences(network, pool, "t")
        assert [i.variable for i in influences] == [0]

    def test_caller_pool_is_never_written(self):
        # A thread sharing the pool must never see a pinned marginal.
        class ReadOnlyPool(VariablePool):
            def set_probability(self, index, probability):
                raise AssertionError("the caller's pool was written")

        shared = ReadOnlyPool()
        shared.add_many([0.3, 0.6])
        network = build_targets({"t": disj([var(0), conj([negate(var(0)), var(1)])])})
        influences = variable_influences(network, shared, "t")
        assert influences == variable_influences(network, make_pool([0.3, 0.6]), "t")

    def test_ranking_by_magnitude(self):
        pool = make_pool([0.5, 0.5])
        # t = x0 ∨ (x0̄ ∧ x1): x0 matters more than x1.
        event = disj([var(0), conj([negate(var(0)), conj([var(1), var(1)])])])
        network = build_targets({"t": disj([var(0), var(1)])})
        influences = variable_influences(network, pool, "t")
        assert influences[0].magnitude >= influences[-1].magnitude


class TestSufficientAssignments:
    def test_or_gate_single_literal_witnesses(self):
        pool = make_pool([0.5, 0.5])
        network = build_targets({"t": disj([var(0), var(1)])})
        witnesses = sufficient_assignments(network, pool, "t", max_size=2)
        assert {0: True} in witnesses
        assert {1: True} in witnesses

    def test_and_gate_needs_both(self):
        pool = make_pool([0.5, 0.5])
        network = build_targets({"t": conj([var(0), var(1)])})
        witnesses = sufficient_assignments(network, pool, "t", max_size=2)
        assert witnesses == [{0: True, 1: True}]

    def test_subsumed_assignments_excluded(self):
        pool = make_pool([0.5, 0.5])
        network = build_targets({"t": var(0)})
        witnesses = sufficient_assignments(network, pool, "t", max_size=2)
        assert witnesses == [{0: True}]

    def test_negative_literals(self):
        pool = make_pool([0.5])
        network = build_targets({"t": negate(var(0))})
        witnesses = sufficient_assignments(network, pool, "t", max_size=1)
        assert witnesses == [{0: False}]

    def test_limit_respected(self):
        pool = make_pool([0.5] * 4)
        network = build_targets({"t": disj([var(i) for i in range(4)])})
        witnesses = sufficient_assignments(network, pool, "t", limit=2)
        assert len(witnesses) == 2


class TestExplainReport:
    def test_report_renders(self):
        pool = make_pool([0.5, 0.5])
        network = build_targets({"t": conj([var(0), var(1)])})
        report = explain(network, pool, "t")
        assert "P[t]" in report
        assert "influence" in report
        assert "sufficient" in report

    def test_report_on_clustering_target(self):
        from repro.data.datasets import sensor_dataset
        from repro.mining.kmedoids import KMedoidsSpec, build_kmedoids_program
        from repro.mining.targets import medoid_targets
        from repro.network.build import build_network

        dataset = sensor_dataset(
            6, scheme="independent", seed=3, group_size=2
        )
        program = build_kmedoids_program(dataset, KMedoidsSpec(k=2, iterations=2))
        names = medoid_targets(program, 2, 6, 1)
        network = build_network(program)
        report = explain(network, dataset.pool, names[0], top=3)
        assert "P[" in report
