"""Unit tests for conditioning: the ``exact-cond`` / ``lazy-cond``
registered schemes."""

import pytest

from repro.engine.registry import run_scheme
from repro.events.expressions import FALSE, TRUE, conj, disj, negate, var
from repro.events.probability import event_probability
from repro.network.build import build_targets

from ..conftest import make_pool


def condition_events(events, constraint, pool, scheme="exact-cond", epsilon=0.0):
    """Bounds on ``P(event | constraint)`` per event, one scheme pass."""
    network = build_targets({**events, "__constraint__": constraint})
    result = run_scheme(
        scheme, network, pool, targets=list(events),
        evidence=[("event", "__constraint__")], epsilon=epsilon,
    )
    return result.bounds


def conditional_probability(event, constraint, pool, **options):
    return condition_events({"e": event}, constraint, pool, **options)["e"]


class TestConditionalProbability:
    def test_exact_conditioning(self):
        pool = make_pool([0.5, 0.5])
        event = var(0)
        constraint = disj([var(0), var(1)])
        lower, upper = conditional_probability(event, constraint, pool)
        # P(x0 | x0 ∨ x1) = 0.5 / 0.75
        assert lower == pytest.approx(0.5 / 0.75)
        assert upper == pytest.approx(0.5 / 0.75)

    def test_conditioning_on_true_is_marginal(self):
        pool = make_pool([0.3])
        lower, upper = conditional_probability(var(0), TRUE, pool)
        assert lower == pytest.approx(0.3)
        assert upper == pytest.approx(0.3)

    def test_conditioning_induces_correlation(self):
        # Under the constraint "exactly one of x0,x1", the tuples become
        # mutually exclusive: P(x0 ∧ x1 | C) = 0.
        pool = make_pool([0.5, 0.5])
        exactly_one = disj(
            [conj([var(0), negate(var(1))]), conj([negate(var(0)), var(1)])]
        )
        lower, upper = conditional_probability(
            conj([var(0), var(1)]), exactly_one, pool
        )
        assert upper == pytest.approx(0.0)

    def test_impossible_constraint(self):
        pool = make_pool([0.5])
        with pytest.raises(ZeroDivisionError):
            conditional_probability(var(0), FALSE, pool)

    def test_approximate_conditioning_encloses_exact(self):
        pool = make_pool([0.5, 0.6, 0.7])
        event = conj([var(0), var(2)])
        constraint = disj([var(0), var(1)])
        exact_lower, exact_upper = conditional_probability(event, constraint, pool)
        lower, upper = conditional_probability(
            event, constraint, pool, scheme="lazy-cond", epsilon=0.05
        )
        assert lower - 1e-9 <= exact_lower
        assert upper + 1e-9 >= exact_upper


class TestCondSchemes:
    """Conditioning as first-class registry schemes."""

    def test_event_evidence_matches_enumeration(self):
        pool = make_pool([0.4, 0.6, 0.3])
        event = conj([var(1), var(2)])
        constraint = disj([var(0), var(2)])
        network = build_targets({"t": event, "C": constraint})
        result = run_scheme(
            "exact-cond", network, pool, targets=["t"],
            evidence=[("event", "C")],
        )
        joint = event_probability(conj([event, constraint]), pool)
        denominator = event_probability(constraint, pool)
        assert result.scheme == "exact-cond"
        assert result.bounds["t"][0] == pytest.approx(
            joint / denominator, abs=1e-9
        )
        assert result.bounds["t"][1] == pytest.approx(
            joint / denominator, abs=1e-9
        )
        assert result.extra["evidence_terms"] == 1.0
        assert result.extra["evidence_lower"] == pytest.approx(denominator)

    def test_var_evidence_matches_enumeration(self):
        pool = make_pool([0.4, 0.6, 0.3])
        event = disj([conj([var(0), var(1)]), var(2)])
        network = build_targets({"t": event})
        result = run_scheme(
            "exact-cond", network, pool, evidence=[(0, True), (2, False)]
        )
        joint = event_probability(
            conj([event, var(0), negate(var(2))]), pool
        )
        denominator = event_probability(conj([var(0), negate(var(2))]), pool)
        assert result.bounds["t"][0] == pytest.approx(
            joint / denominator, abs=1e-9
        )

    def test_empty_evidence_is_the_marginal(self):
        pool = make_pool([0.4, 0.6])
        event = disj([var(0), var(1)])
        network = build_targets({"t": event})
        result = run_scheme("exact-cond", network, pool, evidence=[])
        assert result.scheme == "exact-cond"
        assert result.bounds["t"][0] == pytest.approx(
            event_probability(event, pool), abs=1e-9
        )

    def test_contradictory_evidence_raises(self):
        pool = make_pool([0.5])
        network = build_targets({"t": var(0), "C": FALSE})
        with pytest.raises(ZeroDivisionError):
            run_scheme(
                "exact-cond", network, pool, targets=["t"],
                evidence=[("event", "C")],
            )

    def test_lazy_cond_encloses_exact(self):
        pool = make_pool([0.5, 0.6, 0.7])
        event = conj([var(0), var(2)])
        network = build_targets({"t": event})
        exact = run_scheme("exact-cond", network, pool, evidence=[(1, True)])
        lazy = run_scheme(
            "lazy-cond", network, pool, evidence=[(1, True)], epsilon=0.05
        )
        assert lazy.scheme == "lazy-cond"
        assert lazy.bounds["t"][0] - 1e-9 <= exact.bounds["t"][0]
        assert lazy.bounds["t"][1] + 1e-9 >= exact.bounds["t"][1]

    def test_lazy_cond_zero_epsilon_falls_back_to_exact(self):
        pool = make_pool([0.5, 0.6])
        network = build_targets({"t": conj([var(0), var(1)])})
        lazy = run_scheme("lazy-cond", network, pool, evidence=[(0, True)])
        exact = run_scheme("exact-cond", network, pool, evidence=[(0, True)])
        assert lazy.scheme == "lazy-cond"
        assert lazy.bounds["t"][0] == pytest.approx(
            exact.bounds["t"][0], abs=1e-12
        )

    def test_source_network_is_not_mutated(self):
        pool = make_pool([0.5, 0.6])
        network = build_targets({"t": disj([var(0), var(1)])})
        nodes_before = len(network.nodes)
        targets_before = dict(network.targets)
        run_scheme("exact-cond", network, pool, evidence=[(0, False)])
        assert len(network.nodes) == nodes_before
        assert network.targets == targets_before

    def test_unknown_event_evidence_rejected(self):
        pool = make_pool([0.5])
        network = build_targets({"t": var(0)})
        with pytest.raises(ValueError, match="ghost"):
            run_scheme(
                "exact-cond", network, pool, evidence=[("event", "ghost")]
            )


class TestConditionEvents:
    def test_multiple_events_one_pass(self):
        pool = make_pool([0.5, 0.5])
        constraint = disj([var(0), var(1)])
        bounds = condition_events(
            {"a": var(0), "b": var(1)}, constraint, pool
        )
        assert bounds["a"][0] == pytest.approx(0.5 / 0.75)
        assert bounds["b"][0] == pytest.approx(0.5 / 0.75)

    def test_matches_enumeration(self):
        pool = make_pool([0.4, 0.6, 0.3])
        constraint = disj([var(0), var(2)])
        event = conj([var(1), var(2)])
        joint = event_probability(conj([event, constraint]), pool)
        denominator = event_probability(constraint, pool)
        lower, upper = conditional_probability(event, constraint, pool)
        assert lower == pytest.approx(joint / denominator)
        assert upper == pytest.approx(joint / denominator)
