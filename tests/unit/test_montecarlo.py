"""Unit tests for the Monte Carlo (MCDB-style) comparator."""

import pytest

from repro.compile.compiler import compile_network
from repro.compile.montecarlo import (
    monte_carlo_probabilities,
    monte_carlo_probabilities_scalar,
    samples_for_error,
    z_score,
)
from repro.events.expressions import conj, disj, var
from repro.network.build import build_targets

from ..conftest import make_pool


class TestMonteCarloEstimates:
    def test_estimate_converges(self):
        pool = make_pool([0.5, 0.4, 0.7])
        events = {"t": disj([var(0), conj([var(1), var(2)])])}
        network = build_targets(events)
        exact = compile_network(network, pool).bounds["t"][0]
        result = monte_carlo_probabilities(network, pool, samples=4000, seed=1)
        estimate = result.probability("t")
        assert abs(estimate - exact) < 0.05

    def test_interval_usually_covers(self):
        pool = make_pool([0.3, 0.6])
        network = build_targets({"t": conj([var(0), var(1)])})
        exact = compile_network(network, pool).bounds["t"][0]
        covered = 0
        runs = 20
        for seed in range(runs):
            result = monte_carlo_probabilities(
                network, pool, samples=300, seed=seed, confidence=0.95
            )
            lower, upper = result.bounds["t"]
            if lower <= exact <= upper:
                covered += 1
        # With 95% nominal coverage, 20 runs should rarely miss twice.
        assert covered >= runs - 3

    def test_deterministic_per_seed(self):
        pool = make_pool([0.5])
        network = build_targets({"t": var(0)})
        first = monte_carlo_probabilities(network, pool, samples=100, seed=7)
        second = monte_carlo_probabilities(network, pool, samples=100, seed=7)
        assert first.bounds == second.bounds

    def test_certain_events(self):
        from repro.events.expressions import TRUE

        pool = make_pool([0.5])
        network = build_targets({"t": TRUE})
        result = monte_carlo_probabilities(network, pool, samples=50)
        assert result.probability("t") == pytest.approx(1.0, abs=0.02)

    def test_scheme_label_and_counters(self):
        pool = make_pool([0.5])
        network = build_targets({"t": var(0)})
        result = monte_carlo_probabilities(network, pool, samples=64)
        assert result.scheme == "montecarlo"
        assert result.extra["samples"] == 64.0
        assert result.tree_nodes == 64

    def test_invalid_arguments(self):
        pool = make_pool([0.5])
        network = build_targets({"t": var(0)})
        with pytest.raises(ValueError):
            monte_carlo_probabilities(network, pool, samples=0)
        with pytest.raises(ValueError):
            monte_carlo_probabilities(network, pool, samples=10, confidence=0.3)


class TestZScore:
    # The three standard tabulated values; the exact inverse normal CDF
    # must reproduce them to the table's precision (and beyond).
    @pytest.mark.parametrize(
        ("confidence", "tabulated"),
        [(0.90, 1.6449), (0.95, 1.9600), (0.99, 2.5758)],
    )
    def test_matches_tabulated_values(self, confidence, tabulated):
        assert z_score(confidence) == pytest.approx(tabulated, abs=5e-5)

    def test_arbitrary_confidence_levels_are_exact(self):
        # 97.5% two-sided -> Phi^-1(0.9875); linear interpolation over
        # the table gave ~2.12 here, the exact value is ~2.2414.
        assert z_score(0.975) == pytest.approx(2.2414, abs=5e-5)
        assert z_score(0.999) == pytest.approx(3.2905, abs=5e-5)

    def test_monotone_in_confidence(self):
        assert z_score(0.8) < z_score(0.9) < z_score(0.99) < z_score(0.999)

    def test_invalid_confidence(self):
        for bad in (0.5, 1.0, 0.0, -1.0, 2.0):
            with pytest.raises(ValueError):
                z_score(bad)


class TestScalarOracle:
    def test_scalar_path_still_estimates(self):
        pool = make_pool([0.5, 0.4, 0.7])
        events = {"t": disj([var(0), conj([var(1), var(2)])])}
        network = build_targets(events)
        exact = compile_network(network, pool).bounds["t"][0]
        result = monte_carlo_probabilities_scalar(
            network, pool, samples=4000, seed=1
        )
        assert abs(result.probability("t") - exact) < 0.05
        # It reports its node evaluations, the same for the same seed.
        assert result.evals > 0
        again = monte_carlo_probabilities_scalar(network, pool, samples=4000, seed=1)
        assert again.evals == result.evals

    def test_bulk_and_scalar_report_same_shape(self):
        pool = make_pool([0.5])
        network = build_targets({"t": var(0)})
        bulk = monte_carlo_probabilities(network, pool, samples=64)
        scalar = monte_carlo_probabilities_scalar(network, pool, samples=64)
        assert bulk.extra["samples"] == scalar.extra["samples"] == 64.0
        assert bulk.tree_nodes == scalar.tree_nodes == 64


class TestSampleBudget:
    def test_sample_count_formula(self):
        # z=1.96, eps=0.1 -> n = ceil(1.96^2 * 0.25 / 0.01) = 97
        assert samples_for_error(0.1) == 97

    def test_tighter_epsilon_needs_quadratically_more(self):
        assert samples_for_error(0.05) >= 4 * samples_for_error(0.1) - 4

    def test_invalid_epsilon(self):
        with pytest.raises(ValueError):
            samples_for_error(0.0)
