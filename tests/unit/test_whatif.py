"""Unit tests for the incremental what-if session.

The session's contract has two halves checked here: *correctness* —
every query matches a from-scratch ``exact-cond`` recompile of the
same evidence to 1e-9 — and *incrementality* — after an edit, only the
targets whose influence cones contain the edited variable re-expand
(``result.extra["recomputed_targets"]``).
"""

from __future__ import annotations

import pytest

from repro import ENFrame, WhatIfSession
from repro.engine.registry import run_scheme
from repro.events.expressions import conj, disj, negate, var
from repro.network.build import build_targets

from ..conftest import make_pool, require_native

MATCH_ABS = 1e-9


def grouped_instance(groups: int = 3):
    """``groups`` independent targets over disjoint index-contiguous
    variable triples — edits to one group must leave the others clean."""
    probabilities = []
    events = {}
    for group in range(groups):
        base = 3 * group
        probabilities.extend([0.3 + 0.05 * group, 0.5, 0.7 - 0.05 * group])
        events[f"t{group}"] = disj(
            [
                conj([var(base), var(base + 1)]),
                conj([negate(var(base + 1)), var(base + 2)]),
            ]
        )
    return make_pool(probabilities), build_targets(events)


def reference_bounds(network, pool, targets, evidence):
    result = run_scheme(
        "exact-cond", network, pool, targets=targets, evidence=list(evidence)
    )
    return result.bounds


def assert_bounds_match(actual, expected):
    assert set(actual) == set(expected)
    for name in expected:
        assert actual[name][0] == pytest.approx(
            expected[name][0], abs=MATCH_ABS
        ), name
        assert actual[name][1] == pytest.approx(
            expected[name][1], abs=MATCH_ABS
        ), name


class TestCorrectness:
    def test_baseline_query_is_the_marginal(self):
        pool, network = grouped_instance()
        session = WhatIfSession(network, pool)
        result = session.query()
        exact = run_scheme("exact", network, pool)
        assert_bounds_match(result.bounds, exact.bounds)
        assert result.extra["recomputed_targets"] == float(
            len(network.targets)
        )
        assert result.extra["evidence_depth"] == 0.0

    def test_assert_matches_recompile(self):
        pool, network = grouped_instance()
        session = WhatIfSession(network, pool)
        session.query()
        session.assert_evidence(0, True)
        session.assert_evidence(4, False)
        result = session.query()
        expected = reference_bounds(
            network, pool, list(network.targets), [(0, True), (4, False)]
        )
        assert_bounds_match(result.bounds, expected)
        assert result.extra["evidence_depth"] == 2.0

    def test_retract_mid_stack_matches_recompile(self):
        pool, network = grouped_instance()
        session = WhatIfSession(network, pool)
        session.assert_evidence(0, True)
        session.assert_evidence(3, False)
        session.assert_evidence(1, True)
        removed = session.retract(3)  # not the most recent frame
        assert removed == (3, False)
        assert session.evidence == ((0, True), (1, True))
        expected = reference_bounds(
            network, pool, list(network.targets), [(0, True), (1, True)]
        )
        assert_bounds_match(session.query().bounds, expected)

    def test_retract_to_empty_is_the_marginal_again(self):
        pool, network = grouped_instance()
        session = WhatIfSession(network, pool)
        session.assert_evidence(2, False)
        session.query()
        session.retract()
        assert session.evidence == ()
        exact = run_scheme("exact", network, pool)
        assert_bounds_match(session.query().bounds, exact.bounds)

    def test_set_probability_matches_recompile(self):
        pool, network = grouped_instance()
        session = WhatIfSession(network, pool)
        session.assert_evidence(0, True)
        session.query()
        session.set_probability(1, 0.9)
        result = session.query()
        expected = reference_bounds(
            network, pool, list(network.targets), [(0, True)]
        )
        assert_bounds_match(result.bounds, expected)

    def test_lazy_query_encloses_exact(self):
        pool, network = grouped_instance()
        session = WhatIfSession(network, pool)
        session.assert_evidence(0, True)
        exact = session.query()
        lazy = session.query(scheme="lazy", epsilon=0.1)
        for name in network.targets:
            assert lazy.bounds[name][0] - MATCH_ABS <= exact.bounds[name][0]
            assert lazy.bounds[name][1] + MATCH_ABS >= exact.bounds[name][1]
            assert (
                lazy.bounds[name][1] - lazy.bounds[name][0] <= 0.2 + 1e-12
            )


class TestIncrementality:
    def test_clean_queries_skip_the_engine(self):
        pool, network = grouped_instance()
        session = WhatIfSession(network, pool)
        session.query()
        again = session.query()
        assert again.extra["recomputed_targets"] == 0.0
        assert again.evals == 0

    def test_edit_dirties_only_the_touched_cone(self):
        pool, network = grouped_instance()
        session = WhatIfSession(network, pool)
        session.query()
        session.assert_evidence(0, True)  # group 0 only
        result = session.query()
        assert result.extra["recomputed_targets"] == 1.0
        session.set_probability(5, 0.2)  # group 1 only
        result = session.query()
        assert result.extra["recomputed_targets"] == 1.0

    def test_retract_dirties_only_the_retracted_cone(self):
        pool, network = grouped_instance()
        session = WhatIfSession(network, pool)
        session.assert_evidence(0, True)
        session.assert_evidence(3, True)
        session.query()
        session.retract(0)
        result = session.query()
        # Group 3's frame was replayed, but only group 0's answer moved.
        assert result.extra["recomputed_targets"] == 1.0

    def test_scheme_switch_flushes_the_cache(self):
        pool, network = grouped_instance()
        session = WhatIfSession(network, pool)
        session.query()
        lazy = session.query(scheme="lazy", epsilon=0.2)
        assert lazy.extra["recomputed_targets"] == float(len(network.targets))
        back = session.query()
        assert back.extra["recomputed_targets"] == float(len(network.targets))


class TestValidation:
    def test_error_paths(self):
        pool, network = grouped_instance()
        session = WhatIfSession(network, pool)
        with pytest.raises(ValueError, match="not in the pool"):
            session.assert_evidence(99)
        session.assert_evidence(0, True)
        with pytest.raises(ValueError, match="already asserted"):
            session.assert_evidence(0, False)
        with pytest.raises(ValueError, match="not asserted"):
            session.retract(5)
        with pytest.raises(ValueError, match="unknown targets"):
            session.query(targets=["ghost"])
        with pytest.raises(ValueError, match="unknown scheme"):
            session.query(scheme="magic")
        with pytest.raises(ValueError, match="epsilon == 0"):
            session.query(epsilon=0.1)
        with pytest.raises(ValueError, match="positive epsilon"):
            session.query(scheme="lazy")
        session.retract()
        with pytest.raises(ValueError, match="no evidence"):
            session.retract()


class TestFacade:
    def test_enframe_whatif_binds_the_run_targets(self):
        pool, network = grouped_instance()
        session = ENFrame.from_network(network, pool).whatif()
        assert set(session.target_names) == set(network.targets)
        session.assert_evidence(0, True)
        expected = reference_bounds(
            network, pool, list(network.targets), [(0, True)]
        )
        assert_bounds_match(session.query().bounds, expected)

    def test_enframe_whatif_requires_a_network(self):
        platform = ENFrame(make_pool([0.5]))
        with pytest.raises(RuntimeError):
            platform.whatif()


class TestSessionTier:
    """The staged default of PR 13 (see ``whatif._session_kernel``).

    Every tier evaluates every network; a session merely *defaults* to
    the tier it had before the lane lowering on networks with vector
    c-values, until the end-to-end harness stops holding every op's
    answers (its ``peak_rss_mb`` gate would read the 26x op rate as a
    memory regression).  Flip these expectations with the follow-up.
    """

    @staticmethod
    def clustering_platform():
        from repro import KMedoidsSpec

        return ENFrame.from_sensor_data(
            8, scheme="mutex", group_size=2, mutex_size=2, seed=2
        ).kmedoids(KMedoidsSpec(k=2, iterations=2))

    def test_vector_networks_default_to_the_python_tier(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        session = self.clustering_platform().whatif()
        assert session._compiler.evaluator.kernel == "python"

    def test_an_explicit_tier_is_honoured_on_vector_networks(self):
        require_native()
        platform = self.clustering_platform()
        session = platform.whatif(kernel="native")
        assert session._compiler.evaluator.kernel == "native"
        session.assert_evidence(0, True)
        reference = platform.whatif(kernel="python")
        reference.assert_evidence(0, True)
        assert_bounds_match(session.query().bounds, reference.query().bounds)

    def test_the_environment_default_is_honoured_on_vector_networks(
        self, monkeypatch
    ):
        require_native()
        monkeypatch.setenv("REPRO_KERNEL", "native")
        session = self.clustering_platform().whatif()
        assert session._compiler.evaluator.kernel == "native"

    def test_scalar_networks_take_the_process_default(self, monkeypatch):
        require_native()
        monkeypatch.setenv("REPRO_KERNEL", "native")
        pool, network = grouped_instance()
        session = WhatIfSession(network, pool)
        assert session._compiler.evaluator.kernel == "native"
