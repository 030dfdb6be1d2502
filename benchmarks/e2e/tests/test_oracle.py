import random

import pytest

from oracle import Table, check_claim, world_masses


def test_world_masses_index_worlds_by_variable_bits():
    masses = world_masses([0.25, 0.5])
    # world 0b01 = variable 0 true, variable 1 false
    assert masses == [0.75 * 0.5, 0.25 * 0.5, 0.75 * 0.5, 0.25 * 0.5]
    assert sum(world_masses([0.3, 0.6, 0.9])) == pytest.approx(1.0)


def test_evidence_moves_the_marginal_to_certainty():
    assert world_masses([0.25, 0.5], [[0, True]]) == [0.0, 0.5, 0.0, 0.5]
    assert world_masses([0.25, 0.5], [[1, False]]) == [0.75, 0.25, 0.0, 0.0]


def table():
    # x0 holds in worlds 1 and 3; "x0 and not x1" only in world 1.
    return Table({"variables": 2,
                  "targets": {"x0": format(0b1010, "x"), "only": format(0b0010, "x")}})


def claim(bounds, **overrides):
    base = {"table": "t", "pool": "p", "bounds": bounds, "epsilon": 0.0,
            "tolerance": 1e-9, "evidence": [], "samples": None,
            "confidence": None}
    base.update(overrides)
    return base


def test_table_probabilities_with_and_without_evidence():
    assert table().probabilities([0.25, 0.5], []) == {"x0": 0.25, "only": 0.125}
    conditioned = table().probabilities([0.25, 0.5], [[1, False]])
    assert conditioned == {"x0": 0.25, "only": 0.25}


def test_exact_claims_must_match_to_the_tolerance():
    marginals = [0.25, 0.5]
    assert check_claim(claim({"x0": [0.25, 0.25]}), table(), marginals) is None
    assert "outside" in check_claim(
        claim({"x0": [0.2501, 0.2501]}), table(), marginals
    )


def test_epsilon_claims_must_enclose_and_be_tight_enough():
    marginals = [0.25, 0.5]
    good = claim({"x0": [0.2, 0.35]}, epsilon=0.1)
    loose = claim({"x0": [0.1, 0.4]}, epsilon=0.1)
    missing = claim({"x0": [0.26, 0.3]}, epsilon=0.1)
    assert check_claim(good, table(), marginals) is None
    assert "gap" in check_claim(loose, table(), marginals)
    assert "outside" in check_claim(missing, table(), marginals)


def test_monte_carlo_claims_get_the_wilson_slack_at_frequency_zero():
    marginals = [0.0005, 0.5]
    collapsed = claim({"x0": [0.0, 1e-9]}, samples=2000, confidence=1 - 1e-12)
    wrong = claim({"x0": [0.2, 0.3]}, samples=2000, confidence=1 - 1e-12)
    assert check_claim(collapsed, table(), marginals) is None
    assert "outside" in check_claim(wrong, table(), marginals)


def test_unknown_targets_and_wrong_pools_are_failures():
    assert "unknown target" in check_claim(
        claim({"nope": [0, 1]}, epsilon=0.5), table(), [0.25, 0.5]
    )
    assert "marginals" in check_claim(claim({"x0": [0, 1]}), table(), [0.25])


def test_the_table_reproduces_the_naive_scalar_scheme():
    """Ties the truth table to the registered independent oracle."""
    pytest.importorskip("repro")
    from oracle import build_table
    from repro import ENFrame, KMedoidsSpec

    platform = ENFrame.from_sensor_data(8, scheme="mutex", seed=3, group_size=2)
    platform.kmedoids(KMedoidsSpec(k=2, iterations=2))
    pool = platform.dataset.pool
    names = list(platform.target_names)
    masks = build_table(platform.network, len(pool), names)
    built = Table({"variables": len(pool),
                   "targets": {n: format(m, "x") for n, m in masks.items()}})
    rng = random.Random(1)
    for _ in range(2):
        for variable in range(len(pool)):
            pool.set_probability(variable, rng.uniform(0.2, 0.9))
        reference = platform.run(scheme="naive-scalar")
        mine = built.probabilities(pool.probabilities, [])
        for name in names:
            assert mine[name] == pytest.approx(reference.probability(name), abs=1e-12)
