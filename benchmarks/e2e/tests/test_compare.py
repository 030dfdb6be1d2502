from compare import spread, verdict

STEADY = [1.00, 1.01, 0.99, 1.02, 1.00]


def test_ok_within_the_bound():
    assert verdict(STEADY, [1.05, 1.06, 1.04, 1.05, 1.07], 0.10) == "ok"


def test_regressed_beyond_the_bound():
    assert verdict(STEADY, [1.15, 1.16, 1.14, 1.15, 1.17], 0.10) == "regressed"


def test_higher_is_better_flips_the_direction():
    slower = [0.80, 0.81, 0.79, 0.80, 0.82]
    assert verdict(STEADY, slower, 0.10, better="higher") == "regressed"
    assert verdict(STEADY, slower, 0.10, better="lower") == "ok"


def test_unresolved_when_a_side_spreads_wider_than_the_bound():
    noisy = [0.8, 1.3, 1.0, 1.6, 0.9]
    assert spread(noisy) > 0.10
    assert verdict(STEADY, noisy, 0.10) == "unresolved"
    assert verdict(noisy, STEADY, 0.10) == "unresolved"


def test_wide_spread_is_still_ok_when_every_new_run_beats_every_base_run():
    noisy_but_faster = [0.40, 0.60, 0.50, 0.70, 0.45]
    assert spread(noisy_but_faster) > 0.10
    assert verdict(STEADY, noisy_but_faster, 0.10) == "ok"


def test_any_failed_op_is_a_regression():
    assert verdict(STEADY, STEADY, 0.10, failed=1) == "regressed"
