import numpy as np
import pytest

from stepdown.paulson import (
    PaulsonConfig,
    PaulsonResult,
    classify_by_mean,
    paulson_via_stepdown,
    run_paulson_direct,
    simulate_observations,
)


def test_config_validation():
    with pytest.raises(ValueError, match="increasing"):
        PaulsonConfig(thresholds=(1.0, 0.0), delta=0.1, critical_value=2.0)
    with pytest.raises(ValueError, match="delta"):
        PaulsonConfig(thresholds=(0.0,), delta=0.0, critical_value=2.0)
    with pytest.raises(ValueError, match="critical_value"):
        PaulsonConfig(thresholds=(0.0,), delta=0.1, critical_value=-1.0)
    with pytest.raises(ValueError, match="gap"):
        PaulsonConfig(thresholds=(0.0, 0.5), delta=0.6, critical_value=2.0)
    with pytest.raises(ValueError, match="horizon"):
        PaulsonConfig(thresholds=(0.0,), delta=0.1, critical_value=2.0, horizon=0)
    cfg = PaulsonConfig(thresholds=(0.0, 1.0), delta=0.1, critical_value=2.0)
    assert cfg.k == 3


@pytest.mark.parametrize(
    "field, kwargs",
    [
        ("thresholds", {"thresholds": (0.0, float("nan"))}),
        ("thresholds", {"thresholds": (float("-inf"),)}),
        ("delta", {"delta": float("nan")}),
        ("delta", {"delta": float("inf")}),
        ("critical_value", {"critical_value": float("nan")}),
        ("critical_value", {"critical_value": float("inf")}),
    ],
)
def test_config_rejects_non_finite(field, kwargs):
    base = {"thresholds": (0.0, 1.0), "delta": 0.1, "critical_value": 2.0}
    with pytest.raises(ValueError, match=field):
        PaulsonConfig(**{**base, **kwargs})


def test_classify_by_mean():
    th = (0.0, 1.0)
    assert classify_by_mean(-0.5, th) == 0
    assert classify_by_mean(0.5, th) == 1
    assert classify_by_mean(1.5, th) == 2
    assert classify_by_mean(0.0, th) == 0  # ties resolve downward
    assert classify_by_mean(1.0, th) == 1


def test_constant_path_two_intervals():
    # Mean ten slack-widths above the threshold: the evidence interval
    # fits the upper target once A/n <= 10.5 * delta, so stop_n = 5 for
    # A = 5, delta = 0.1.
    delta = 0.1
    cfg = PaulsonConfig(thresholds=(0.0,), delta=delta, critical_value=5.0)
    path = np.full(100, 10.0 * delta)
    res = run_paulson_direct(path, cfg)
    assert res == PaulsonResult(decision=1, stop_n=5, fallback_used=False)
    assert paulson_via_stepdown(path, cfg) == res
    # One observation fewer and the condition just misses: A/4 = 1.25
    # exceeds 1.05.
    assert run_paulson_direct(path[:4], cfg).fallback_used


def test_constant_path_middle_interval():
    # Mean centered between thresholds 0 and 1: both one-sided margins
    # equal 0.55, so the middle target is hit at the first n with
    # A/n <= 0.55, i.e. n = 10 for A = 5.
    cfg = PaulsonConfig(thresholds=(0.0, 1.0), delta=0.1, critical_value=5.0)
    path = np.full(50, 0.5)
    res = run_paulson_direct(path, cfg)
    assert res == PaulsonResult(decision=1, stop_n=10, fallback_used=False)
    assert paulson_via_stepdown(path, cfg) == res


def test_horizon_fallback():
    cfg = PaulsonConfig(thresholds=(0.0,), delta=0.1, critical_value=1e6, horizon=40)
    rng = np.random.default_rng(3)
    path = rng.normal(loc=-1.0, size=200)
    res = run_paulson_direct(path, cfg)
    assert res.fallback_used
    assert res.stop_n == 40
    assert res.decision == 0
    assert paulson_via_stepdown(path, cfg) == res


def test_exhausted_observations_fall_back():
    cfg = PaulsonConfig(thresholds=(0.0,), delta=0.1, critical_value=1e6)
    res = run_paulson_direct(np.full(30, 2.0), cfg)
    assert res == PaulsonResult(decision=1, stop_n=30, fallback_used=True)


def test_no_observations_is_an_error():
    cfg = PaulsonConfig(thresholds=(0.0,), delta=0.1, critical_value=2.0)
    with pytest.raises(ValueError, match="no observations"):
        run_paulson_direct(np.empty(0), cfg)
    with pytest.raises(ValueError, match="no observations"):
        paulson_via_stepdown(np.empty(0), cfg)


def test_routes_agree_on_random_paths():
    rng = np.random.default_rng(42)
    configs = [
        PaulsonConfig(thresholds=(0.0,), delta=0.2, critical_value=3.0, horizon=500),
        PaulsonConfig(thresholds=(-0.5, 0.5), delta=0.15, critical_value=2.5, horizon=500),
        PaulsonConfig(thresholds=(0.0, 1.0, 2.0), delta=0.25, critical_value=4.0, horizon=800),
    ]
    for cfg in configs:
        lo = cfg.thresholds[0] - 1.0
        hi = cfg.thresholds[-1] + 1.0
        for _ in range(300):
            mean = rng.uniform(lo, hi)
            path = mean + rng.standard_normal(cfg.horizon)
            a = run_paulson_direct(path, cfg)
            b = paulson_via_stepdown(path, cfg)
            assert a == b


def test_routes_agree_on_generator_input():
    cfg = PaulsonConfig(thresholds=(0.0,), delta=0.2, critical_value=3.0, horizon=600)
    for rep in range(20):
        gen_a = simulate_observations(
            0.4, cfg.horizon, np.random.Generator(np.random.Philox(key=[8, rep]))
        )
        gen_b = simulate_observations(
            0.4, cfg.horizon, np.random.Generator(np.random.Philox(key=[8, rep]))
        )
        assert run_paulson_direct(gen_a, cfg) == paulson_via_stepdown(gen_b, cfg)


def test_stop_time_shrinks_with_clearer_separation():
    cfg = PaulsonConfig(thresholds=(0.0,), delta=0.1, critical_value=5.0)
    near = run_paulson_direct(np.full(500, 0.3), cfg)
    far = run_paulson_direct(np.full(500, 3.0), cfg)
    assert far.stop_n < near.stop_n
    assert near.decision == far.decision == 1


def test_wrong_side_rate_decreases_in_critical_value():
    # True mean pinned at the lower widened boundary theta_1 - delta:
    # raising A must not make upward misclassification more likely.
    delta = 0.2
    horizon = 2000

    def misclass_rate(a_value, reps=1500):
        cfg = PaulsonConfig(
            thresholds=(0.0,), delta=delta, critical_value=a_value, horizon=horizon
        )
        wrong = 0
        for rep in range(reps):
            rng = np.random.Generator(np.random.Philox(key=[99, rep]))
            path = -delta + rng.standard_normal(horizon)
            if run_paulson_direct(path, cfg).decision == 1:
                wrong += 1
        return wrong / reps

    assert misclass_rate(6.0) <= misclass_rate(2.0)


def test_well_separated_mean_classified_correctly():
    # Mean five slack-widths above the threshold with a demanding
    # critical value: nearly every path lands in the upper interval.
    delta = 0.3
    cfg = PaulsonConfig(thresholds=(0.0,), delta=delta, critical_value=8.0, horizon=5000)
    hits = 0
    reps = 2000
    for rep in range(reps):
        rng = np.random.Generator(np.random.Philox(key=[55, rep]))
        path = 5.0 * delta + rng.standard_normal(400)
        if run_paulson_direct(path, cfg).decision == 1:
            hits += 1
    assert hits / reps >= 0.99
