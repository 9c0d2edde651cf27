import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stepdown.paulson import (
    CHUNK,
    GROUP_OBSERVATIONS,
    PaulsonConfig,
    PaulsonResult,
    classify_by_mean,
    classify_paths,
    paulson_via_stepdown,
    run_paulson_direct,
    simulate_observations,
)
from stepdown.trial import RngStream

ROUTES = {"direct": run_paulson_direct, "stepdown": paulson_via_stepdown}
GROUP = GROUP_OBSERVATIONS // CHUNK  # paths classify_paths decides per pass


def loop_paths(theta, config, seed, reps, method):
    """The oracle for classify_paths: each path drawn and decided on its own."""
    rows = []
    for r in range(reps):
        observations = simulate_observations(theta, config.horizon, RngStream(seed, r).generator())
        result = ROUTES[method](observations, config)
        rows.append((result.decision, result.stop_n, result.fallback_used))
    return rows


def grouped_rows(theta, config, seed, reps, method):
    decision, stop_n, fallback = classify_paths(theta, config, seed, reps, method)
    assert decision.shape == stop_n.shape == fallback.shape == (reps,)
    return list(zip(decision.tolist(), stop_n.tolist(), fallback.tolist()))


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


@st.composite
def path_group_cases(draw):
    k1 = draw(st.integers(1, 4))
    gaps = draw(st.lists(st.floats(0.2, 2.0), min_size=k1 - 1, max_size=k1 - 1))
    thresholds = [draw(st.floats(-2.0, 2.0))]
    for gap in gaps:
        thresholds.append(thresholds[-1] + gap)
    delta = draw(st.floats(0.05, 0.95)) * min(gaps, default=1.0)
    critical_value = draw(st.floats(0.1, 8.0))
    horizon = draw(
        st.one_of(
            st.integers(1, CHUNK - 1),
            st.sampled_from([CHUNK, 2 * CHUNK, 3 * CHUNK]),
            st.integers(CHUNK + 1, 4 * CHUNK),
        )
    )
    config = PaulsonConfig(tuple(thresholds), delta, critical_value, horizon)
    theta = draw(
        st.one_of(st.floats(thresholds[0] - 1.0, thresholds[-1] + 1.0), st.sampled_from(thresholds))
    )
    reps = draw(st.integers(1, GROUP + 8))
    seed = draw(st.integers(0, 2**32))
    method = draw(st.sampled_from(sorted(ROUTES)))
    return theta, config, seed, reps, method


@settings(max_examples=40, deadline=None)
@given(path_group_cases())
@example((0.0, PaulsonConfig((0.0, 1.0), 0.02, 40.0, horizon=2 * CHUNK), 5, GROUP + 1, "direct"))
@example((0.0, PaulsonConfig((0.0, 1.0), 0.02, 40.0, horizon=2 * CHUNK), 5, GROUP + 1, "stepdown"))
def test_classify_paths_matches_one_path_loop(case):
    theta, config, seed, reps, method = case
    assert grouped_rows(theta, config, seed, reps, method) == loop_paths(
        theta, config, seed, reps, method
    )


@pytest.mark.parametrize("method", sorted(ROUTES))
@pytest.mark.parametrize(
    "config, theta, fallback",
    [
        # A critical value no path can meet: every path runs out at the
        # horizon, here three blocks and a part.
        (PaulsonConfig((0.0,), 0.1, 1e6, horizon=3 * CHUNK + 44), 0.0, "horizon"),
        # Slack wide against A: at a mean on the threshold, the first
        # qualifying observation often admits both intervals.
        (PaulsonConfig((0.0,), 0.5, 0.2, horizon=37), 0.0, "tie"),
    ],
)
def test_classify_paths_fallbacks_across_a_group_boundary(method, config, theta, fallback):
    reps = GROUP + 3
    rows = grouped_rows(theta, config, 11, reps, method)
    assert rows == loop_paths(theta, config, 11, reps, method)
    horizon_hits = sum(f and n == config.horizon for _d, n, f in rows)
    tie_hits = sum(f and n < config.horizon for _d, n, f in rows)
    assert (horizon_hits if fallback == "horizon" else tie_hits) > 0


def test_classify_paths_rejects_bad_input():
    config = PaulsonConfig((0.0,), 0.1, 2.0)
    with pytest.raises(ValueError, match="method"):
        classify_paths(0.0, config, 1, 5, "bogus")
    with pytest.raises(ValueError, match="seed"):
        classify_paths(0.0, config, -1, 5)
    with pytest.raises(ValueError, match="reps"):
        classify_paths(0.0, config, 1, 0)


def test_classify_paths_memory_does_not_grow_with_reps():
    # A mean between the widened targets keeps most paths sampling for
    # several blocks; classify_paths holds one group of them at a time.
    config = PaulsonConfig((0.0, 1.0), 0.1, 5.0, horizon=4 * CHUNK)
    peaks = []
    for reps in (300, 3000):
        tracemalloc.start()
        try:
            classify_paths(0.45, config, 2, reps, "stepdown")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
    # Ten times the paths: only the 17-byte-a-path results may add to
    # the working set of one group.
    assert peaks[1] < 1.25 * peaks[0]
    assert peaks[1] < 8 * 2**20
