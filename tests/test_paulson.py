import math
import tracemalloc
from dataclasses import replace
from operator import ge, le

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stepdown import paulson
from stepdown.paulson import (
    CHUNK,
    WAVE,
    PaulsonConfig,
    PaulsonResult,
    _ROUTES,
    _stream_blocks,
    classify_by_mean,
    classify_paths,
    paulson_via_stepdown,
    run_paulson_direct,
    simulate_observations,
)
from stepdown.trial import RngStream

from paulson_replay import GROUP, dealt_paths, paper_direct

ROUTES = {"direct": run_paulson_direct, "stepdown": paulson_via_stepdown}


def replay_rows(theta, config, seed, reps):
    return dealt_paths(theta, config, seed, reps)[0]


def grouped_rows(theta, config, seed, reps, method):
    decision, stop_n, fallback = classify_paths(theta, config, seed, reps, method)
    assert decision.shape == stop_n.shape == fallback.shape == (reps,)
    return list(zip(decision.tolist(), stop_n.tolist(), fallback.tolist()))


def test_config_validation():
    with pytest.raises(ValueError, match="increasing"):
        PaulsonConfig(thresholds=(1.0, 0.0), delta=0.1, critical_value=2.0)
    with pytest.raises(ValueError, match="at least one threshold is required"):
        PaulsonConfig(thresholds=(), delta=0.1, critical_value=2.0)
    with pytest.raises(ValueError, match="delta"):
        PaulsonConfig(thresholds=(0.0,), delta=0.0, critical_value=2.0)
    with pytest.raises(ValueError, match="critical_value"):
        PaulsonConfig(thresholds=(0.0,), delta=0.1, critical_value=-1.0)
    with pytest.raises(ValueError, match="gap"):
        PaulsonConfig(thresholds=(0.0, 0.5), delta=0.6, critical_value=2.0)
    with pytest.raises(ValueError, match="horizon"):
        PaulsonConfig(thresholds=(0.0,), delta=0.1, critical_value=2.0, horizon=0)
    # horizon=True used to cap every path at one observation.
    with pytest.raises(ValueError, match="horizon"):
        PaulsonConfig(thresholds=(0.0,), delta=0.1, critical_value=2.0, horizon=True)
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


def test_running_sum_is_the_sequential_sum():
    # S_n is S_{n-1} + x_n, one observation at a time.  The threshold is
    # that sum's mean, so the horizon's S_n/n falls on it and the tie
    # goes to the lower interval; a sum taken in another order can land
    # an ulp above it.
    path = np.full(300, 0.3)
    s = 0.0
    for x in path.tolist():
        s += x
    cfg = PaulsonConfig(thresholds=(s / 300,), delta=0.1, critical_value=1e9, horizon=300)
    for route in ROUTES.values():
        assert route(path, cfg) == PaulsonResult(decision=0, stop_n=300, fallback_used=True)


def test_exhausted_observations_fall_back():
    cfg = PaulsonConfig(thresholds=(0.0,), delta=0.1, critical_value=1e6)
    res = run_paulson_direct(np.full(30, 2.0), cfg)
    assert res == PaulsonResult(decision=1, stop_n=30, fallback_used=True)
    # A path shorter than the horizon ends at its own length, also on a
    # block edge (16, 32, 256), as under a horizon of that length.  With
    # A = 1e6 every path runs out; with A = 8 the longer ones stop first.
    rng = np.random.default_rng(11)
    for critical_value in (1e6, 8.0):
        cfg = PaulsonConfig(thresholds=(0.0, 1.0), delta=0.1, critical_value=critical_value)
        for length in (1, 15, 16, 17, 32, 33, 255, 256, 257, 300):
            path = rng.normal(0.5, size=length)
            want = paper_direct(path, cfg)
            assert critical_value == 8.0 or (want.stop_n, want.fallback_used) == (length, True)
            for route in ROUTES.values():
                assert route(path, cfg) == route(path, replace(cfg, horizon=length)) == want


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


@pytest.mark.parametrize("route", sorted(ROUTES))
@pytest.mark.parametrize(
    "observations, got",
    [
        ((0.1 * x for x in range(10)), "generator"),
        ([0.1, 0.2, 0.3], "list"),
        (np.zeros((2, 5)), r"\(2, 5\)"),
        (np.float64(0.3), r"\(\)"),
    ],
)
def test_routes_take_a_one_dimensional_array_only(route, observations, got):
    cfg = PaulsonConfig(thresholds=(0.0,), delta=0.1, critical_value=2.0)
    with pytest.raises(ValueError, match=f"observations must be a 1-D array, got {got}"):
        ROUTES[route](observations, cfg)


@pytest.mark.parametrize("route", sorted(ROUTES))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("at", [0, 7, CHUNK + 3])
def test_routes_reject_a_non_finite_observation(route, bad, at):
    # A NaN path used to run to its end and fall back to the top interval.
    cfg = PaulsonConfig(thresholds=(0.0, 1.0), delta=0.15, critical_value=3.0)
    path = np.zeros(2 * CHUNK)
    path[at] = bad
    with pytest.raises(ValueError, match="observations must be finite"):
        ROUTES[route](path, cfg)
    # Only the observations up to the horizon are read.
    if at:
        short = PaulsonConfig(thresholds=(0.0, 1.0), delta=0.15, critical_value=3.0, horizon=at)
        assert ROUTES[route](path, short) == ROUTES[route](path[:at], short)


def test_simulate_observations_is_one_array_of_the_stream():
    generator = RngStream(6, 2).generator()
    path = simulate_observations(0.25, 3 * CHUNK + 5, generator)
    assert isinstance(path, np.ndarray) and path.shape == (3 * CHUNK + 5,)
    assert np.array_equal(path, 0.25 + RngStream(6, 2).generator().standard_normal(3 * CHUNK + 5))


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
@example((0.5, PaulsonConfig((0.0, 1.0), 0.15, 4.0, horizon=17), 3, GROUP + 1, "direct"))
@example((0.5, PaulsonConfig((0.0, 1.0), 0.15, 4.0, horizon=17), 3, GROUP + 1, "stepdown"))
@example((0.45, PaulsonConfig((0.0, 1.0), 0.05, 8.0, horizon=129), 4, GROUP + 1, "direct"))
@example((0.45, PaulsonConfig((0.0, 1.0), 0.05, 8.0, horizon=129), 4, GROUP + 1, "stepdown"))
@example((0.0, PaulsonConfig((0.0, 1.0), 0.02, 40.0, horizon=CHUNK + 17), 5, GROUP + 1, "direct"))
@example((0.0, PaulsonConfig((0.0, 1.0), 0.02, 40.0, horizon=CHUNK + 17), 5, GROUP + 1, "stepdown"))
def test_classify_paths_matches_one_path_loop(case):
    theta, config, seed, reps, method = case
    assert grouped_rows(theta, config, seed, reps, method) == replay_rows(theta, config, seed, reps)


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
    assert rows == replay_rows(theta, config, 11, reps)
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
    with pytest.raises(ValueError, match="seed"):
        classify_paths(0.0, config, 2**64, 5)
    # True used to classify one path, 2.5 to fail with numpy's TypeError.
    for reps in (2.5, 2.0, True):
        with pytest.raises(ValueError, match="reps"):
            classify_paths(0.0, config, 1, reps)
    # A NaN mean used to sample every path to the horizon and return the
    # top interval with the fallback flag.
    for theta in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="theta must be finite"):
            classify_paths(theta, config, 1, 3)


@st.composite
def paper_rule_cases(draw, stop):
    """A config and one path that stops at observation ``stop``, runs to
    the horizon (None), stops on evidence from two blocks ("carry"), or
    is left to stop where it will ("free")."""
    theta, config, seed, _reps, _method = draw(path_group_cases())
    rng = np.random.default_rng(seed)
    if stop == "free":
        return rng.normal(theta, 1.0, config.horizon + 3), config, None
    th = config.thresholds
    if stop == "carry" and len(th) == 1:
        th = (th[0], th[0] + 1.0)
    # With A = 1e4 no target fits for at least 4 * CHUNK observations of
    # a path held near the thresholds.
    config = PaulsonConfig(th, config.delta, 1e4, max(config.horizon, 2 * CHUNK))
    a, half = config.critical_value, config.delta / 2.0
    if stop == "carry":
        # Held at c = theta_top - delta/2, a drop of A at n1 pins v_n at
        # theta_top from then on, which clears the upward test there but
        # no lower one.  A rise at n2, a later block, lifts u_n to the
        # threshold below, so only the interval between them fits, and
        # only with v_n's test remembered from n1's block.
        n1 = draw(st.integers(1, CHUNK))
        n2 = draw(st.integers(CHUNK + 1, config.horizon))
        c = th[-1] - half
        path = np.full(config.horizon, c) + rng.normal(0.0, 1e-4, config.horizon)
        path[n1 - 1] -= a
        path[n2 - 1] += 2 * a + n2 * (th[-2] - th[-1] + 2 * half)
        return path, config, (len(th) - 1, n2, False)
    path = rng.normal(th[0], 0.1, config.horizon)
    if stop is None:
        return path, config, (None, config.horizon, True)
    # A jump of 3e4 at the stop lifts u_n above, or drops v_n below,
    # every widened target there.
    path[stop - 1] = draw(st.sampled_from([3e4, -3e4]))
    return path, config, (None, stop, False)


@pytest.mark.parametrize(
    "stop",
    [1, 15, 16, 17, 31, 32, 33, 127, 128, 129, CHUNK - 1, CHUNK, CHUNK + 1, None, "carry", "free"],
)
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_both_routes_match_the_paper_direct_rule(stop, data):
    path, config, expected = data.draw(paper_rule_cases(stop))
    want = paper_direct(path, config)
    if expected is not None:
        decision, stop_n, fallback = expected
        assert (want.stop_n, want.fallback_used) == (stop_n, fallback)
        assert decision is None or want.decision == decision
    assert run_paulson_direct(path, config) == want
    assert paulson_via_stepdown(path, config) == want


@pytest.mark.parametrize("route", sorted(ROUTES))
@pytest.mark.parametrize("stop", [17, 300, None])
def test_routes_leave_their_input_alone(route, stop):
    # The routes read the caller's array a block at a time and carry each
    # block's running sum into the next; none of that may be written back.
    config = PaulsonConfig((0.0, 1.0), 0.15, 1e4, horizon=2 * CHUNK)
    path = np.random.default_rng(8).normal(0.0, 0.1, config.horizon)
    if stop is not None:
        path[stop - 1] = 3e4
    before = path.copy()
    result = ROUTES[route](path, config)
    assert (result.stop_n, result.fallback_used) == (stop or config.horizon, stop is None)
    assert np.array_equal(path, before)


@settings(max_examples=15, deadline=None)
@given(path_group_cases())
def test_classify_paths_matches_the_paper_direct_rule(case):
    # Row r is what either one-path route, and the paper's rule, decide
    # on the observations path r was dealt.
    theta, config, seed, reps, method = case
    reps = min(reps, 12)
    _rows, observations = dealt_paths(theta, config, seed, reps)
    want = [paper_direct(path, config) for path in observations]
    for route in ROUTES.values():
        assert [route(path, config) for path in observations] == want
    rows = grouped_rows(theta, config, seed, reps, method)
    assert rows == [(w.decision, w.stop_n, w.fallback_used) for w in want]


@pytest.mark.parametrize("horizon", [2.5, True])
def test_simulated_path_length_must_be_an_integer(horizon):
    # A horizon of 2.5 used to draw a path of 2 observations.
    with pytest.raises(ValueError, match="horizon"):
        simulate_observations(0.0, horizon, np.random.default_rng(1))


def test_classify_paths_keys_seeds_above_two_to_the_63_apart():
    config = PaulsonConfig((0.0, 1.0), 0.15, 3.0, horizon=2 * CHUNK)
    rows = [grouped_rows(0.5, config, seed, 12, "direct") for seed in (2**63, 2**63 + 1, 2**64 - 1)]
    assert rows[0] == replay_rows(0.5, config, 2**63, 12)
    assert rows[0] != rows[1] and rows[2] != grouped_rows(0.5, config, 0, 12, "direct")


def test_stream_blocks_reuse_one_generator_as_fresh_ones():
    # One bit generator serves all of a call's groups and passes.  Each
    # pass must draw what a generator built for its group and count
    # would, also after a draw that left part of Philox's four-word
    # buffer unread, and after a pass of another group.
    theta, seed, first = 0.25, 2**63 + 5, GROUP
    next_block = _stream_blocks(theta, seed)
    unread = []
    for start, count, live, size in [(0, 0, 3, 17), (GROUP, 17, 2, 16), (0, 0, 3, 17)]:
        key = np.array([seed, first + start], dtype=np.uint64)
        fresh = np.random.Philox(key=key, counter=[0, count, 0, 0])
        want = np.random.Generator(fresh).standard_normal((live, size)) + theta
        unread.append(4 - fresh.state["buffer_pos"])
        out = np.empty((live, size))
        next_block(first + start, count, out)
        assert np.array_equal(out, want)
    assert unread[0] > 0


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
    # the working set of one group.  33 bytes a path is the growth a
    # 1.25 ratio allowed on a 357 kB peak at 300 paths: 0.25 of it over
    # 2,700 more paths.
    assert peaks[1] - peaks[0] < 33 * (3000 - 300)
    assert peaks[1] < 8 * 2**20


@pytest.mark.parametrize("method", sorted(ROUTES))
def test_classify_paths_rows_do_not_depend_on_later_paths(method):
    # A path's observations depend on its group's lower-indexed paths
    # only, so the rows for fewer paths begin the rows for more, also
    # across a group boundary.
    config = PaulsonConfig((0.0, 1.0), 0.05, 20.0, horizon=2 * CHUNK + 40)
    rows = grouped_rows(0.0, config, 7, 2 * GROUP + 5, method)
    stops = sorted(n for _d, n, _f in rows)
    assert stops[0] < 64 and stops[-2] > CHUNK
    for reps in (1, GROUP - 1, GROUP, GROUP + 1, GROUP + 37, 2 * GROUP):
        assert grouped_rows(0.0, config, 7, reps, method) == rows[:reps]


@pytest.mark.parametrize("horizon", [100, 4 * CHUNK])
@pytest.mark.parametrize("method", sorted(ROUTES))
def test_classify_paths_matches_the_replay_across_wave_boundaries(method, horizon):
    # classify_paths decides a wave of groups side by side and the
    # replay one group at a time, so its rows for n paths are the first
    # n of its rows for more.  Horizon 100 ends inside the block from 64
    # to 128, and some paths run out there.
    config = PaulsonConfig((0.0, 1.0), 0.1, 8.0, horizon=horizon)
    wave = WAVE * GROUP
    want = replay_rows(0.05, config, 7, 2 * wave + 5)
    assert max(n for _d, n, _f in want) > 64
    assert (horizon == 100) == any(f and n == horizon for _d, n, f in want)
    for reps in (wave - 1, wave, wave + 1, 2 * wave + 5):
        assert grouped_rows(0.05, config, 7, reps, method) == want[:reps]


def _block_counts(horizon):
    # The observation counts at which blocks start, as _decide cuts them.
    counts = [0]
    while counts[-1] < horizon:
        count = counts[-1]
        counts.append(count + min(max(count, 16), CHUNK, horizon - count))
    return counts[:-1]


@pytest.mark.parametrize(
    "config, theta",
    [
        # Paths that thin out over several blocks.
        (PaulsonConfig((0.0, 1.0), 0.02, 40.0, horizon=4 * CHUNK + 40), 0.0),
        # Most paths stop in the first block.
        (PaulsonConfig((0.0, 1.0, 2.0), 0.15, 3.0, horizon=100), 1.5),
    ],
)
def test_classify_paths_fills_each_pass_to_its_buffers(monkeypatch, config, theta):
    # Records each pass: the draws of its groups, then its kernel call.
    passes, draws = [], []
    stream, kernel = paulson._stream_blocks, _ROUTES["direct"]

    def recording_stream(mean, seed):
        next_block = stream(mean, seed)

        def record(first, count, out):
            draws.append((first, count) + out.shape)
            return next_block(first, count, out)

        return record

    def recording_kernel(s, *args):
        passes.append((draws[:], s.shape))
        draws.clear()
        kernel(s, *args)

    monkeypatch.setattr(paulson, "_stream_blocks", recording_stream)
    monkeypatch.setitem(_ROUTES, "direct", recording_kernel)
    reps = WAVE * GROUP + 300
    _decision, stop_n, _fallback = classify_paths(theta, config, 5, reps, "direct")
    cells = min(GROUP, reps) * min(CHUNK, config.horizon)
    # Every block fits the buffers, and its rows are its groups' draws.
    for run, (rows, width) in passes:
        assert rows * width <= cells
        assert sum(live for _first, _count, live, _size in run) == rows
        assert {size for _first, _count, _live, size in run} == {width}
    # Each group with live paths at a count draws once then, for all of
    # them: a path is live at count c while its stopping time is past c.
    drawn = [(first, count, live) for run, _shape in passes for first, count, live, _size in run]
    live_groups = [
        (first, count, int((stop_n[first : first + GROUP] > count).sum()))
        for first in range(0, reps, GROUP)
        for count in _block_counts(config.horizon)
    ]
    assert sorted(drawn) == [entry for entry in live_groups if entry[2]]
    # A run ends only where its wave's next group at that count would
    # not fit beside it.
    cut = 0
    for (run, (rows, width)), (after, _shape) in zip(passes, passes[1:]):
        first, count, live, _size = after[0]
        if count == run[0][1] and first // (WAVE * GROUP) == run[0][0] // (WAVE * GROUP):
            assert first > run[-1][0]
            assert (rows + live) * width > cells
            cut += 1
    assert cut and any(len(run) > 1 for run, _shape in passes)


def _one_sided_statistics(s, m, config):
    # Each route's one-sided statistic at its one threshold, as Python
    # floats rounded in the documented order and in a reordering of it,
    # with the comparison that rejects and its bound, per (route, side).
    (theta,), half, a = config.thresholds, config.delta / 2.0, config.critical_value
    return {
        ("direct", 0): ((s / m - half) - a / m, (s / m - a / m) - half, ge, theta - config.delta),
        ("direct", 1): ((s / m + half) + a / m, (s / m + a / m) + half, le, theta + config.delta),
        ("stepdown", 0): (s - m * (theta - half), (s - m * theta) + m * half, ge, a),
        ("stepdown", 1): (s - m * (theta + half), (s - m * theta) - m * half, le, -a),
    }


def _rounding_ties(config, route, side, count=4):
    # The first count (s, m) where the two orders of a test's statistic
    # straddle its bound, searched over m = 1, 2, ... and the 33 floats
    # around the side's real tie, s = a + m (theta - delta/2) for the
    # downward test and m (theta + delta/2) - a for the upward one.
    (theta,), half, a = config.thresholds, config.delta / 2.0, config.critical_value
    found = []
    for m in range(1, 1000):
        tie = a + m * (theta - half) if side == 0 else m * (theta + half) - a
        for k in range(-16, 17):
            s = tie + k * math.ulp(tie)
            doc, alt, rejects, bound = _one_sided_statistics(s, float(m), config)[route, side]
            if rejects(doc, bound) != rejects(alt, bound):
                found.append((s, float(m)))
                if len(found) == count:
                    return found
    raise AssertionError(f"{route} side {side}: only {len(found)} rounding ties found")


@pytest.mark.parametrize("side", [0, 1])
@pytest.mark.parametrize("route", sorted(ROUTES))
def test_kernels_round_in_the_documented_order(route, side):
    # The same-bytes claims for the routes rest on each kernel's rounding
    # order, which moves a decision only at a tie: at ties, each kernel's
    # flags follow the documented order, not the reordering.
    config = PaulsonConfig(thresholds=(0.3,), delta=0.2, critical_value=2.7)
    for s, m in _rounding_ties(config, route, side):
        doc, alt, rejects, bound = _one_sided_statistics(s, m, config)[route, side]
        tests = np.empty((2, 1, 1, 1), dtype=bool)
        _ROUTES[route](np.array([[s]]), np.array([m]), config, tests, np.empty((3, 1, 1)))
        assert tests[side, 0, 0, 0] == rejects(doc, bound) != rejects(alt, bound)


def test_routes_split_at_a_rounding_tie():
    # The routes agree path for path except at a rounding tie of a
    # one-sided test.  Here A = 0.15000000000000002 and, at n = 1, the
    # direct rule's v_1 = (-0.1 + delta/2) + A rounds to 0.10000000000000002,
    # above theta + delta, while the step-down statistic -0.1 - delta/2
    # rounds onto -A, so its upward test rejects one observation sooner.
    config = PaulsonConfig(thresholds=(0.0,), delta=0.1, critical_value=0.1 * 3 / 2)
    path = np.full(8, -0.1)
    assert run_paulson_direct(path, config) == PaulsonResult(0, 2, False)
    assert paper_direct(path, config) == PaulsonResult(0, 2, False)
    assert paulson_via_stepdown(path, config) == PaulsonResult(0, 1, False)


def _sure_stop(config):
    # Every path stops by observation ceil(2A/delta): there (u_n, v_n) is
    # at most 2 delta wide, and an interval that wide fits some widened
    # target.  Where 2A/delta is an integer up to rounding, the width
    # bound holds with equality, and rounding can leave the interval
    # astride a target's end for one observation more (the cases in
    # test_rounding_can_take_one_observation_past_two_a_over_delta).
    ratio = 2.0 * config.critical_value / config.delta
    if math.isclose(ratio, round(ratio), rel_tol=1e-9):
        return round(ratio) + 1
    return math.ceil(ratio)


@st.composite
def sure_stop_cases(draw):
    k1 = draw(st.integers(1, 4))
    delta = draw(st.one_of(st.sampled_from([0.05, 0.1, 0.2, 0.25, 0.3, 0.5]), st.floats(0.02, 0.5)))
    gaps = draw(st.lists(st.floats(1.05 * delta, 2.0), min_size=k1 - 1, max_size=k1 - 1))
    thresholds = [draw(st.floats(-2.0, 2.0))]
    for gap in gaps:
        thresholds.append(thresholds[-1] + gap)
    # About half the cases put 2A/delta on an integer, where the bound is tight.
    critical_value = draw(
        st.one_of(st.integers(1, 80).map(lambda n: delta * n / 2.0), st.floats(0.05, 8.0))
    )
    horizon = draw(st.one_of(st.just(100_000), st.integers(1, 200)))
    config = PaulsonConfig(tuple(thresholds), delta, critical_value, horizon)
    # On a threshold or at a widened target's end, where paths stop last.
    theta = draw(st.sampled_from(thresholds)) + draw(st.sampled_from([0.0, delta, -delta]))
    return theta, config


@settings(max_examples=60, deadline=None)
@given(sure_stop_cases(), st.integers(0, 2**32), st.sampled_from([0.0, 1e-12, 1.0]))
def test_every_path_stops_by_two_a_over_delta(case, seed, noise):
    theta, config = case
    bound = min(config.horizon, _sure_stop(config))
    for method in sorted(ROUTES):
        _decision, stop_n, _fallback = classify_paths(theta, config, seed, 50, method)
        assert stop_n.max() <= bound
    # A path with no noise sits exactly on theta, the slowest to decide.
    path = theta + noise * np.random.default_rng(seed).standard_normal(_sure_stop(config) + 2)
    for route in ROUTES.values():
        assert route(path, config).stop_n <= bound


@pytest.mark.parametrize(
    "route, config, theta",
    [
        ("direct", PaulsonConfig((-0.8,), 0.1, 0.2), -0.8),
        ("stepdown", PaulsonConfig((1.0,), 0.05, 0.225), 1.0),
    ],
)
def test_rounding_can_take_one_observation_past_two_a_over_delta(route, config, theta):
    # 2A/delta is 4 and 9: a constant path on the threshold stops one
    # observation later, though in exact arithmetic it stops there.
    ratio = round(2.0 * config.critical_value / config.delta)
    assert ROUTES[route](np.full(20, theta), config).stop_n == ratio + 1
