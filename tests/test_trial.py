import math

import numpy as np
import pytest
from scipy import stats as scipy_stats

from stepdown.core import SampleSchedule
from stepdown.harness import ScenarioSpec
from stepdown.trial import (
    KEY_BLOCK,
    RngStream,
    _binomial_cdf,
    check_seed,
    ScenarioParams,
    draw_replicates,
    generate_paths,
    paths_from_draws,
    philox,
)

SCHED = SampleSchedule((26, 29, 35))


def simulate(params, seed, rep_range, schedule=SCHED, **kwargs):
    """Sums and statistics of replicates lo <= r < hi, each (hi - lo, 3, looks)."""
    z, u = draw_replicates(seed, rep_range, len(schedule))
    return paths_from_draws(params, schedule, z, u, **kwargs)


def one_replicate(params, stream, **kwargs):
    """Sums and statistics of one replicate, each (3, looks)."""
    r = stream.replicate
    sums, values = simulate(params, stream.master_seed, (r, r + 1), **kwargs)
    return sums[0], values[0]


def test_scenario_truth_flags():
    assert ScenarioParams(0.0, 0.0, 0.5).truth == (True, True, True)
    assert ScenarioParams(0.0, 0.5, 0.75).truth == (True, False, False)
    assert ScenarioParams(0.5, 0.5, 0.75).truth == (False, False, False)
    assert ScenarioParams(-0.2, 0.0, 0.4).truth == (True, True, True)


def test_scenario_validation():
    with pytest.raises(ValueError, match="probability"):
        ScenarioParams(0.0, 0.0, 1.2)
    with pytest.raises(ValueError, match="correlation"):
        ScenarioParams(0.0, 0.0, 0.5, rho12=1.5)


def test_scenario_label():
    assert ScenarioParams(0.0, 0.0, 0.5).label() == "(0,0,.5)"
    assert ScenarioParams(0.4, 0.4, 0.75).label() == "(.4,.4,.75)"
    assert ScenarioParams(0.0, 0.5, 0.75, rho12=0.75).label() == "(0,.5,.75,.75)"


def test_gaussian_statistic():
    # S_n / sqrt(n), recomputed from the recorded sums.
    sums, values = one_replicate(ScenarioParams(0.3, -0.2, 0.6), RngStream(9, 5))
    for e in (0, 1):
        for j, n in enumerate(SCHED):
            assert values[e, j] == pytest.approx(sums[e, j] / math.sqrt(n))


def test_binary_statistic():
    # (S_n - n/2) / sqrt(n/4): the count centered and scaled under p = 1/2.
    # Every trial a success: 26 successes sit 13 above the null center,
    # scaled by sqrt(26/4), which is sqrt(26).
    full = generate_paths(ScenarioParams(0.0, 0.0, 1.0), SCHED, RngStream(3, 0))
    assert full.values[2, 0] == pytest.approx((26.0 - 13.0) / math.sqrt(6.5))
    assert full.values[2, 0] == pytest.approx(math.sqrt(26.0))


def test_binary_statistic_continuity_correction():
    params = ScenarioParams(0.0, 0.5, 0.75)
    plain_sums, plain = one_replicate(params, RngStream(4, 2))
    corrected_sums, corrected = one_replicate(params, RngStream(4, 2), continuity_correction=True)
    ns = np.asarray(SCHED.analyses, dtype=float)
    assert np.array_equal(plain_sums, corrected_sums)
    assert np.array_equal(plain[:2], corrected[:2])
    assert corrected[2] == pytest.approx(plain[2] - 0.5 / np.sqrt(ns / 4.0))
    assert np.all(corrected[2] < plain[2])


def test_rng_stream_validation():
    with pytest.raises(ValueError):
        RngStream(-1, 0)
    with pytest.raises(ValueError):
        RngStream(1, -1)


def test_generate_paths_deterministic():
    params = ScenarioParams(0.0, 0.5, 0.75)
    a = generate_paths(params, SCHED, RngStream(1, 42))
    b = generate_paths(params, SCHED, RngStream(1, 42))
    assert np.array_equal(a.values, b.values)
    a_sums, _ = one_replicate(params, RngStream(1, 42))
    b_sums, _ = one_replicate(params, RngStream(1, 42))
    assert np.array_equal(a_sums, b_sums)
    c = generate_paths(params, SCHED, RngStream(1, 43))
    assert not np.array_equal(a.values, c.values)
    d = generate_paths(params, SCHED, RngStream(2, 42))
    assert not np.array_equal(a.values, d.values)


def test_generate_paths_consistent_with_compute_statistic():
    # Each recorded statistic is its endpoint's formula applied to the
    # recorded sum: S_n / sqrt(n) for the Gaussian endpoints and
    # (S_n - n/2) / sqrt(n/4) for the binary one.
    params = ScenarioParams(0.3, -0.2, 0.6)
    sums, values = one_replicate(params, RngStream(9, 5))
    for e in range(3):
        for j, n in enumerate(SCHED):
            s = sums[e, j]
            expect = s / math.sqrt(n) if e < 2 else (s - n / 2.0) / math.sqrt(n / 4.0)
            assert values[e, j] == pytest.approx(expect)


def test_generate_paths_degenerate_probability():
    sums, _ = one_replicate(ScenarioParams(0.0, 0.0, 1.0), RngStream(3, 0))
    assert np.array_equal(sums[2], np.array([26.0, 29.0, 35.0]))
    none, _ = one_replicate(ScenarioParams(0.0, 0.0, 0.0), RngStream(3, 0))
    assert np.array_equal(none[2], np.zeros(3))


def test_generate_paths_moments():
    # Check the simulated location, scale, and correlation against the
    # declared parameters at the final analysis.
    params = ScenarioParams(0.5, 0.2, 0.7, rho12=0.75)
    reps = 4000
    sums, values = simulate(params, 123, (0, reps))
    t1, t2, s3 = values[:, 0, -1], values[:, 1, -1], sums[:, 2, -1]
    n = 35
    # S_n / sqrt(n) has mean mu * sqrt(n) and unit variance.
    assert t1.mean() == pytest.approx(0.5 * math.sqrt(n), abs=4.0 / math.sqrt(reps))
    assert t2.mean() == pytest.approx(0.2 * math.sqrt(n), abs=4.0 / math.sqrt(reps))
    assert t1.std() == pytest.approx(1.0, abs=0.05)
    assert t2.std() == pytest.approx(1.0, abs=0.05)
    r12 = np.corrcoef(t1, t2)[0, 1]
    assert r12 == pytest.approx(0.75, abs=0.03)
    assert s3.mean() == pytest.approx(0.7 * n, abs=4.0 * math.sqrt(n * 0.21 / reps))


def test_zero_correlation_leaves_second_endpoint_independent():
    params = ScenarioParams(0.0, 0.0, 0.5, rho12=0.0)
    t1 = np.empty(2000)
    t2 = np.empty(2000)
    for r in range(2000):
        paths = generate_paths(params, SCHED, RngStream(77, r))
        t1[r], t2[r] = paths.values[0, -1], paths.values[1, -1]
    assert abs(np.corrcoef(t1, t2)[0, 1]) < 0.06


def test_correlation_does_not_change_first_endpoint():
    # The correlation factor feeds the shared draw into the second
    # endpoint only, so the first endpoint's path is identical under any
    # correlation with the same stream.
    flat = generate_paths(ScenarioParams(0.0, 0.5, 0.75, rho12=0.0), SCHED, RngStream(5, 9))
    tilted = generate_paths(
        ScenarioParams(0.0, 0.5, 0.75, rho12=0.75), SCHED, RngStream(5, 9)
    )
    assert np.array_equal(flat.values[0], tilted.values[0])
    assert not np.array_equal(flat.values[1], tilted.values[1])
    assert np.array_equal(flat.values[2], tilted.values[2])


@pytest.mark.parametrize("seed", [0, 1, 2**32 + 7, 2**63 - 1])
def test_seeds_below_two_to_the_63_keep_their_streams(seed):
    # The streams a plain [seed, r] key gave before seeds were keyed as
    # uint64 words.
    want = np.random.Generator(np.random.Philox(key=[seed, 5])).standard_normal(8)
    assert np.array_equal(RngStream(seed, 5).generator().standard_normal(8), want)


def test_every_seed_below_two_to_the_64_has_its_own_stream():
    seeds = (0, 2**63 - 1, 2**63, 2**63 + 1, 2**64 - 1)
    draws = {RngStream(seed, 0).generator().standard_normal(4).tobytes() for seed in seeds}
    assert len(draws) == len(seeds)
    params, schedule = ScenarioParams(0.2, 0.0, 0.5), SampleSchedule((5, 9))
    for seed in seeds[2:]:
        sums, values = simulate(params, seed, (3, 5), schedule)
        single = generate_paths(params, schedule, RngStream(seed, 4))
        assert np.array_equal(values[1], single.values)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_out_of_range_seeds_are_rejected(seed):
    params, schedule = ScenarioParams(0.0, 0.0, 0.5), SampleSchedule((5,))
    with pytest.raises(ValueError, match="seed"):
        RngStream(seed, 0)
    with pytest.raises(ValueError, match="seed"):
        draw_replicates(seed, (0, 2), len(schedule))
    with pytest.raises(ValueError, match="seed"):
        ScenarioSpec(params=params, schedule=schedule, master_seed=seed)


@pytest.mark.parametrize("seed", [1.5, 1.0, True, "1", None])
def test_non_integer_seeds_are_rejected(seed):
    # 1.5 would otherwise be keyed as 1, sharing that seed's streams.
    with pytest.raises(ValueError, match="seed must be an integer"):
        check_seed(seed)
    with pytest.raises(ValueError, match="seed"):
        RngStream(seed, 0)


@pytest.mark.parametrize("seed", [7, np.int64(7), np.uint64(7), np.uint64(2**64 - 1)])
def test_integer_seeds_of_numpy_types_are_accepted(seed):
    assert check_seed(seed) == seed
    want = np.random.Generator(philox(int(seed), 3)).standard_normal(4)
    assert np.array_equal(RngStream(seed, 3).generator().standard_normal(4), want)


@pytest.mark.parametrize("replicate", [1.5, 1.0, True])
def test_replicate_index_must_be_a_nonnegative_integer(replicate):
    # RngStream(1, 1.5) and RngStream(1, True) used to draw RngStream(1, 1)'s stream.
    with pytest.raises(ValueError, match="replicate index"):
        RngStream(1, replicate)


@pytest.mark.parametrize("rep_range", [(0.5, 2), (0, 2.5), (-1, 2), (3, 2)])
def test_draw_replicates_takes_a_range_of_indices(rep_range):
    # (0.5, 2) used to reach numpy and fail with a TypeError.
    with pytest.raises(ValueError, match="rep_range"):
        draw_replicates(1, rep_range, 5)


@pytest.mark.parametrize(
    "rep_range", [(0, 1), (5, 9), (KEY_BLOCK - 3, KEY_BLOCK + 2), (1, 2 * KEY_BLOCK + 1)]
)
def test_a_replicate_reads_its_row_of_its_key_block(rep_range):
    # Key block b draws (KEY_BLOCK, 2, looks) normals, then (KEY_BLOCK,
    # looks) uniforms; replicate r reads row r % KEY_BLOCK of block r // KEY_BLOCK.
    seed, looks = 2**63 + 5, 4
    z, u = draw_replicates(seed, rep_range, looks)
    for i, r in enumerate(range(*rep_range)):
        rng = np.random.Generator(philox(seed, r // KEY_BLOCK))
        assert np.array_equal(z[i], rng.standard_normal((KEY_BLOCK, 2, looks))[r % KEY_BLOCK])
        assert np.array_equal(u[i], rng.random((KEY_BLOCK, looks))[r % KEY_BLOCK])


@pytest.mark.parametrize("n", [1, 3, 26, 35, 1000, 131_072])
@pytest.mark.parametrize("p", [0.0, 1e-9, 0.3, 0.5, 0.75, 1.0 - 1e-9, 1.0])
def test_binomial_cdf_matches_scipy(n, p):
    cdf = _binomial_cdf(n, p)
    assert cdf.shape == (n,) and not cdf.flags.writeable
    assert np.allclose(cdf, scipy_stats.binom.cdf(np.arange(n), n, p), rtol=1e-12, atol=1e-14)


def simulate_counts(p, u, schedule):
    """The binary endpoint's success counts at each look for the uniforms u."""
    z = np.zeros((len(u), 2, len(schedule)))
    sums, _ = paths_from_draws(ScenarioParams(0.0, 0.0, p), schedule, z, u)
    return sums[:, 2]


def test_binary_counts_rise_with_the_success_rate():
    # Common random numbers: one uniform never gives fewer successes at a
    # higher rate, and rates 0 and 1 give none and every one.
    u = np.random.default_rng(5).random((2000, 1))
    schedule = SampleSchedule((6,))
    counts = [
        simulate_counts(p, u, schedule) for p in (0.0, 0.1, 0.3, 0.5, 0.5000001, 0.75, 0.9, 1.0)
    ]
    assert counts[0].max() == 0 and counts[-1].min() == 6
    for low, high in zip(counts, counts[1:]):
        assert np.all(low <= high)
