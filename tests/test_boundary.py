import itertools
import math
import pickle
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import optimize

import stepdown.boundary
from stepdown.boundary import (
    _GRID_CAP,
    _SPAN_SD,
    MAX_GRID_POINTS,
    CalibrationError,
    CriticalFunction,
    GridError,
    _look_grids,
    _valid_convolution,
    calibrate_levels,
    crossing_probability,
    normal_quantile,
    shape_multipliers,
)
from stepdown.core import SampleSchedule

SCHED = SampleSchedule((26, 29, 35))

# Quantiles pinned by a 40-digit bisection oracle run against an
# independent erfc-based normal CDF.
QUANTILE_ORACLE = {
    0.975: 1.95996398454005,
    0.95: 1.64485362695147,
    0.995: 2.5758293035489,
    1.0 - 0.05 / 3.0: 2.12804523418498,
}


def test_normal_quantile_against_oracle():
    assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-12)
    for q, z in QUANTILE_ORACLE.items():
        assert normal_quantile(q) == pytest.approx(z, abs=1e-9)


def test_normal_quantile_domain():
    for bad in (0.0, 1.0, -0.2, 1.0001):
        with pytest.raises(ValueError):
            normal_quantile(bad)


def test_shape_multipliers():
    flat = shape_multipliers("flat", SCHED)
    assert np.all(flat == 1.0)
    obf = shape_multipliers("obrien-fleming", SCHED)
    assert obf == pytest.approx(np.sqrt(35.0 / np.array([26.0, 29.0, 35.0])))
    with pytest.raises(ValueError):
        shape_multipliers("triangular", SCHED)


def test_crossing_single_analysis_is_exact_tail():
    # With one look the crossing event is a plain normal tail; the grid
    # reproduces it to a few parts in a million.
    for rho in (0.05, 0.025, 0.05 / 3.0):
        b = normal_quantile(1.0 - rho)
        p = crossing_probability(SampleSchedule((17,)), [b])
        assert p == pytest.approx(rho, abs=5e-5)


def test_crossing_unreachable_boundary():
    p = crossing_probability(SCHED, [1e6, 1e6, 1e6])
    assert p == pytest.approx(0.0, abs=1e-12)


def test_crossing_regression_lock():
    # Frozen from this integrator at the default grid and confirmed by a
    # seeded 10^6-path Monte Carlo oracle (0.037447, within 0.7 SE) and by
    # the multivariate normal CDF (0.0373044).
    p = crossing_probability(SCHED, [2.0, 2.0, 2.0])
    assert p == pytest.approx(0.03731470415587557, abs=1e-12)


def test_crossing_monte_carlo_oracle():
    p = crossing_probability(SCHED, [2.0, 2.0, 2.0])
    rng = np.random.Generator(np.random.Philox(key=[20260814, 0]))
    hits = 0
    reps = 1_000_000
    block = 100_000
    ns = np.array([26, 29, 35])
    for _ in range(reps // block):
        s = np.cumsum(rng.standard_normal((block, 35)), axis=1)
        t = s[:, ns - 1] / np.sqrt(ns)
        hits += int(np.any(t >= 2.0, axis=1).sum())
    pmc = hits / reps
    se = np.sqrt(pmc * (1.0 - pmc) / reps)
    assert abs(p - pmc) <= 3.0 * se


def test_crossing_grid_refinement():
    coarse = crossing_probability(SCHED, [2.0, 2.0, 2.0])
    fine = crossing_probability(SCHED, [2.0, 2.0, 2.0], grid_points=1024)
    assert abs(fine - coarse) < 1e-5


def test_crossing_monotone_in_boundary():
    lo = crossing_probability(SCHED, [1.8, 1.8, 1.8])
    hi = crossing_probability(SCHED, [2.2, 2.2, 2.2])
    assert lo > hi


def test_crossing_requires_full_boundary():
    with pytest.raises(ValueError):
        crossing_probability(SCHED, [2.0, 2.0])


@pytest.mark.parametrize("look", range(3))
def test_crossing_rejects_nan_boundary(look):
    # A NaN once made the grid NaN, and the clamp to [0, 1] turned the
    # result into a crossing probability of 0.0.
    b = [2.0, 2.0, 2.0]
    b[look] = float("nan")
    with pytest.raises(ValueError, match=r"boundary \[.*nan.*\] must not contain NaN"):
        crossing_probability(SCHED, b)


def test_crossing_keeps_infinite_boundary_values():
    # +inf never crosses at that look, -inf always crosses.
    never = crossing_probability(SCHED, [2.0, math.inf, 2.0])
    assert never < crossing_probability(SCHED, [2.0, 2.0, 2.0])
    assert crossing_probability(SCHED, [math.inf] * 3) == pytest.approx(0.0, abs=1e-12)
    assert crossing_probability(SCHED, [2.0, -math.inf, 2.0]) == 1.0


def test_calibrate_single_analysis_matches_quantile():
    # One look reduces calibration to the normal quantile, up to the
    # declared integration tolerance.
    crit = calibrate_levels(SampleSchedule((17,)), [0.05])
    assert crit.table[0.05][-1] == pytest.approx(1.64485362695147, abs=2e-4)
    crit3 = calibrate_levels(SampleSchedule((17,)), [0.05 / 3.0])
    assert crit3.table[0.05 / 3.0][-1] == pytest.approx(2.12804523418498, abs=2e-4)


def test_calibrate_multi_look_inflates_constant():
    crit = calibrate_levels(SCHED, [0.05])
    c = crit.table[0.05][-1]
    assert c > 1.644854
    # Regression lock for the default grid.
    assert c == pytest.approx(1.8648004893690355, abs=1e-10)


@pytest.mark.parametrize("shape", stepdown.boundary.SHAPES)
@pytest.mark.parametrize("analyses", [(17,), (26, 29, 35), (20, 28, 37, 50, 66)])
def test_last_critical_value_is_the_constant(shape, analyses):
    # Both shapes have g = 1 at the last analysis, so a calibrated row is
    # its last value times the shape's multipliers, bit for bit: the last
    # critical value is the level's boundary constant.
    levels = [0.9, 0.05, 0.01, 1e-3, 1e-4, 1e-5, 1e-6]
    crit = calibrate_levels(analyses, levels, shape)
    g = shape_multipliers(shape, analyses)
    assert g[-1] == 1.0
    for rho in levels:
        row = crit.table[rho]
        assert row == tuple(float(v) for v in row[-1] * g)


def test_calibrate_hits_target_level():
    levels = [0.05, 0.025, 0.05 / 2.0, 0.05 / 3.0]
    crit = calibrate_levels(SCHED, levels)
    for rho in levels:
        achieved = crossing_probability(SCHED, crit.boundary(rho))
        assert achieved == pytest.approx(rho, abs=2e-4)
        # The doubled-grid check's value is kept per level.
        doubled = crossing_probability(SCHED, crit.boundary(rho), grid_points=1024)
        assert crit.achieved[rho] == doubled


@pytest.mark.parametrize(
    "analyses, shape, levels",
    [
        ((26, 29, 35), "flat", (0.05, 0.025, 0.05 / 3.0)),
        ((20, 28, 37, 50, 66), "obrien-fleming", (0.05, 1e-6)),
        ((40,), "flat", (0.05, 1e-6)),
    ],
)
def test_achieved_less_rho_is_the_grid_refinement_gap(analyses, shape, levels):
    # The root search stops once a step is at most 1e-10 + 1e-12 |c|, so
    # the constant lies that close to the root on the solve grid, and the
    # crossing probability moves at most sum_j g_j phi(c g_j) <= sum_j g_j
    # / sqrt(2 pi) per unit of c; a few ulps of 1 per look cover the
    # recursion's rounding.  So the solve grid gives rho to within that
    # bound, and achieved - rho, taken on the doubled grid, is the two
    # grids' gap to within it.
    crit = calibrate_levels(analyses, levels, shape)
    g_sum = float(shape_multipliers(shape, analyses).sum())
    for rho in levels:
        row = crit.boundary(rho)
        bound = g_sum / math.sqrt(2.0 * math.pi) * (1e-10 + 1e-12 * abs(row[-1]))
        bound += 8 * len(analyses) * 2.0**-52
        solve = crossing_probability(analyses, row)
        doubled = crossing_probability(analyses, row, grid_points=1024)
        assert abs(solve - rho) <= bound
        assert crit.achieved[rho] == doubled


def test_calibrated_boundary_monotone_in_level():
    crit = calibrate_levels(SCHED, [0.05, 0.025, 0.05 / 3.0])
    for j in range(len(SCHED)):
        assert crit.boundary(0.05 / 3.0)[j] > crit.boundary(0.025)[j] > crit.boundary(0.05)[j]


def test_calibrate_obrien_fleming_shape():
    crit = calibrate_levels(SCHED, [0.05], "obrien-fleming")
    b = crit.boundary(0.05)
    # O'Brien-Fleming boundaries start high and fall toward the horizon.
    assert b[0] > b[1] > b[2]
    assert crossing_probability(SCHED, b) == pytest.approx(0.05, abs=2e-4)


def test_external_table_and_level_lookup():
    crit = CriticalFunction(SCHED, {0.05: (2.0, 2.0, 1.9)})
    assert crit.boundary(0.05)[2] == 1.9
    assert crit.boundary(0.05000000000000001)[0] == 2.0  # tolerant lookup
    with pytest.raises(KeyError):
        crit.boundary(0.01)


def test_table_must_be_monotone_in_level():
    with pytest.raises(ValueError, match="non-increasing"):
        CriticalFunction(SCHED, {0.05: (2.5, 2.5, 2.5), 0.025: (2.0, 2.0, 2.0)})


def test_table_levels_are_checked_as_calibration_levels():
    # Two levels a lookup cannot tell apart would make boundary() pick
    # one of them silently.
    twin = math.nextafter(0.05, 1.0)
    with pytest.raises(ValueError, match=f"levels 0.05 and {twin!r} name the same level"):
        CriticalFunction(SCHED, {0.05: (2.0, 2.0, 2.0), twin: (2.0, 2.0, 2.0)})
    with pytest.raises(ValueError, match="between 0 and 1, got 1.5"):
        CriticalFunction(SCHED, {1.5: (2.0, 2.0, 2.0)})


def test_table_needs_a_level_and_a_value_per_analysis():
    with pytest.raises(ValueError, match="critical table must contain at least one level"):
        CriticalFunction((26, 29), {})
    message = "level 0.05 needs one critical value per analysis (2), got 1"
    with pytest.raises(ValueError, match=re.escape(message)):
        CriticalFunction((26, 29), {0.05: (2.0,)})


def test_table_rejects_nan():
    with pytest.raises(ValueError, match="NaN"):
        CriticalFunction(SCHED, {0.05: (2.0, float("nan"), 1.9)})
    with pytest.raises(ValueError, match="NaN"):
        CriticalFunction(SCHED, {0.05: (float("nan"),) * 3})


def test_table_is_read_only_and_pickles_through_the_constructor():
    crit = calibrate_levels(SCHED, [0.05, 0.025])
    for mapping in (crit.table, crit.achieved):
        with pytest.raises(TypeError):
            mapping[0.025] = (9.0, 9.0, 9.0)
    copy = pickle.loads(pickle.dumps(crit))
    assert copy == crit
    assert copy.table == crit.table and list(copy.table) == list(crit.table)
    assert copy.achieved == crit.achieved
    with pytest.raises(TypeError):
        copy.table[0.05] = (float("nan"),) * 3
    outside = CriticalFunction(SCHED, {0.05: (2.0, 2.0, 1.9)})
    assert pickle.loads(pickle.dumps(outside)) == outside
    # Unpickling reruns the constructor's checks.
    object.__setattr__(outside, "table", {0.05: (float("nan"),) * 3})
    with pytest.raises(ValueError, match="NaN"):
        pickle.loads(pickle.dumps(outside))


def test_grid_points_checked_before_integration(monkeypatch):
    def no_integration(*args):
        raise AssertionError("the grid size must be checked before integrating")

    monkeypatch.setattr(stepdown.boundary, "_crossing_rows", no_integration)
    # 512.5 used to reach numpy and fail with a TypeError.
    for bad in (3, 7, 4097, 100_000, 512.5, 512.0):
        with pytest.raises(ValueError, match="grid_points"):
            calibrate_levels(SCHED, [0.05], grid_points=bad)
        with pytest.raises(ValueError, match="grid_points"):
            crossing_probability(SCHED, [2.0, 2.0, 2.0], grid_points=bad)


def test_grid_error_when_tolerance_unmeetable():
    with pytest.raises(GridError):
        calibrate_levels(SCHED, [0.05], grid_points=12)
    # On the coarsest grid, doubling the points moves P by 0.0411.
    with pytest.raises(GridError, match=r"moved the crossing probability by 0\.0411, beyond"):
        crossing_probability(SCHED, (2.0, 2.0, 2.0), grid_points=8, tol=1e-12)


def test_grid_error_when_a_small_level_misses_by_a_large_factor():
    # On its own doubled grid this boundary crosses with probability
    # 3.2e-9: within the absolute 1e-4 of the level 1e-6, but 0.997 of
    # the level off.
    with pytest.raises(GridError, match=r"off by 9\.97e-07 \(0\.997 relative;"):
        calibrate_levels(SCHED, [1e-6], grid_points=32)


def test_unbracketable_level_raises_calibration_error():
    # Even at c = 10 the recursion floors near 3.4e-15, so no constant in
    # the bracket reaches this level.
    with pytest.raises(CalibrationError, match=r"\[-10, 10\] calibrates level 1e-30"):
        calibrate_levels(SCHED, [1e-30])


def test_a_root_search_that_does_not_settle_raises_calibration_error(monkeypatch):
    # One step cannot settle level 0.05 on this schedule.
    monkeypatch.setattr(stepdown.boundary, "_MAX_STEPS", 1)
    with pytest.raises(
        CalibrationError,
        match=r"\[-10, 10\] calibrates level 0\.05: the root search did not settle in 1 steps$",
    ):
        calibrate_levels(SCHED, [0.05])


def test_calibration_evaluates_each_constant_once_per_grid(monkeypatch):
    # The root search never steps back to a constant it has evaluated, and
    # the doubled-grid check evaluates the returned one once.
    calls = []
    original = stepdown.boundary._crossing_rows

    def recorded(analyses, bounds, grid_points):
        calls.extend((tuple(b), grid_points) for b in bounds.tolist())
        return original(analyses, bounds, grid_points)

    monkeypatch.setattr(stepdown.boundary, "_crossing_rows", recorded)
    for rho in (0.05 / 3.0, 0.05 / 2.0, 0.05):
        calls.clear()
        calibrate_levels(SCHED, [rho])
        assert len(set(calls)) == len(calls)
        assert {grid for _, grid in calls} == {512, 1024}


def _count_recursions(monkeypatch):
    # Each row of a _crossing_rows call counts as one recursion.
    grids = []
    original = stepdown.boundary._crossing_rows

    def counted(analyses, bounds, grid_points):
        grids.extend([grid_points] * len(bounds))
        return original(analyses, bounds, grid_points)

    monkeypatch.setattr(stepdown.boundary, "_crossing_rows", counted)
    return grids


def _solve(analyses, g, rho, grid_points):
    # One level's root search, driven as calibrate_levels drives it.
    (c,) = stepdown.boundary._solve_constants(analyses, g, [rho], grid_points)
    if isinstance(c, CalibrationError):
        raise c
    return c


def test_calibration_recursion_budget(monkeypatch):
    # table1's three levels: brentq made 43 recursions on the grid, the
    # quantile-scale secant makes 4 per level, and the doubled-grid check
    # adds one per level.
    grids = _count_recursions(monkeypatch)
    calibrate_levels(SCHED, [0.05 / 3.0, 0.05 / 2.0, 0.05])
    assert grids.count(512) <= 21
    assert grids.count(1024) == 3


def test_calibration_steps_the_levels_together(monkeypatch):
    # table1's three levels settle in four steps each, so their searches
    # make four calls of three rows on the grid and one on the doubled grid.
    calls = []
    original = stepdown.boundary._crossing_rows

    def recorded(analyses, bounds, grid_points):
        calls.append((grid_points, len(bounds)))
        return original(analyses, bounds, grid_points)

    monkeypatch.setattr(stepdown.boundary, "_crossing_rows", recorded)
    calibrate_levels(SCHED, [0.05 / 3.0, 0.05 / 2.0, 0.05])
    assert calls == [(512, 3)] * 4 + [(1024, 3)]


def test_solver_stops_on_a_step_that_does_not_move(monkeypatch):
    # At (23, 33, 46) O'Brien-Fleming the converged secant step rounds back
    # onto c, a bracket end; clamping it bisected [c, 10] from scratch,
    # 40 recursions where 6 settle the level.
    grids = _count_recursions(monkeypatch)
    analyses = (23, 33, 46)
    g = shape_multipliers("obrien-fleming", analyses)
    c = _solve(analyses, g, 0.025, 512)
    assert len(grids) <= 8
    p = crossing_probability(analyses, c * g, grid_points=512)
    assert -normal_quantile(p) == pytest.approx(-normal_quantile(0.025), abs=1e-9)


def test_level_does_not_depend_on_the_other_levels():
    # The searches step together, so a level shares its calls with others;
    # [0.9, 0.05, 1e-6] take different numbers of steps.
    cases = ([0.05], [0.05, 0.025], [0.9, 0.001], [0.9, 0.05, 1e-6])
    for grid_points, others in itertools.product([512, 768], cases):
        for shape in stepdown.boundary.SHAPES:
            alone = calibrate_levels(SCHED, [0.05 / 3.0], shape, grid_points=grid_points)
            together = calibrate_levels(
                SCHED, others + [0.05 / 3.0], shape, grid_points=grid_points
            )
            for rho in others:
                on_its_own = calibrate_levels(SCHED, [rho], shape, grid_points=grid_points)
                assert together.table[rho][-1] == on_its_own.table[rho][-1]
                assert together.achieved[rho] == on_its_own.achieved[rho]
            assert together.table[0.05 / 3.0] == alone.table[0.05 / 3.0]
            assert together.table[0.05 / 3.0][-1] == alone.table[0.05 / 3.0][-1]
            assert together.achieved[0.05 / 3.0] == alone.achieved[0.05 / 3.0]


@pytest.mark.parametrize(
    "levels, error, message",
    [
        # 1e-9 comes first, so its doubled-grid check's error is the one raised.
        ([1e-9, 1e-30], GridError, r"level 1e-09 achieves 8\.9858e-10 on a doubled grid"),
        ([1e-30, 1e-9], CalibrationError, r"\[-10, 10\] calibrates level 1e-30"),
    ],
)
def test_first_failing_level_in_input_order_raises(levels, error, message):
    # Each level's search runs to its end, and the levels are then checked
    # in the order given, as when they were calibrated one after another.
    with pytest.raises(error, match=message):
        calibrate_levels(SCHED, levels, grid_points=64)


@pytest.mark.parametrize("shape", stepdown.boundary.SHAPES)
@pytest.mark.parametrize("rho", [0.9, 0.999])
def test_calibrate_large_levels_give_negative_constants(shape, rho):
    crit = calibrate_levels(SCHED, [rho], shape)
    assert crit.table[rho][-1] < 0.0
    b = crit.boundary(rho)
    assert crossing_probability(SCHED, b, grid_points=1024) == pytest.approx(rho, abs=1e-4)


@pytest.mark.parametrize(
    "analyses, shape, rho",
    [
        # The starting constant z(rho) / max(g) already crosses for certain.
        ((4, 16), "flat", 1.0 - 1e-12),
        # After finite gaps a secant step meets a plateau, where rounding
        # leaves the gap unchanged, and the solver bisects a bracket whose
        # top is still the domain's 10: at the midpoint, c = 7.8, the
        # recursion's grid error floors the crossing probability at
        # exactly 0, where a grid step is over 0.8 sd of the increment.
        # Found by a search over flat (n, n + d), n = 100, 150, ..., 1550,
        # d = 1, 2, 3, at levels 1e-7 to 1e-12: these two meet the 0 under
        # both the FFT and the direct convolution.
        ((700, 701), "flat", 1e-8),
        ((1500, 1502), "flat", 1e-8),
    ],
)
def test_solver_bisects_past_an_infinite_gap(analyses, shape, rho):
    # An infinite gap on the quantile scale must not enter a secant step,
    # which would hand the recursion a NaN boundary.
    g = shape_multipliers(shape, analyses)
    seen = []
    original = stepdown.boundary._crossing_rows

    def recorded(analyses, bounds, grid_points):
        assert np.isfinite(bounds).all()
        probabilities = original(analyses, bounds, grid_points)
        seen.extend(probabilities)
        return probabilities

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stepdown.boundary, "_crossing_rows", recorded)
        c = _solve(analyses, g, rho, 512)
    assert {0.0, 1.0} & set(seen)
    z = -normal_quantile(crossing_probability(analyses, c * g, grid_points=512))
    assert z == pytest.approx(-normal_quantile(rho), abs=1e-6)


@st.composite
def _calibration_inputs(draw):
    looks = draw(st.integers(1, 5))
    first = draw(st.integers(1, 60))
    steps = draw(st.lists(st.integers(1, 30), min_size=looks - 1, max_size=looks - 1))
    analyses = tuple(int(n) for n in np.cumsum([first] + steps))
    g = shape_multipliers(draw(st.sampled_from(stepdown.boundary.SHAPES)), analyses)
    grid_points = draw(st.integers(256, 1024))
    rho = draw(st.floats(1e-4, 0.5))
    return analyses, g, rho, grid_points


@settings(max_examples=80, deadline=None)
@given(_calibration_inputs())
def test_solver_matches_brentq(inputs):
    # Both stop within 1e-10 + 1e-12 |c| of the grid's root.
    analyses, g, rho, grid_points = inputs
    expected = optimize.brentq(
        lambda c: crossing_probability(analyses, c * g, grid_points=grid_points) - rho,
        -10.0, 10.0, xtol=1e-10, rtol=1e-12,
    )
    got = _solve(analyses, g, rho, grid_points)
    assert abs(got - expected) <= 3e-10


def _no_integration(*args):
    raise AssertionError("the levels must be checked before integrating")


def test_levels_checked_before_integration(monkeypatch):
    monkeypatch.setattr(stepdown.boundary, "_crossing_rows", _no_integration)
    with pytest.raises(ValueError, match="between 0 and 1, got 2.0"):
        calibrate_levels(SCHED, [0.05, 2.0])
    twin = 0.05 * (1.0 + 1e-13)
    with pytest.raises(ValueError, match=f"levels 0.05 and {twin!r} name the same level"):
        calibrate_levels(SCHED, [0.05, 0.025, twin])


def test_level_listed_twice_is_calibrated_once(monkeypatch):
    calls = []
    original = stepdown.boundary._solve_constant

    def counted(slope, rho):
        calls.append(rho)
        return original(slope, rho)

    monkeypatch.setattr(stepdown.boundary, "_solve_constant", counted)
    crit = calibrate_levels(SCHED, [0.05, 0.025, 0.05])
    assert calls == [0.05, 0.025]
    assert sorted(crit.table) == [0.025, 0.05]


def _trapezoid_weights(count, h):
    w = np.full(count, h)
    w[0] = w[-1] = h / 2.0
    return w


def _grid_nodes(h, tops, counts):
    # Each look's nodes, from its top node down by h.
    return [top - h * np.arange(m - 1, -1, -1) for top, m in zip(tops, counts)]


def _reference_recursion(analyses, b, grid_points):
    # The whole-matrix propagation on the recursion's grids: each
    # transition fills the full kernel from the explicit node differences
    # new[i] - old[k] before one mat-vec.  Oracle for the convolution.
    grids = _look_grids(analyses, b, grid_points)
    if grids is None:
        return 1.0
    h, grids = grids[0], _grid_nodes(*grids)
    n1 = analyses[0]
    dens = np.exp(-0.5 * grids[0] * grids[0] / n1) / math.sqrt(2.0 * math.pi * n1)
    for j in range(1, len(analyses)):
        dn = analyses[j] - analyses[j - 1]
        diff = grids[j][:, None] - grids[j - 1][None, :]
        kernel = np.exp(-0.5 * diff * diff / dn) / math.sqrt(2.0 * math.pi * dn)
        dens = kernel @ (dens * _trapezoid_weights(len(grids[j - 1]), h))
    return min(1.0, max(0.0, 1.0 - float(dens @ _trapezoid_weights(len(dens), h))))


# The FFT convolution and the oracle sum in different orders, and the
# oracle's differences are rounded from the nodes, so they agree to a few
# ulps of 1: at most 6.0 in 5,000 random inputs, where the direct
# convolution came within 5.0.
_ORACLE_ULPS = 8


# Standardized boundary constants: at or below -_SPAN_SD the grid is empty
# (certain crossing), inside the span the recursion integrates, and above
# it the boundary is clipped to the span.
_constants = st.one_of(
    st.floats(-12.0, -_SPAN_SD),
    st.floats(-_SPAN_SD, _SPAN_SD),
    st.floats(_SPAN_SD, 12.0),
)


@st.composite
def _recursion_inputs(draw, max_grid=2100):
    looks = draw(st.integers(1, 6))
    first = draw(st.integers(1, 60))
    steps = draw(st.lists(st.integers(1, 30), min_size=looks - 1, max_size=looks - 1))
    analyses = tuple(int(n) for n in np.cumsum([first] + steps))
    shape = draw(st.sampled_from(stepdown.boundary.SHAPES))
    b = draw(_constants) * shape_multipliers(shape, analyses)
    grid_points = draw(st.one_of(st.integers(8, max_grid), st.sampled_from([63, 64, 65, 257])))
    return analyses, b, grid_points


@settings(max_examples=80, deadline=None)
# Whole kernels stay below 50 MB: grids of at most 8 * 300 points.
@given(_recursion_inputs(max_grid=300))
@example(((11, 26, 27), np.array([7.0, 7.0, 7.0]), 1027))
@example(((47, 68, 85, 93, 100), np.array([0.0] * 5), 293))
def test_blocked_recursion_matches_reference(inputs):
    analyses, b, grid_points = inputs
    got = crossing_probability(analyses, b, grid_points=grid_points)
    assert abs(got - _reference_recursion(analyses, b, grid_points)) <= _ORACLE_ULPS * 2.0**-52


@settings(max_examples=200, deadline=None)
@given(_recursion_inputs())
# A span of 8.9e-16 on one look: its nodes all rounded to -8.0.
@example(((1,), np.array([-7.999999999999999]), 8))
# Spans of 1e-8 and 1e-10: h is a few float spacings of the nodes and above.
@example(((1,), np.array([-7.99999999]), 8))
@example(((1,), np.array([-7.9999999999]), 8))
def test_look_grids_share_one_spacing(inputs):
    analyses, b, grid_points = inputs
    grids = _look_grids(analyses, b, grid_points)
    sd = np.sqrt(np.asarray(analyses, dtype=float))
    tops = np.minimum(b * sd, _SPAN_SD * sd)
    spans = tops + _SPAN_SD * sd
    # An empty span, or a spacing below the float spacing of the nodes.
    empty = (spans <= 0.0).any() or max(
        spans.min() / (grid_points - 1), spans.max() / (_GRID_CAP * grid_points - 1)
    ) < np.spacing(_SPAN_SD * sd[-1])
    assert (grids is None) == empty
    if empty:
        assert crossing_probability(analyses, b, grid_points=grid_points) == 1.0
        return
    h, tops, counts = grids
    grids = _grid_nodes(h, tops, counts)
    # Each node is top - h * i, rounded once at its own magnitude, so a step
    # can be off by a few float spacings of the largest node, -_SPAN_SD sd.
    atol = 4.0 * np.spacing(_SPAN_SD * sd[-1])
    assert counts == [len(grid) for grid in grids]
    assert max(counts) <= _GRID_CAP * grid_points
    assert max(counts) == _GRID_CAP * grid_points or min(counts) == grid_points
    for grid, top, low in zip(grids, tops, -_SPAN_SD * sd):
        # Each grid ends on its top node and steps down by h to within
        # one step of -_SPAN_SD sd.
        assert grid[-1] == top
        assert np.allclose(np.diff(grid), h, rtol=1e-9, atol=atol)
        assert low - 1e-9 * (top - low) <= grid[0] < low + h
    # The doubled-grid check always integrates at a finer spacing.
    assert _look_grids(analyses, b, 2 * grid_points)[0] < h


def _array_look_grids(analyses, b, grid_points):
    # _look_grids with every per-look scalar as a numpy array operation,
    # as the package computed them before they became plain floats.
    sd = np.sqrt(np.asarray(analyses, dtype=float))
    tops = np.minimum(b * sd, _SPAN_SD * sd)
    spans = tops + _SPAN_SD * sd
    h = max(spans.min() / (grid_points - 1), spans.max() / (_GRID_CAP * grid_points - 1))
    if not (spans > 0.0).all() or h < np.spacing(_SPAN_SD * sd[-1]):
        return None
    counts = np.floor(spans / h * (1.0 + 1e-9)).astype(int) + 1
    return h, tops, counts


def _kernel_recursion(
    analyses, b, grid_points, look_grids=_look_grids, transition=_valid_convolution
):
    # The recursion with its per-look scalars from look_grids and each
    # "valid" convolution taken by transition.
    grids = look_grids(analyses, b, grid_points)
    if grids is None:
        return 1.0
    h, tops, counts = grids
    n1 = analyses[0]
    x = tops[0] - h * np.arange(counts[0] - 1, -1, -1)
    dens = np.exp(-0.5 * x * x / n1) / math.sqrt(2.0 * math.pi * n1)
    for j in range(1, len(analyses)):
        dn = analyses[j] - analyses[j - 1]
        old, new = counts[j - 1], counts[j]
        d = (tops[j] - tops[j - 1]) + h * np.arange(1 - new, old)
        kernel = np.exp(-0.5 * d * d / dn) / math.sqrt(2.0 * math.pi * dn)
        dens = transition(kernel, dens * _trapezoid_weights(old, h))
    return min(1.0, max(0.0, 1.0 - float((dens * _trapezoid_weights(len(dens), h)).sum())))


def _array_recursion(analyses, b, grid_points):
    # The recursion on _array_look_grids, step for step.
    return _kernel_recursion(analyses, b, grid_points, look_grids=_array_look_grids)


@st.composite
def _scalar_inputs(draw):
    looks = draw(st.integers(1, 6))
    first = draw(st.integers(1, 60))
    steps = draw(st.lists(st.integers(1, 30), min_size=looks - 1, max_size=looks - 1))
    analyses = tuple(int(n) for n in np.cumsum([first] + steps))
    b = np.array(draw(st.lists(st.floats(-9.0, 9.0), min_size=looks, max_size=looks)))
    return analyses, b, draw(st.integers(8, 1024))


@settings(max_examples=150, deadline=None)
@given(_scalar_inputs())
@example(((1,), np.array([-7.999999999999999]), 8))
@example(((1,), np.array([-7.99999999]), 8))
@example(((26, 29, 35), np.array([9.0, -0.0, 2.2]), 1024))
def test_plain_float_scalars_match_the_array_arithmetic(inputs):
    # Plain floats and numpy's element-wise operations round alike, so the
    # grids and the crossing probability are the same bits.
    analyses, b, grid_points = inputs
    grids = _look_grids(analyses, b, grid_points)
    reference = _array_look_grids(analyses, b, grid_points)
    assert (grids is None) == (reference is None)
    if grids is not None:
        assert grids[0] == reference[0]
        assert grids[1] == reference[1].tolist()
        assert grids[2] == reference[2].tolist()
    got = crossing_probability(analyses, b, grid_points=grid_points)
    assert got == _array_recursion(analyses, b, grid_points)


@st.composite
def _stacked_inputs(draw):
    # A stack of boundaries on one schedule: two flat rows inside the span,
    # whose looks have equal point counts, an O'Brien-Fleming row, a row at
    # or below -_SPAN_SD with no grid, a row with one infinite entry, and
    # rows of any constant and shape, in any order.
    analyses, _, grid_points = draw(_recursion_inputs(max_grid=600))
    flat = shape_multipliers("flat", analyses)
    inside = st.floats(-7.5, 7.5)
    rows = [draw(inside) * flat, draw(inside) * flat]
    rows.append(draw(inside) * shape_multipliers("obrien-fleming", analyses))
    rows.append(draw(st.floats(-12.0, -_SPAN_SD)) * flat)
    infinite = draw(inside) * flat
    infinite[draw(st.integers(0, len(analyses) - 1))] = draw(st.sampled_from([math.inf, -math.inf]))
    rows.append(infinite)
    for _ in range(draw(st.integers(0, 3))):
        shape = draw(st.sampled_from(stepdown.boundary.SHAPES))
        rows.append(draw(_constants) * shape_multipliers(shape, analyses))
    return analyses, np.array(draw(st.permutations(rows))), grid_points


@settings(max_examples=100, deadline=None)
@given(_stacked_inputs())
def test_stacked_rows_match_each_row_alone(inputs):
    # Rows with equal point counts run as one recursion; each row's value
    # is the same bits as its own recursion's, the package's and the
    # test-side one-row form alike.
    analyses, bounds, grid_points = inputs
    got = stepdown.boundary._crossing_rows(analyses, bounds, grid_points)
    assert got == [
        crossing_probability(analyses, b, grid_points=grid_points) for b in bounds
    ]
    assert got == [_kernel_recursion(analyses, b, grid_points) for b in bounds]


def _direct_convolution(kernel, weighted):
    # The form the FFT replaced: len(weighted) multiply-adds per output.
    return np.convolve(kernel, weighted, "valid")


def _transition_gaps(analyses, b, grid_points):
    # The recursion by direct convolution, with each of its transitions
    # also taken by the FFT from the same input.  Returns its crossing
    # probability and, per transition, the trapezoid-weighted L1 distance
    # between the two outputs, which bounds how far any event's
    # probability moves there.  The FFT's error is relative to the mass
    # of the whole convolution, h * sum(kernel) * sum(|input|), so the
    # distance is taken over that mass where it exceeds 1: on a grid so
    # coarse that a step spans several sd of the increment, a sampled
    # kernel's mass reaches 5 ((32, 33) at grid 8, h = 12.9).
    grids = _look_grids(analyses, b, grid_points)
    gaps = []

    def both(kernel, weighted):
        h = grids[0]
        direct = _direct_convolution(kernel, weighted)
        fft = _valid_convolution(kernel, weighted)
        gap = np.abs(fft - direct) @ _trapezoid_weights(len(direct), h)
        gaps.append(float(gap) / max(1.0, h * float(kernel.sum() * np.abs(weighted).sum())))
        return direct

    return _kernel_recursion(analyses, b, grid_points, transition=both), gaps


_MANY_LOOKS = tuple(range(1, 129))


@settings(max_examples=60, deadline=None)
@given(_recursion_inputs())
@example((_MANY_LOOKS, np.full(128, 3.0), 512))
@example((_MANY_LOOKS, 2.0 * shape_multipliers("obrien-fleming", _MANY_LOOKS), 256))
# The 8x point cap binds on every transition: grids of 32,768 points.
@example(((1, 10000, 10001, 10002, 10003), np.full(5, 2.2), 4096))
@example(((3, 4, 5, 6, 7), 4.0 * shape_multipliers("obrien-fleming", (3, 4, 5, 6, 7)), 8))
@example(((32, 33), np.array([7.971254759233056, 7.84954906632079]), 8))
def test_fft_transition_matches_the_direct_convolution(inputs):
    analyses, b, grid_points = inputs
    direct, gaps = _transition_gaps(analyses, b, grid_points)
    assert max(gaps, default=0.0) <= _ORACLE_ULPS * 2.0**-52
    # End to end the transitions' differences add up: at 128 looks the
    # two forms' crossing probabilities differ by 8 to 15 ulps of 1.
    if len(analyses) <= 6:
        got = crossing_probability(analyses, b, grid_points=grid_points)
        assert abs(got - direct) <= _ORACLE_ULPS * 2.0**-52


# The recursion's output at grids too large for a whole-kernel oracle in a
# test run, checked against the explicit-difference oracle applied 256 rows
# at a time: they differ by 1.5, 0.5, 0.5 and 1.0 ulps of 1 (96, 32, 32 and
# 64 ulps of P).  The multivariate normal CDF gives 0.0234732 and 0.0205714.
_LARGE_GRID_REFERENCE = [
    ((26, 29, 35), "flat", 2.2, 4096, 0.02347356377838905),
    ((26, 29, 35), "flat", 2.2, 8192, 0.02347348383422243),
    ((20, 31, 44, 60), "obrien-fleming", 2.1, 4096, 0.020577094667839635),
    ((20, 31, 44, 60), "obrien-fleming", 2.1, 8192, 0.020577066860347992),
]


@pytest.mark.parametrize("analyses, shape, c, grid_points, expected", _LARGE_GRID_REFERENCE)
def test_blocked_recursion_matches_reference_on_large_grids(
    analyses, shape, c, grid_points, expected
):
    # 8192 points is the doubled-grid check's grid at MAX_GRID_POINTS,
    # beyond what crossing_probability takes as grid_points.
    b = c * shape_multipliers(shape, analyses)
    assert stepdown.boundary._crossing_rows(analyses, b[np.newaxis], grid_points) == [expected]


def _peak_traced_bytes(analyses, b):
    tracemalloc.start()
    try:
        crossing_probability(analyses, b, grid_points=MAX_GRID_POINTS, tol=1e-4)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_crossing_memory_bounded_at_largest_grid():
    # The doubled-grid check integrates on 8192 points a look; the kernel
    # is one vector of fewer than twice that many differences.
    assert _peak_traced_bytes(SCHED, [2.2] * 3) < 16 * 2**20


@pytest.mark.parametrize("analyses", [(1, 10000), (1, 100, 10000)])
def test_capped_grids_stay_bounded_and_refine(analyses):
    # The widest look spans 100 times the first, so the cap binds: the
    # widest grid holds _GRID_CAP times grid_points, and the doubled-grid
    # check still halves the spacing.
    b = np.full(len(analyses), 2.2)
    assert _peak_traced_bytes(analyses, b) < 16 * 2**20
    h, _, counts = _look_grids(analyses, b, MAX_GRID_POINTS)
    h_fine, _, fine = _look_grids(analyses, b, 2 * MAX_GRID_POINTS)
    assert counts[-1] == _GRID_CAP * MAX_GRID_POINTS
    assert fine[-1] == 2 * _GRID_CAP * MAX_GRID_POINTS
    assert h_fine < h


@st.composite
def _root_inputs(draw):
    analyses, g, rho, grid_points = draw(_calibration_inputs())
    return analyses, g, 10.0 ** draw(st.floats(-5.0, -2.0)), grid_points


@settings(max_examples=40, deadline=None)
@given(_root_inputs())
def test_crossing_does_not_increase_in_small_steps_of_the_constant(inputs):
    # The trapezoid weights take h as computed from the spans: rebuilt
    # from two nodes near -_SPAN_SD sd, it rounds differently as c moves,
    # and P(c) rose and fell by 4e-13 over 1e-10 steps of c, more than a
    # step's fall at these levels.
    analyses, g, rho, grid_points = inputs
    root = _solve(analyses, g, rho, grid_points)
    ps = [
        crossing_probability(analyses, (root + k * 1e-10) * g, grid_points=grid_points)
        for k in range(-5, 6)
    ]
    assert all(later <= earlier for earlier, later in zip(ps, ps[1:]))


def test_fractional_analysis_sizes_are_refused():
    # (26.5, 29, 35) used to be truncated to (26, 29, 35), and the
    # crossing probability returned was the one for 26.
    with pytest.raises(ValueError, match="analysis size must be an integer, got 26.5"):
        crossing_probability((26.5, 29, 35), [2.0, 2.0, 2.0])
