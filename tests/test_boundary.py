import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import stepdown.boundary
from stepdown.boundary import (
    _SPAN_SD,
    CriticalFunction,
    GridError,
    _trapezoid_mass,
    _trapezoid_weights,
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
    # seeded 10^6-path Monte Carlo oracle (0.037447, within 0.7 SE).
    p = crossing_probability(SCHED, [2.0, 2.0, 2.0])
    assert p == pytest.approx(0.037315952346552494, abs=1e-12)


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


def test_calibrate_single_analysis_matches_quantile():
    # One look reduces calibration to the normal quantile, up to the
    # declared integration tolerance.
    crit = calibrate_levels(SampleSchedule((17,)), [0.05])
    assert crit.constants[0.05] == pytest.approx(1.64485362695147, abs=2e-4)
    crit3 = calibrate_levels(SampleSchedule((17,)), [0.05 / 3.0])
    assert crit3.constants[0.05 / 3.0] == pytest.approx(2.12804523418498, abs=2e-4)


def test_calibrate_multi_look_inflates_constant():
    crit = calibrate_levels(SCHED, [0.05])
    c = crit.constants[0.05]
    assert c > 1.644854
    # Regression lock for the default grid.
    assert c == pytest.approx(1.864814768565878, abs=1e-10)


def test_calibrate_hits_target_level():
    levels = [0.05, 0.025, 0.05 / 2.0, 0.05 / 3.0]
    crit = calibrate_levels(SCHED, levels)
    for rho in levels:
        achieved = crossing_probability(SCHED, crit.boundary(rho))
        assert achieved == pytest.approx(rho, abs=2e-4)


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


def test_from_table_and_level_lookup():
    crit = CriticalFunction.from_table(SCHED, {0.05: (2.0, 2.0, 1.9)})
    assert crit.boundary(0.05)[2] == 1.9
    assert crit.boundary(0.05000000000000001)[0] == 2.0  # tolerant lookup
    with pytest.raises(KeyError):
        crit.boundary(0.01)


def test_table_must_be_monotone_in_level():
    with pytest.raises(ValueError, match="non-increasing"):
        CriticalFunction.from_table(SCHED, {0.05: (2.5, 2.5, 2.5), 0.025: (2.0, 2.0, 2.0)})


def test_table_rejects_nan():
    with pytest.raises(ValueError, match="NaN"):
        CriticalFunction.from_table(SCHED, {0.05: (2.0, float("nan"), 1.9)})
    with pytest.raises(ValueError, match="NaN"):
        CriticalFunction(SCHED, "flat", {0.05: (float("nan"),) * 3})


def test_grid_points_checked_before_integration(monkeypatch):
    def no_integration(*args):
        raise AssertionError("the grid size must be checked before integrating")

    monkeypatch.setattr(stepdown.boundary, "_crossing_recursion", no_integration)
    for bad in (3, 7, 4097, 100_000):
        with pytest.raises(ValueError, match="grid_points"):
            calibrate_levels(SCHED, [0.05], grid_points=bad)
        with pytest.raises(ValueError, match="grid_points"):
            crossing_probability(SCHED, [2.0, 2.0, 2.0], grid_points=bad)


def test_grid_error_when_tolerance_unmeetable():
    with pytest.raises(GridError):
        calibrate_levels(SCHED, [0.05], grid_points=12, tol=1e-6)


def _no_integration(*args):
    raise AssertionError("the levels must be checked before integrating")


def test_levels_checked_before_integration(monkeypatch):
    monkeypatch.setattr(stepdown.boundary, "_crossing_recursion", _no_integration)
    with pytest.raises(ValueError, match="between 0 and 1, got 2.0"):
        calibrate_levels(SCHED, [0.05, 2.0])
    twin = 0.05 * (1.0 + 1e-13)
    with pytest.raises(ValueError, match=f"levels 0.05 and {twin!r} name the same level"):
        calibrate_levels(SCHED, [0.05, 0.025, twin])


def test_level_listed_twice_is_calibrated_once(monkeypatch):
    calls = []
    original = stepdown.boundary._solve_constant

    def counted(analyses, g, rho, grid_points):
        calls.append(rho)
        return original(analyses, g, rho, grid_points)

    monkeypatch.setattr(stepdown.boundary, "_solve_constant", counted)
    crit = calibrate_levels(SCHED, [0.05, 0.025, 0.05])
    assert calls == [0.05, 0.025]
    assert sorted(crit.table) == [0.025, 0.05]


def _matvec_on_one_thread(kernel, vec):
    # OpenBLAS sums a mat-vec's rows in groups of four, and a threaded
    # call splits the rows into per-thread chunks whose groups need not
    # line up with the matrix's, so one whole-matrix call rounds
    # differently with the BLAS thread count.  A four-row call is one
    # group, too small to be split, and rounds alike on any thread count.
    out = np.empty(len(kernel))
    for start in range(0, len(kernel), 4):
        np.matmul(kernel[start : start + 4], vec, out=out[start : start + 4])
    return out


def _reference_recursion(analyses, b, grid_points):
    # The whole-matrix propagation: each transition builds the full
    # N x N kernel before the mat-vec.  Oracle for the blocked kernel.
    thresholds = b * np.sqrt(np.asarray(analyses, dtype=float))

    n1 = analyses[0]
    lo, hi = -_SPAN_SD * math.sqrt(n1), min(thresholds[0], _SPAN_SD * math.sqrt(n1))
    if hi <= lo:
        return 1.0
    grid = np.linspace(lo, hi, grid_points)
    dens = np.exp(-0.5 * grid * grid / n1) / math.sqrt(2.0 * math.pi * n1)
    surviving = _trapezoid_mass(dens, grid)

    for j in range(1, len(analyses)):
        dn = analyses[j] - analyses[j - 1]
        lo = -_SPAN_SD * math.sqrt(analyses[j])
        hi = min(thresholds[j], _SPAN_SD * math.sqrt(analyses[j]))
        if hi <= lo:
            return 1.0
        new_grid = np.linspace(lo, hi, grid_points)
        diff = new_grid[:, None] - grid[None, :]
        kernel = np.exp(-0.5 * diff * diff / dn) / math.sqrt(2.0 * math.pi * dn)
        w = _trapezoid_weights(grid)
        dens = _matvec_on_one_thread(kernel, dens * w)
        grid = new_grid
        surviving = _trapezoid_mass(dens, grid)

    return min(1.0, max(0.0, 1.0 - surviving))


# Standardized boundary constants: at or below -_SPAN_SD the grid is empty
# (certain crossing), inside the span the recursion integrates, and above
# it the boundary is clipped to the span.
_constants = st.one_of(
    st.floats(-12.0, -_SPAN_SD),
    st.floats(-_SPAN_SD, _SPAN_SD),
    st.floats(_SPAN_SD, 12.0),
)


@st.composite
def _recursion_inputs(draw):
    looks = draw(st.integers(1, 6))
    first = draw(st.integers(1, 60))
    steps = draw(st.lists(st.integers(1, 30), min_size=looks - 1, max_size=looks - 1))
    analyses = tuple(int(n) for n in np.cumsum([first] + steps))
    shape = draw(st.sampled_from(stepdown.boundary.SHAPES))
    b = draw(_constants) * shape_multipliers(shape, analyses)
    grid_points = draw(st.one_of(st.integers(8, 2100), st.sampled_from([63, 64, 65, 513, 2047])))
    return analyses, b, grid_points


@settings(max_examples=80, deadline=None)
@given(_recursion_inputs())
# A whole-matrix mat-vec split across two BLAS threads rounded this one
# differently from the blocked kernel.
@example(((11, 26, 27), np.array([7.0, 7.0, 7.0]), 1027))
def test_blocked_recursion_matches_reference(inputs):
    analyses, b, grid_points = inputs
    got = stepdown.boundary._crossing_recursion(analyses, b, grid_points)
    assert got == _reference_recursion(analyses, b, grid_points)


# _reference_recursion's output at grids too large to rebuild in a test
# run: the whole kernel needs 0.5 GB of temporaries at 4096 points and
# 2 GB at 8192.
_LARGE_GRID_REFERENCE = [
    ((26, 29, 35), "flat", 2.2, 4096, 0.023473578034041598),
    ((26, 29, 35), "flat", 2.2, 8192, 0.023473487397143056),
    ((20, 31, 44, 60), "obrien-fleming", 2.1, 4096, 0.02057713180840215),
    ((20, 31, 44, 60), "obrien-fleming", 2.1, 8192, 0.020577076143065476),
]


@pytest.mark.parametrize("analyses, shape, c, grid_points, expected", _LARGE_GRID_REFERENCE)
def test_blocked_recursion_matches_reference_on_large_grids(
    analyses, shape, c, grid_points, expected
):
    b = c * shape_multipliers(shape, analyses)
    assert stepdown.boundary._crossing_recursion(analyses, b, grid_points) == expected


def test_crossing_memory_bounded_at_largest_grid():
    # The doubled-grid check integrates on 8192 points; a whole kernel
    # there would be 512 MB, a block of kernel rows is 4 MiB.
    tracemalloc.start()
    try:
        crossing_probability(SCHED, [2.2] * 3, grid_points=4096, tol=1e-4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
