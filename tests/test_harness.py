import math
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

import stepdown.harness
from stepdown.boundary import calibrate_levels
from stepdown.cli import main as cli_main
from stepdown.core import SampleSchedule
from stepdown.harness import (
    ScenarioSpec,
    _binomial_cutoffs,
    _normal_cutoff,
    empty_summary,
    merge,
    needed_levels,
    run_cells,
    run_scenario,
    run_scenario_parallel,
    split_ranges,
)
from stepdown.trial import ScenarioParams

SCHED = SampleSchedule((26, 29, 35))
# Covers the levels of both staged procedures at the default alpha.
CRITICAL = calibrate_levels(SCHED, needed_levels(("MultH",), 0.05), "flat")


def spec_for(procedure, reps=400, **kw):
    params = kw.pop("params", ScenarioParams(0.0, 0.5, 0.75))
    return ScenarioSpec(
        params=params, schedule=SCHED, procedure=procedure, replicates=reps, **kw
    )


def test_spec_validation():
    with pytest.raises(ValueError, match="unknown procedure"):
        spec_for("Bonferroni")
    with pytest.raises(ValueError, match="replicates"):
        spec_for("MultH", reps=0)
    with pytest.raises(ValueError, match="replicates"):
        spec_for("H", reps=True)
    with pytest.raises(ValueError, match="unknown procedure"):
        spec_for("MultH-closed")


@pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, float("nan")])
@pytest.mark.parametrize("procedure", ["H", "MultH"])
def test_spec_rejects_alpha_outside_the_unit_interval(procedure, alpha):
    # Checked where the cell is built, before any cutoff or boundary reads it.
    with pytest.raises(ValueError, match="alpha"):
        spec_for(procedure, alpha=alpha)


def test_needed_levels():
    assert needed_levels(("H",), 0.05) == ()
    assert needed_levels(("Mult",), 0.05) == (0.05 / 3.0,)
    assert needed_levels(("MultH",), 0.05) == (0.05 / 3.0, 0.05 / 2.0, 0.05)
    assert needed_levels(("H", "Mult", "MultH"), 0.05) == (0.05 / 3.0, 0.05 / 2.0, 0.05)
    assert needed_levels(("Mult", "H"), 0.1) == (0.1 / 3.0,)


def test_h_procedure_uses_full_sample():
    s = run_scenario(spec_for("H", reps=200))
    assert s.em == 105.0
    assert s.em_se == 0.0
    assert s.replicates == 200


def test_multistage_saves_measurements():
    s = run_scenario(spec_for("MultH", reps=400), critical=CRITICAL)
    assert s.em < 105.0
    assert s.em_se > 0.0


def test_fwe_none_when_no_true_null():
    s = run_scenario(
        spec_for("MultH", reps=50, params=ScenarioParams(0.5, 0.5, 0.75)), critical=CRITICAL
    )
    assert not s.any_true_null
    assert s.fwe is None and s.fwe_se is None


def test_fwe_at_most_sum_of_true_null_rejections():
    s = run_scenario(
        spec_for("MultH", reps=400, params=ScenarioParams(0.0, 0.0, 0.5)), critical=CRITICAL
    )
    assert s.fwe is not None
    assert s.fwe <= (s.p_reject(0) + s.p_reject(1) + s.p_reject(2)) + 1e-12


@pytest.mark.parametrize("procedure", ["Mult", "MultH"])
def test_staged_procedures_need_a_boundary(procedure):
    spec = spec_for(procedure, reps=10)
    with pytest.raises(ValueError, match=f"procedure '{procedure}' needs"):
        run_scenario(spec)
    with pytest.raises(ValueError, match=f"procedure '{procedure}' needs"):
        run_scenario_parallel([spec], workers=2)


def test_rep_range_validation():
    spec = spec_for("MultH", reps=100)
    with pytest.raises(ValueError, match="rep_range"):
        run_scenario(spec, rep_range=(50, 150), critical=CRITICAL)
    with pytest.raises(ValueError, match="rep_range"):
        run_scenario(spec, rep_range=(-1, 10), critical=CRITICAL)
    # (0.5, 2) used to reach numpy and fail with a TypeError.
    for bad in ((0.5, 2), (0, 2.0), (True, 2)):
        with pytest.raises(ValueError, match="rep_range"):
            run_cells([spec], rep_range=bad, critical=CRITICAL)


@pytest.mark.parametrize("workers", [1.5, 2.0, True])
def test_worker_count_must_be_a_positive_integer(workers):
    # True used to run one worker, 1.5 to fail with numpy's TypeError.
    with pytest.raises(ValueError, match="workers"):
        run_scenario_parallel([spec_for("H", reps=10)], workers=workers)


def test_spec_takes_a_schedule_as_a_sequence():
    params = ScenarioParams(0.0, 0.0, 0.5)
    spec = ScenarioSpec(params, (26, 29, 35), procedure="H", replicates=50)
    assert spec == ScenarioSpec(params, SCHED, procedure="H", replicates=50)
    assert spec.schedule == SCHED
    assert run_scenario(spec).replicates == 50
    with pytest.raises(ValueError, match="analysis size"):
        ScenarioSpec(params, (26.5, 29, 35))


def test_merge_identity_and_halves():
    spec = spec_for("MultH", reps=300)
    full = run_scenario(spec, critical=CRITICAL)
    left = run_scenario(spec, rep_range=(0, 150), critical=CRITICAL)
    right = run_scenario(spec, rep_range=(150, 300), critical=CRITICAL)

    merged = merge(left, right)
    assert merged == full  # integer accumulators make this exact

    with_identity = merge(full, empty_summary(spec))
    assert with_identity == full


def test_merge_rejects_mismatched_specs():
    a = run_scenario(spec_for("MultH", reps=10), critical=CRITICAL)
    b = run_scenario(spec_for("Mult", reps=10), critical=CRITICAL)
    with pytest.raises(ValueError, match="different scenario specs"):
        merge(a, b)


def test_merge_rejects_overlap():
    spec = spec_for("MultH", reps=100)
    a = run_scenario(spec, rep_range=(0, 60), critical=CRITICAL)
    b = run_scenario(spec, rep_range=(40, 100), critical=CRITICAL)
    with pytest.raises(ValueError, match="overlap"):
        merge(a, b)


def test_partition_invariance():
    # Any partition of the replicate range merges to the same summary.
    spec = spec_for("Mult", reps=240)
    full = run_scenario(spec, critical=CRITICAL)
    cuts = [0, 17, 64, 100, 201, 240]
    parts = [
        run_scenario(spec, rep_range=(lo, hi), critical=CRITICAL)
        for lo, hi in zip(cuts, cuts[1:])
    ]
    merged = parts[0]
    for part in parts[1:]:
        merged = merge(merged, part)
    assert merged == full


def test_split_ranges():
    assert split_ranges(10, 3) == [(0, 4), (4, 7), (7, 10)]
    assert split_ranges(2, 8) == [(0, 1), (1, 2)]
    assert sum(hi - lo for lo, hi in split_ranges(999, 7)) == 999


def test_parallel_matches_serial():
    spec = spec_for("MultH", reps=120)
    serial = run_scenario_parallel([spec], workers=1, critical=CRITICAL)
    parallel = run_scenario_parallel([spec], workers=4, critical=CRITICAL)
    assert serial == parallel


def test_parallel_uses_given_critical(monkeypatch):
    spec = spec_for("Mult", reps=60)

    def no_calibration(*args, **kwargs):
        raise AssertionError("a supplied boundary must not be recalibrated")

    monkeypatch.setattr(stepdown.harness, "calibrate_levels", no_calibration)
    assert run_scenario_parallel([spec], workers=1, critical=CRITICAL) == [
        run_scenario(spec, critical=CRITICAL)
    ]


class _RecordingPool:
    """Stands in for multiprocessing.Pool and runs jobs in this process."""

    sizes: list[int] = []

    def __init__(self, processes):
        self.sizes.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        return [fn(job) for job in jobs]


def test_pool_size_bounded_by_cpu_count(monkeypatch):
    monkeypatch.setattr(stepdown.harness.multiprocessing, "Pool", _RecordingPool)
    monkeypatch.setattr(stepdown.harness.os, "cpu_count", lambda: 3)
    _RecordingPool.sizes = []
    spec = spec_for("H", reps=100)
    many = run_scenario_parallel([spec], workers=50_000)
    assert _RecordingPool.sizes == [3]
    assert many == run_scenario_parallel([spec], workers=1)
    run_scenario_parallel([spec], workers=2)
    assert _RecordingPool.sizes == [3, 2]


def test_simulate_opens_one_pool_per_run(tmp_path, monkeypatch):
    # One pool serves every cell of a multi-cell run.
    args = [
        "simulate", "--scenarios", "(0,0,.5) (0,.5,.75,.75)", "--procedure", "H,Mult,MultH",
        "--reps", "30", "--seed", "4",
    ]
    assert cli_main(args + ["--workers", "1", "--out", str(tmp_path / "w1.csv")]) == 0
    monkeypatch.setattr(stepdown.harness.multiprocessing, "Pool", _RecordingPool)
    monkeypatch.setattr(stepdown.harness.os, "cpu_count", lambda: 8)
    _RecordingPool.sizes = []
    assert cli_main(args + ["--workers", "3", "--out", str(tmp_path / "w3.csv")]) == 0
    assert _RecordingPool.sizes == [3]
    assert (tmp_path / "w1.csv").read_bytes() == (tmp_path / "w3.csv").read_bytes()


def test_worker_count_cannot_change_counts():
    spec = spec_for("H", reps=90, params=ScenarioParams(0.0, 0.0, 0.5))
    [one] = run_scenario_parallel([spec], workers=1)
    [three] = run_scenario_parallel([spec], workers=3)
    assert one.reject_counts == three.reject_counts
    assert one.fwe_count == three.fwe_count
    assert one.sum_measurements == three.sum_measurements


def test_continuity_correction_toggle_changes_binary_only():
    base = spec_for("MultH", reps=300, params=ScenarioParams(0.0, 0.0, 0.75))
    corrected = spec_for(
        "MultH",
        reps=300,
        params=ScenarioParams(0.0, 0.0, 0.75),
        continuity_correction=True,
    )
    s0 = run_scenario(base, critical=CRITICAL)
    s1 = run_scenario(corrected, critical=CRITICAL)
    # The correction lowers the binary statistic, never raising its
    # rejection count.  Gaussian counts may shift slightly because the
    # binary rejections feed the step-down relaxation.
    assert s1.reject_counts[2] <= s0.reject_counts[2]
    assert s1.reject_counts[2] < s0.reject_counts[2] or s1 == s0


# Cells that can share a block: every procedure on uncorrelated and
# correlated scenarios, with and without the continuity correction.
_CELL_PARAMS = (
    ScenarioParams(0.0, 0.0, 0.5),
    ScenarioParams(0.0, 0.5, 0.75),
    ScenarioParams(0.0, 0.5, 0.75, 0.75),
    ScenarioParams(0.4, 0.4, 0.75),
)
_CELLS = [
    spec_for(procedure, reps=90, params=params, continuity_correction=correction)
    for params in _CELL_PARAMS
    for procedure in ("H", "Mult", "MultH")
    for correction in (False, True)
]


@st.composite
def _grouped_runs(draw):
    cells = draw(st.lists(st.sampled_from(_CELLS), min_size=1, max_size=6, unique=True))
    cuts = sorted(draw(st.sets(st.integers(1, 89), max_size=5)))
    pieces = list(zip([0] + cuts, cuts + [90]))
    order = draw(st.permutations(range(len(pieces))))
    block = draw(st.sampled_from([35 * 7, 35 * 32, stepdown.harness.BLOCK_OBSERVATIONS]))
    return cells, pieces, order, block


@settings(max_examples=40, deadline=None)
@given(_grouped_runs())
def test_grouped_run_matches_each_cell_alone(run):
    # Cells run together over any partition of the replicates, merged in
    # any order and at any block size, give each cell's own summary.
    cells, pieces, order, block = run
    alone = [run_scenario(cell, critical=CRITICAL) for cell in cells]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(stepdown.harness, "BLOCK_OBSERVATIONS", block)
        parts = [run_cells(cells, pieces[i], CRITICAL) for i in order]
    merged = [empty_summary(cell) for cell in cells]
    for part in parts:
        merged = [merge(a, b) for a, b in zip(merged, part)]
    assert merged == alone


def test_h_cells_with_different_alphas_keep_their_own_cutoffs():
    # run_cells builds one H cutoff table per distinct alpha.
    cells = [spec_for("H", alpha=alpha) for alpha in (0.05, 0.2, 0.05)]
    assert run_cells(cells) == [run_scenario(cell) for cell in cells]


def test_run_cells_rejects_cells_that_cannot_share_draws(monkeypatch):
    # run_scenario_parallel checks its cells before it opens a pool.
    monkeypatch.setattr(stepdown.harness.multiprocessing, "Pool", _RecordingPool)
    _RecordingPool.sizes = []
    for run in (run_cells, lambda cells: run_scenario_parallel(cells, workers=2)):
        with pytest.raises(ValueError, match="at least one cell"):
            run([])
        for other in (
            spec_for("H", reps=91),
            spec_for("H", reps=90, master_seed=2),
            ScenarioSpec(
                ScenarioParams(0.0, 0.5, 0.75), SampleSchedule((26, 35)), "H", replicates=90
            ),
        ):
            with pytest.raises(ValueError, match="must share"):
                run([spec_for("H", reps=90), other])
    assert _RecordingPool.sizes == []


def test_simulate_draws_each_block_once(tmp_path, monkeypatch):
    # A 3 x 3 run draws each block of replicates once, for all nine
    # cells, not once per cell; the block size changes no byte.
    args = [
        "simulate", "--scenarios", "(0,0,.5) (0,.5,.75) (0,.5,.75,.75)",
        "--procedure", "H,Mult,MultH", "--reps", "120", "--seed", "4", "--workers", "1",
    ]
    assert cli_main(args + ["--out", str(tmp_path / "whole.csv")]) == 0
    calls = []
    original = stepdown.harness.draw_replicates

    def counted(master_seed, rep_range, observations):
        calls.append(rep_range)
        return original(master_seed, rep_range, observations)

    monkeypatch.setattr(stepdown.harness, "draw_replicates", counted)
    monkeypatch.setattr(stepdown.harness, "BLOCK_OBSERVATIONS", 35 * 50)
    assert cli_main(args + ["--out", str(tmp_path / "blocks.csv")]) == 0
    assert calls == [(0, 50), (50, 100), (100, 120)]
    assert (tmp_path / "whole.csv").read_bytes() == (tmp_path / "blocks.csv").read_bytes()


def exact_tails(n):
    """2**n * P(Bin(n, 1/2) >= c) for c = 0..n+1, one integer per count."""
    coefs = [1]
    for x in range(n):
        coefs.append(coefs[-1] * (n - x) // (x + 1))
    return list(accumulate(reversed(coefs)))[::-1] + [0]


_LEVELS = st.one_of(
    st.floats(-12.0, 0.0).map(lambda e: 10.0**e).filter(lambda x: x < 1.0),
    st.floats(0.5, 1.0, exclude_max=True),
)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 2000), levels=st.lists(_LEVELS, min_size=1, max_size=4))
@example(n=35, levels=[0.05 / 3, 0.025, 0.05])
@example(n=35, levels=[0.5, 1e-12, 0.75, 0.5000000000000001])
@example(n=4, levels=[0.9375, 0.5])  # P(X >= 1) = 15/16: a tie below the middle
def test_binomial_cutoffs_match_binom_sf(n, levels):
    # The cutoff is exact.  scipy's float tail must decide every count the
    # same way, except at a level within its rounding of an exact tail on
    # either side of the cutoff: at n = 35 it rounds P(X >= 18) = 1/2 up
    # past 0.5000000000000001.
    tails = exact_tails(n)
    sf = scipy_stats.binom.sf(np.arange(n + 2) - 1, n, 0.5)
    cutoffs = _binomial_cutoffs(n, levels)
    assert len(cutoffs) == len(levels)
    for level, cutoff in zip(levels, cutoffs):
        scaled = Fraction(level) * 2**n
        assert 1 <= cutoff <= n + 1
        assert tails[cutoff] < scaled <= tails[cutoff - 1]
        if all(abs(scaled - tails[c]) * 10**12 > scaled for c in (cutoff - 1, cutoff)):
            assert cutoff == int(np.argmax(sf < level))


@pytest.mark.parametrize("n", [131_071, 131_072])
def test_binomial_cutoffs_at_the_longest_schedule(n):
    # The longest schedule a ScenarioSpec accepts, at H's levels.
    levels = (0.05 / 3, 0.025, 0.05)
    for level, cutoff in zip(levels, _binomial_cutoffs(n, levels)):
        assert scipy_stats.binom.sf(cutoff - 1, n, 0.5) < level
        assert scipy_stats.binom.sf(cutoff - 2, n, 0.5) >= level


def gaussian_p(z):
    """The one-sided p-value of a Gaussian statistic, as the one-replicate reference has it."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


@settings(max_examples=100, deadline=None)
@given(level=_LEVELS)
@example(level=0.05 / 3)
@example(level=0.5)
@example(level=0.5000000000000001)
@example(level=1e-12)
@example(level=0.9999999999999999)
def test_normal_cutoff_decides_as_the_p_value_does(level):
    cutoff = _normal_cutoff(level)
    # Levels above 1/2 are cleared by statistics at or below 0, since
    # the p-value of 0 is exactly 1/2.
    assert (cutoff <= 0.0) == (level > 0.5)
    assert gaussian_p(cutoff) < level <= gaussian_p(math.nextafter(cutoff, -math.inf))
    below = above = cutoff
    for _ in range(4096):
        below = math.nextafter(below, -math.inf)
        assert not gaussian_p(below) < level
        above = math.nextafter(above, math.inf)
        assert gaussian_p(above) < level
