import functools
import math
import multiprocessing
import tracemalloc
from fractions import Fraction
from itertools import accumulate, product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

import stepdown.harness
from stepdown.boundary import CriticalFunction, calibrate_levels
from stepdown.cli import default_table_config, parse_kv_text, parse_scenarios
from stepdown.cli import main as cli_main
from stepdown.core import HypothesisFamily, SampleSchedule, StatisticPaths
from stepdown.harness import (
    MAX_LOOKS,
    MAX_OBSERVATIONS,
    ScenarioSpec,
    _SYMBOLS,
    _binomial_cutoffs,
    _bits,
    _digits,
    _normal_cutoff,
    _transitions,
    _walk,
    merge,
    needed_levels,
    run_cells,
    run_scenario,
    run_scenario_parallel,
    split_ranges,
)
from stepdown.procedures import (
    HOLM, MULT, _decide_counts, _stage_bounds, _step_down, holm_fixed, run_multistage,
)
from stepdown.trial import ScenarioParams, draw_replicates, endpoint_from_draws, endpoint_keys

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


def test_spec_bounds_the_looks_and_the_observations():
    # A block holds KEY_BLOCK replicates' increments at every look, and the
    # binomial tables run to the last analysis.
    params = ScenarioParams(0.0, 0.0, 0.5)
    longest = ScenarioSpec(params, tuple(range(1, MAX_LOOKS + 1)), "H", replicates=20)
    assert run_scenario(longest).sum_measurements == 20 * 3 * MAX_LOOKS
    with pytest.raises(ValueError, match=f"at most {MAX_LOOKS} looks"):
        ScenarioSpec(params, tuple(range(1, MAX_LOOKS + 2)), "H")
    with pytest.raises(ValueError, match=f"and {MAX_OBSERVATIONS} observations"):
        ScenarioSpec(params, (MAX_OBSERVATIONS + 1,), "H")
    ScenarioSpec(params, (MAX_OBSERVATIONS,), "H")


def test_per_process_tables_are_built_once_and_read_only():
    assert _transitions() is _transitions()
    assert not any(column.flags.writeable for column in _transitions())
    first = _normal_cutoff(0.025)
    hits = _normal_cutoff.cache_info().hits
    assert _normal_cutoff(0.025) == first == _normal_cutoff.__wrapped__(0.025)
    assert _normal_cutoff.cache_info().hits == hits + 1


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
    assert not any(s.spec.params.truth)
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

    [identity] = run_cells([spec], (0, 0), CRITICAL)
    with_identity = merge(full, identity)
    assert with_identity == full


def test_an_empty_range_is_the_merge_identity():
    # run_cells on an empty range covers no replicate and counts nothing,
    # so merging it on either side leaves a summary as it was.
    cells = [spec_for(procedure, reps=200) for procedure in ("H", "Mult", "MultH")]
    for cell, identity in zip(cells, run_cells(cells, (0, 0), CRITICAL)):
        assert identity.spec == cell
        assert identity.rep_ranges == () and identity.replicates == 0
        assert identity.reject_counts == (0, 0, 0)
        assert (identity.sum_measurements, identity.sumsq_measurements) == (0, 0)
        assert identity.fwe_count == 0
        summary = run_scenario(cell, (40, 170), CRITICAL)
        assert merge(identity, summary) == summary
        assert merge(summary, identity) == summary


@pytest.mark.parametrize("params, fwe", [((0, 0, 0.5), math.nan), ((0.5, 0.5, 0.75), None)])
def test_an_empty_summary_has_no_statistics(params, fwe):
    # No replicate: every statistic is NaN, and FWE is None where no null is true.
    [empty] = run_cells([spec_for("MultH", params=ScenarioParams(*params))], (0, 0), CRITICAL)
    stats = [empty.em, empty.em_se, *map(empty.p_reject, range(3)),
             *map(empty.p_reject_se, range(3))]
    assert all(math.isnan(value) for value in stats)
    for value in (empty.fwe, empty.fwe_se):
        assert value is None if fwe is None else math.isnan(value)


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


def test_split_ranges(monkeypatch):
    # With key blocks of one replicate, any cut falls between key blocks.
    monkeypatch.setattr(stepdown.harness, "KEY_BLOCK", 1)
    assert split_ranges(10, 3) == [(0, 4), (4, 7), (7, 10)]
    assert split_ranges(2, 8) == [(0, 1), (1, 2)]
    assert sum(hi - lo for lo, hi in split_ranges(999, 7)) == 999


@pytest.mark.parametrize(
    "replicates, workers",
    [(1, 4), (1024, 2), (1025, 2), (3 * 1024 + 1, 7), (4096, 1024), (50_000, 2), (50_000, 3)],
)
def test_split_ranges_draw_each_key_block_once(replicates, workers):
    # Ranges cut only between key blocks, so across them each block is drawn once.
    block = stepdown.harness.KEY_BLOCK
    blocks = -(-replicates // block)
    ranges = split_ranges(replicates, workers)
    assert len(ranges) == min(workers, blocks)
    assert [lo for lo, _hi in ranges] + [replicates] == [0] + [hi for _lo, hi in ranges]
    assert all(lo < hi for lo, hi in ranges)
    drawn = [b for lo, hi in ranges for b in range(lo // block, -(-hi // block))]
    assert drawn == list(range(blocks))


def test_parallel_matches_serial():
    # Three key blocks: a pool runs three ranges.
    spec = spec_for("MultH", reps=2 * stepdown.harness.KEY_BLOCK + 120)
    assert len(split_ranges(spec.replicates, 4)) == 3
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
    monkeypatch.setattr(multiprocessing, "Pool", _RecordingPool)
    monkeypatch.setattr(stepdown.harness.os, "cpu_count", lambda: 3)
    # Ten key blocks of ten replicates: workers beyond ten add no range.
    monkeypatch.setattr(stepdown.harness, "KEY_BLOCK", 10)
    _RecordingPool.sizes = []
    spec = spec_for("H", reps=100)
    many = run_scenario_parallel([spec], workers=50_000)
    assert _RecordingPool.sizes == [3]
    assert many == run_scenario_parallel([spec], workers=1)
    run_scenario_parallel([spec], workers=2)
    assert _RecordingPool.sizes == [3, 2]
    # One key block is one range, run without a pool.
    monkeypatch.setattr(stepdown.harness, "KEY_BLOCK", 100)
    assert run_scenario_parallel([spec], workers=4) == many
    assert _RecordingPool.sizes == [3, 2]


def test_simulate_opens_one_pool_per_run(tmp_path, monkeypatch):
    # One pool serves every cell of a multi-cell run.
    args = [
        "simulate", "--scenarios", "(0,0,.5) (0,.5,.75,.75)", "--procedure", "H,Mult,MultH",
        "--reps", "30", "--seed", "4",
    ]
    assert cli_main(args + ["--workers", "1", "--out", str(tmp_path / "w1.csv")]) == 0
    monkeypatch.setattr(multiprocessing, "Pool", _RecordingPool)
    monkeypatch.setattr(stepdown.harness.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(stepdown.harness, "KEY_BLOCK", 10)  # three key blocks
    _RecordingPool.sizes = []
    assert cli_main(args + ["--workers", "3", "--out", str(tmp_path / "w3.csv")]) == 0
    assert _RecordingPool.sizes == [3]
    assert (tmp_path / "w1.csv").read_bytes() == (tmp_path / "w3.csv").read_bytes()


def test_worker_count_cannot_change_counts():
    reps = 2 * stepdown.harness.KEY_BLOCK + 90  # three key blocks, one per worker
    spec = spec_for("H", reps=reps, params=ScenarioParams(0.0, 0.0, 0.5))
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
    block = draw(st.sampled_from([7, 32, stepdown.harness.KEY_BLOCK]))
    return cells, pieces, order, block


@settings(max_examples=40, deadline=None)
@given(_grouped_runs())
def test_grouped_run_matches_each_cell_alone(run):
    # Cells run together over any partition of the replicates, merged in
    # any order and stepping any number of replicates per block, give each
    # cell's own summary.
    cells, pieces, order, block = run
    alone = [run_scenario(cell, critical=CRITICAL) for cell in cells]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(stepdown.harness, "KEY_BLOCK", block)
        parts = [run_cells(cells, pieces[i], CRITICAL) for i in order]
    merged = run_cells(cells, (0, 0), CRITICAL)
    for part in parts:
        merged = [merge(a, b) for a, b in zip(merged, part)]
    assert merged == alone


def test_h_cells_with_different_alphas_keep_their_own_cutoffs():
    # run_cells builds one H cutoff table per distinct alpha.
    cells = [spec_for("H", alpha=alpha) for alpha in (0.05, 0.2, 0.05)]
    assert run_cells(cells) == [run_scenario(cell) for cell in cells]


def test_holm_is_the_all_active_row_of_the_transition_table():
    # Every symbol of Holm counts: the look step with all three endpoints
    # active rejects what holm_fixed's _step_down rejects, and one look at
    # the last analysis measures every endpoint in full.
    symbols = np.arange(_SYMBOLS)
    table = _transitions()
    holm = _bits(_step_down(_digits(symbols), 3))
    assert table[1][7 * _SYMBOLS + symbols].tolist() == holm.tolist()
    rejected, total = _walk(symbols[None], (35,))
    assert rejected.tolist() == holm.tolist()
    assert total.tolist() == [3 * 35] * _SYMBOLS


@pytest.mark.parametrize("correction", [False, True])
def test_h_ignores_the_interim_looks(correction, monkeypatch):
    # H reads only each endpoint's final value: with every interim sum and
    # statistic moved to +inf, where it would clear any boundary, H's
    # counts stay the same.
    params = ScenarioParams(0.0, 0.5, 0.75, 0.5)
    spec = ScenarioSpec(params, (26, 29, 35), "H", 0.05, 700, 11, correction)
    plain = run_scenario(spec)
    form = stepdown.harness.endpoint_from_draws

    def interim_at_infinity(*args):
        sums, values = form(*args)
        sums[:-1] = values[:-1] = np.inf
        return sums, values

    monkeypatch.setattr(stepdown.harness, "endpoint_from_draws", interim_at_infinity)
    moved = run_scenario(spec)
    assert all(plain.reject_counts) and plain.fwe_count > 0
    assert plain.reject_counts == moved.reject_counts
    assert plain.fwe_count == moved.fwe_count
    assert (plain.sum_measurements, plain.sumsq_measurements) == (
        moved.sum_measurements, moved.sumsq_measurements,
    )


@functools.cache
def _calibrated(looks, shape):
    """A boundary on ``looks`` analyses covering both staged procedures at alphas 0.05 and 0.1."""
    schedule = SampleSchedule(tuple(range(6, 6 + 4 * looks, 4)))
    levels = sorted({x for alpha in (0.05, 0.1) for x in needed_levels(("Mult", "MultH"), alpha)})
    return calibrate_levels(schedule, levels, shape)


def _one_replicate_summary(spec, critical):
    """A staged cell's accumulators from run_multistage, one replicate at a time."""
    rule = {"Mult": MULT, "MultH": HOLM}[spec.procedure]
    z, u = draw_replicates(spec.master_seed, (0, spec.replicates), len(spec.schedule))
    keys = endpoint_keys(spec.params, spec.continuity_correction)
    values = np.stack([endpoint_from_draws(key, spec.schedule, z, u)[1] for key in keys])
    totals, counts, fwe = [], [0, 0, 0], 0
    for stats in values.transpose(2, 0, 1):
        result = run_multistage(
            StatisticPaths(spec.schedule.analyses, stats), HypothesisFamily(3),
            spec.schedule, critical, spec.alpha, rule,
        )
        totals.append(result.total_measurements)
        counts = [c + x for c, x in zip(counts, result.rejected)]
        fwe += any(x and t for x, t in zip(result.rejected, spec.params.truth))
    return sum(totals), sum(t * t for t in totals), tuple(counts), fwe


def _holm_fixed_summary(spec):
    """An H cell's accumulators from holm_fixed on exact final p-values, one replicate at a time.

    The Gaussian p-values are ``0.5 * erfc(z / sqrt(2))``; the binary one
    is the exact tail P(Bin(n, 1/2) >= S_n), a float without rounding
    while n stays below 53.
    """
    z, u = draw_replicates(spec.master_seed, (0, spec.replicates), len(spec.schedule))
    keys = endpoint_keys(spec.params, spec.continuity_correction)
    (_, v1), (_, v2), (s3, _) = (endpoint_from_draws(key, spec.schedule, z, u) for key in keys)
    n = spec.schedule.sup
    assert n < 53
    tails = exact_tails(n)
    counts, fwe = [0, 0, 0], 0
    for z1, z2, count in zip(v1[-1].tolist(), v2[-1].tolist(), s3[-1].tolist()):
        p_values = [0.5 * math.erfc(z / math.sqrt(2.0)) for z in (z1, z2)]
        rejected = holm_fixed(p_values + [tails[int(count)] / 2**n], spec.alpha).tolist()
        counts = [c + x for c, x in zip(counts, rejected)]
        fwe += any(x and t for x, t in zip(rejected, spec.params.truth))
    each = 3 * n  # every endpoint runs to the last analysis
    return spec.replicates * each, spec.replicates * each * each, tuple(counts), fwe


_STAGED_CELLS = [
    (procedure, alpha, params, correction)
    for procedure in ("Mult", "MultH")
    for alpha in (0.05, 0.1)
    for params in _CELL_PARAMS
    for correction in (False, True)
]
_H_CELLS = [
    ("H", alpha, params, correction)
    for alpha in (0.05, 0.1)
    for params in _CELL_PARAMS
    for correction in (False, True)
]


@settings(max_examples=40, deadline=None)
@given(
    cells=st.lists(st.sampled_from(_STAGED_CELLS), min_size=1, max_size=6, unique=True),
    looks=st.integers(1, 12),
    shape=st.sampled_from(("flat", "obrien-fleming")),
    seed=st.integers(1, 2**32),
)
# Twelve looks under both rules and both alphas: a replicate's counts
# would need 4 ** 36 > 2 ** 63 codes if packed into one integer, while
# each look's symbol stays one of 4 ** 3.
@example(
    cells=[("MultH", 0.05, _CELL_PARAMS[1], False), ("MultH", 0.1, _CELL_PARAMS[2], True),
           ("Mult", 0.1, _CELL_PARAMS[3], False)],
    looks=12, shape="flat", seed=7,
)
def test_pooled_staged_cells_match_each_cell_and_one_replicate_loop(cells, looks, shape, seed):
    # Staged cells of both rules and alphas, each counted against its own
    # rule's rows and walked through one transition table, equal each cell
    # run alone and the one-replicate engine.
    critical = _calibrated(looks, shape)
    specs = [
        ScenarioSpec(params, critical.schedule, procedure, alpha, 60, seed, correction)
        for procedure, alpha, params, correction in cells
    ]
    pooled = run_cells(specs, critical=critical)
    assert pooled == [run_scenario(spec, critical=critical) for spec in specs]
    for spec, summary in zip(specs, pooled):
        assert _one_replicate_summary(spec, critical) == (
            summary.sum_measurements, summary.sumsq_measurements,
            summary.reject_counts, summary.fwe_count,
        )


@settings(max_examples=30, deadline=None)
@given(
    h_cells=st.lists(st.sampled_from(_H_CELLS), min_size=1, max_size=6, unique=True),
    staged=st.lists(st.sampled_from(_STAGED_CELLS), max_size=2, unique=True),
    looks=st.integers(1, 12),
    seed=st.integers(1, 2**32),
)
@example(
    h_cells=[("H", 0.05, _CELL_PARAMS[0], False), ("H", 0.1, _CELL_PARAMS[2], True),
             ("H", 0.05, _CELL_PARAMS[3], True), ("H", 0.1, _CELL_PARAMS[3], False)],
    staged=[("MultH", 0.1, _CELL_PARAMS[1], False)],
    looks=3, seed=11,
)
def test_pooled_h_cells_match_each_cell_and_holm_fixed(h_cells, staged, looks, seed):
    # H cells at both alphas, each alpha's groups walked side by side and
    # beside staged cells, equal each cell run alone and holm_fixed on each
    # replicate's exact final p-values.
    critical = _calibrated(looks, "flat")
    specs = [
        ScenarioSpec(params, critical.schedule, procedure, alpha, 60, seed, correction)
        for procedure, alpha, params, correction in h_cells + staged
    ]
    pooled = run_cells(specs, critical=critical)
    assert pooled == [run_scenario(spec, critical=critical) for spec in specs]
    for spec, summary in zip(specs[: len(h_cells)], pooled):
        assert _holm_fixed_summary(spec) == (
            summary.sum_measurements, summary.sumsq_measurements,
            summary.reject_counts, summary.fwe_count,
        )


@settings(max_examples=60, deadline=None)
@given(
    looks=st.integers(1, 12),
    rule=st.sampled_from((HOLM, MULT)),
    alpha=st.sampled_from((0.05, 0.1)),
    reps=st.integers(2, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_table_walk_matches_the_count_engine(looks, rule, alpha, reps, seed):
    # Statistics on a boundary entry, one ulp to either side of one, or at
    # infinity, counted against the rule's own rows; replicate 0 clears
    # every row at every look, so it stops at the first, and replicate 1
    # clears none, so it runs to the last.
    critical = _calibrated(looks, "flat")
    analyses = critical.schedule.analyses
    family = HypothesisFamily(3)
    bounds = np.array(_stage_bounds(family, critical.schedule, critical, alpha, rule))
    entries = np.concatenate([
        bounds, np.nextafter(bounds, np.inf), np.nextafter(bounds, -np.inf),
        np.full((2, looks), [[np.inf], [-np.inf]]),
    ])
    rng = np.random.default_rng(seed)
    values = entries[rng.integers(len(entries), size=(reps, 3, looks)), np.arange(looks)]
    values[0], values[1] = np.inf, -np.inf
    counts = sum(values >= row for row in bounds)
    rejected, final_n = _decide_counts(counts, np.zeros((3, 3), dtype=bool), analyses, False)
    # Endpoint i's count is digit i of the symbol in base k + 1 = 4.
    symbols = (counts.astype(np.intp) * [[1], [4], [16]]).sum(axis=1)
    walked, total = _walk(symbols.T, analyses)
    assert walked.tolist() == (rejected @ [1, 2, 4]).tolist()
    assert total.tolist() == final_n.sum(axis=1).tolist()
    assert walked[0] == 7 and total[0] == 3 * analyses[0]
    assert walked[1] == 0 and total[1] == 3 * analyses[-1]


@pytest.mark.parametrize("rule, sequences", [(HOLM, 64**2), (MULT, 8**2)])
def test_table_walk_matches_the_scalar_engine_on_every_two_look_sequence(rule, sequences):
    # Every joint count sequence of two looks, each statistic placed
    # strictly between the rule's rows that give its count: the table
    # walk and run_multistage, which never calls _look_step, decide alike.
    # Mult's rows are one boundary, so its counts are 0 or 3 only.
    critical = _calibrated(2, "flat")
    analyses = critical.schedule.analyses
    family = HypothesisFamily(3)
    rows = np.array(_stage_bounds(family, critical.schedule, critical, 0.05, rule))
    # values[j][c]: a look-j statistic whose count is c.
    values = []
    for j in range(2):
        edges = [-math.inf, *rows[:, j].tolist(), math.inf]
        look = {}
        for c, (lo, hi) in enumerate(zip(edges, edges[1:])):
            if lo < hi:
                x = hi - 1.0 if lo == -math.inf else lo + 1.0 if hi == math.inf else (lo + hi) / 2
                assert lo < x < hi
                look[c] = x
        values.append(look)
    per_look = [list(product(*[sorted(look)] * 3)) for look in values]
    digits = list(product(*per_look))
    assert len(digits) == sequences
    # Endpoint i's count is digit i of the symbol in base k + 1 = 4.
    symbols = (np.array(digits) * [1, 4, 16]).sum(axis=2).T
    walked, total = _walk(symbols, analyses)
    for seq, got, measured in zip(digits, walked.tolist(), total.tolist()):
        stats = np.array([[values[j][c] for j, c in enumerate(counts)] for counts in zip(*seq)])
        result = run_multistage(
            StatisticPaths(analyses, stats), family, critical.schedule, critical, 0.05, rule
        )
        assert got == _bits(np.array(result.rejected))
        assert measured == result.total_measurements


def test_many_small_blocks_give_the_one_block_csv(tmp_path, monkeypatch):
    # Each cell tallies its rejected sets and measurements across blocks
    # and builds its summary once: 86 blocks of at most 7 replicates give
    # the bytes of one block of 600.  Stepping 7 replicates at a time
    # changes the blocks run_cells steps, not the key blocks drawn.
    args = [
        "simulate", "--config", default_table_config(), "--reps", "600", "--workers", "1",
        "--continuity-correction", "true",
    ]
    assert cli_main(args + ["--out", str(tmp_path / "one.csv")]) == 0
    calls = []
    original = stepdown.harness.draw_replicates

    def counted(master_seed, rep_range, looks):
        calls.append(rep_range[1] - rep_range[0])
        return original(master_seed, rep_range, looks)

    monkeypatch.setattr(stepdown.harness, "draw_replicates", counted)
    monkeypatch.setattr(stepdown.harness, "KEY_BLOCK", 7)
    assert cli_main(args + ["--out", str(tmp_path / "many.csv")]) == 0
    assert calls == [7] * 85 + [5]
    assert (tmp_path / "many.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()


def test_a_block_of_many_groups_holds_bounded_memory():
    # 100 groups (5 x 5 x 4 scenarios) of one MultH decision, 128 looks and
    # one key block of 1,024 replicates.  Walking the groups together must
    # not make the block's memory grow with them: the peak stays within
    # 1.77 times the bytes of the block's formed paths.  One walk per group
    # reached 1.772 on this call, and one unsliced walk of all 100 groups 3.17.
    looks, reps = MAX_LOOKS, stepdown.harness.KEY_BLOCK
    schedule = tuple(range(10, 10 * (looks + 1), 10))
    levels = needed_levels(("MultH",), 0.05)
    critical = CriticalFunction(schedule, {level: (3.0 - 10 * level,) * looks for level in levels})
    cells = [
        ScenarioSpec(ScenarioParams(mu1, mu2, p), schedule, "MultH", 0.05, reps, 3)
        for mu1 in (0.0, 0.1, 0.2, 0.3, 0.4)
        for mu2 in (0.0, 0.1, 0.2, 0.3, 0.4)
        for p in (0.5, 0.6, 0.7, 0.8)
    ]
    keys = {key for cell in cells for key in endpoint_keys(cell.params, False)}
    paths = len(keys) * 2 * looks * reps * np.dtype(float).itemsize  # sums and values
    run_cells(cells, (0, 1), critical)  # the per-process tables, built outside the trace
    tracemalloc.start()
    try:
        run_cells(cells, critical=critical)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.77 * paths


def test_a_missing_level_raises_before_any_block_is_drawn(monkeypatch):
    # MultH at 0.1 needs levels this boundary lacks.
    monkeypatch.setattr(stepdown.harness, "draw_replicates", None)
    with pytest.raises(ValueError, match="boundary lacks critical values for level"):
        run_cells([spec_for("Mult"), spec_for("MultH", alpha=0.1)], critical=CRITICAL)
    with pytest.raises(ValueError, match="disagree on the analysis sizes"):
        run_cells([spec_for("Mult")], critical=_calibrated(3, "flat"))


def test_run_cells_rejects_cells_that_cannot_share_draws(monkeypatch):
    # run_scenario_parallel checks its cells before it opens a pool.
    monkeypatch.setattr(multiprocessing, "Pool", _RecordingPool)
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

    def counted(master_seed, rep_range, looks):
        calls.append(rep_range)
        return original(master_seed, rep_range, looks)

    monkeypatch.setattr(stepdown.harness, "draw_replicates", counted)
    monkeypatch.setattr(stepdown.harness, "KEY_BLOCK", 50)
    assert cli_main(args + ["--out", str(tmp_path / "blocks.csv")]) == 0
    assert calls == [(0, 50), (50, 100), (100, 120)]
    assert (tmp_path / "whole.csv").read_bytes() == (tmp_path / "blocks.csv").read_bytes()


def test_simulate_forms_each_endpoint_once_per_block(tmp_path, monkeypatch):
    # table1's 8 scenarios read 3 first means, 5 (correlation, second
    # mean) pairs and 2 rates: 10 endpoint paths per block, not 8 x 3.
    args = ["simulate", "--config", default_table_config(), "--reps", "600", "--workers", "1"]
    assert cli_main(args + ["--out", str(tmp_path / "whole.csv")]) == 0
    calls = []
    original = stepdown.harness.endpoint_from_draws

    def counted(key, schedule, z, u):
        calls.append((len(z), key))
        return original(key, schedule, z, u)

    monkeypatch.setattr(stepdown.harness, "endpoint_from_draws", counted)
    assert cli_main(args + ["--out", str(tmp_path / "once.csv")]) == 0
    assert len(calls) == 10
    assert len({key for _, key in calls}) == 10
    assert sorted(key[0] for _, key in calls) == [0] * 3 + [1] * 5 + [2] * 2

    calls.clear()
    monkeypatch.setattr(stepdown.harness, "KEY_BLOCK", 250)
    assert cli_main(args + ["--out", str(tmp_path / "blocks.csv")]) == 0
    assert [reps for reps, _ in calls] == [250] * 10 + [250] * 10 + [100] * 10
    whole = (tmp_path / "whole.csv").read_bytes()
    assert (tmp_path / "once.csv").read_bytes() == whole
    assert (tmp_path / "blocks.csv").read_bytes() == whole


def test_h_groups_stay_out_of_the_staged_pool(monkeypatch):
    # Eight H cells on table1's scenarios and one MultH cell: the eight H
    # groups walk the last analysis alone, side by side, the MultH one walks
    # the schedule, and only the MultH cell's keys are counted against its rows.
    with open(default_table_config()) as fh:
        scenarios = parse_scenarios(parse_kv_text(fh.read())["scenarios"])
    staged = ScenarioParams(0.4, 0.4, 0.75)
    cells = [spec_for("H", reps=600, params=params) for params in scenarios]
    cells.append(spec_for("MultH", reps=600, params=staged))
    walks, compared = [], []

    class Path(np.ndarray):
        """A statistic path that logs its key and the shape of the rows it is compared with."""

        def __array_finalize__(self, obj):
            self.key = getattr(obj, "key", None)

        def __ge__(self, rows):
            compared.append((self.key, np.shape(rows)))
            return np.asarray(self) >= rows

    walk, form = stepdown.harness._walk, stepdown.harness.endpoint_from_draws

    def spied_walk(symbols, looks):
        walks.append((symbols.shape[1], tuple(looks)))
        return walk(symbols, looks)

    def spied_form(key, *args):
        sums, values = form(key, *args)
        values = values.view(Path)
        values.key = key
        return sums, values

    monkeypatch.setattr(stepdown.harness, "_walk", spied_walk)
    monkeypatch.setattr(stepdown.harness, "endpoint_from_draws", spied_form)
    together = run_cells(cells, critical=CRITICAL)
    assert walks == [(8 * 600, (35,)), (600, SCHED.analyses)]
    # Three stage rows per key, each with one entry per look of the schedule.
    against_rows = [
        key for key, shape in compared if shape[1] == len(SCHED) for _ in range(shape[0])
    ]
    assert sorted(against_rows, key=repr) == sorted(endpoint_keys(staged, False) * 3, key=repr)
    monkeypatch.undo()
    assert together == [run_scenario(cell, critical=CRITICAL) for cell in cells]


# Pairs of cells that differ in one endpoint's parameters only: the same
# first mean and rate but another second mean, the same second mean but
# another correlation, the same rate but another correction.
_ONE_SHARED = [
    (ScenarioParams(0.4, 0.0, 0.75), False),
    (ScenarioParams(0.4, 0.5, 0.75), False),
    (ScenarioParams(0.0, 0.5, 0.5), False),
    (ScenarioParams(0.0, 0.5, 0.5, 0.75), False),
    (ScenarioParams(0.0, 0.0, 0.75), False),
    (ScenarioParams(0.0, 0.0, 0.75), True),
]


@pytest.mark.parametrize("procedure", ["H", "Mult", "MultH"])
def test_cells_sharing_one_endpoint_keep_the_others_apart(procedure):
    # A path memo keyed without the second mean, the correlation or the
    # correction would hand one of each pair the other's endpoint.
    specs = [
        spec_for(procedure, reps=300, params=params, continuity_correction=correction)
        for params, correction in _ONE_SHARED
    ]
    together = run_cells(specs, critical=CRITICAL)
    assert together == [run_scenario(spec, critical=CRITICAL) for spec in specs]
    accumulators = [
        (s.sum_measurements, s.sumsq_measurements, s.reject_counts, s.fwe_count)
        for s in together
    ]
    # H reads the binary endpoint's count, which the correction does not move.
    pairs = list(zip(accumulators[::2], accumulators[1::2]))
    for a, b in pairs[:2] if procedure == "H" else pairs:
        assert a != b
    if procedure != "H":
        for spec, summary in zip(specs, accumulators):
            assert _one_replicate_summary(spec, CRITICAL) == summary


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
