import numpy as np
import pytest

import stepdown.harness
from stepdown.core import SampleSchedule
from stepdown.harness import (
    ScenarioSpec,
    build_critical,
    empty_summary,
    merge,
    needed_levels,
    run_scenario,
    run_scenario_parallel,
    split_ranges,
)
from stepdown.trial import ScenarioParams

SCHED = SampleSchedule((26, 29, 35))


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
    with pytest.raises(ValueError, match="unknown procedure"):
        spec_for("MultH-closed")


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
    s = run_scenario(spec_for("MultH", reps=400))
    assert s.em < 105.0
    assert s.em_se > 0.0


def test_fwe_none_when_no_true_null():
    s = run_scenario(spec_for("MultH", reps=50, params=ScenarioParams(0.5, 0.5, 0.75)))
    assert not s.any_true_null
    assert s.fwe is None and s.fwe_se is None


def test_fwe_at_most_sum_of_true_null_rejections():
    s = run_scenario(spec_for("MultH", reps=400, params=ScenarioParams(0.0, 0.0, 0.5)))
    assert s.fwe is not None
    assert s.fwe <= (s.p_reject(0) + s.p_reject(1) + s.p_reject(2)) + 1e-12


def test_rep_range_validation():
    spec = spec_for("MultH", reps=100)
    with pytest.raises(ValueError, match="rep_range"):
        run_scenario(spec, rep_range=(50, 150))
    with pytest.raises(ValueError, match="rep_range"):
        run_scenario(spec, rep_range=(-1, 10))


def test_merge_identity_and_halves():
    spec = spec_for("MultH", reps=300)
    critical = build_critical(spec)
    full = run_scenario(spec, critical=critical)
    left = run_scenario(spec, rep_range=(0, 150), critical=critical)
    right = run_scenario(spec, rep_range=(150, 300), critical=critical)

    merged = merge(left, right)
    assert merged == full  # integer accumulators make this exact

    with_identity = merge(full, empty_summary(spec))
    assert with_identity == full


def test_merge_rejects_mismatched_specs():
    a = run_scenario(spec_for("MultH", reps=10))
    b = run_scenario(spec_for("Mult", reps=10))
    with pytest.raises(ValueError, match="different scenario specs"):
        merge(a, b)


def test_merge_rejects_overlap():
    spec = spec_for("MultH", reps=100)
    critical = build_critical(spec)
    a = run_scenario(spec, rep_range=(0, 60), critical=critical)
    b = run_scenario(spec, rep_range=(40, 100), critical=critical)
    with pytest.raises(ValueError, match="overlap"):
        merge(a, b)


def test_partition_invariance():
    # Any partition of the replicate range merges to the same summary.
    spec = spec_for("Mult", reps=240)
    critical = build_critical(spec)
    full = run_scenario(spec, critical=critical)
    cuts = [0, 17, 64, 100, 201, 240]
    parts = [
        run_scenario(spec, rep_range=(lo, hi), critical=critical)
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
    serial = run_scenario_parallel(spec, workers=1)
    parallel = run_scenario_parallel(spec, workers=4)
    assert serial == parallel


def test_parallel_uses_given_critical(monkeypatch):
    spec = spec_for("Mult", reps=60)
    critical = build_critical(spec)

    def no_calibration(*args, **kwargs):
        raise AssertionError("a supplied boundary must not be recalibrated")

    monkeypatch.setattr(stepdown.harness, "calibrate_levels", no_calibration)
    assert run_scenario_parallel(spec, workers=1, critical=critical) == run_scenario(
        spec, critical=critical
    )


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
    many = run_scenario_parallel(spec, workers=50_000)
    assert _RecordingPool.sizes == [3]
    assert many == run_scenario_parallel(spec, workers=1)
    run_scenario_parallel(spec, workers=2)
    assert _RecordingPool.sizes == [3, 2]


def test_worker_count_cannot_change_counts():
    spec = spec_for("H", reps=90, params=ScenarioParams(0.0, 0.0, 0.5))
    one = run_scenario_parallel(spec, workers=1)
    three = run_scenario_parallel(spec, workers=3)
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
    s0 = run_scenario(base)
    s1 = run_scenario(corrected)
    # The correction lowers the binary statistic, never raising its
    # rejection count.  Gaussian counts may shift slightly because the
    # binary rejections feed the step-down relaxation.
    assert s1.reject_counts[2] <= s0.reject_counts[2]
    assert s1.reject_counts[2] < s0.reject_counts[2] or s1 == s0
