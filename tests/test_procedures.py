import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from stepdown.boundary import CriticalFunction, normal_quantile
from stepdown.core import HypothesisFamily, SampleSchedule, StatisticPaths
from stepdown.procedures import (
    CLOSED,
    HOLM,
    MULT,
    RULES,
    _stage_bounds,
    holm_closed,
    holm_fixed,
    run_multistage,
    run_multistage_batch,
    stage_levels,
)

from multistage_replay import replay_multistage

ALPHA = 0.05
SCHED = SampleSchedule((26, 29, 35))


def flat_table(levels_to_value, analyses=(26, 29, 35)):
    table = {rho: tuple(v for _ in analyses) for rho, v in levels_to_value.items()}
    return CriticalFunction(analyses, table)


def quantile_critical(alpha, k, analyses=(17,)):
    """Critical values equal to the per-level upper null quantiles."""
    levels = {alpha / (k - j) for j in range(k)} | {alpha / k, alpha}
    table = {rho: tuple(normal_quantile(1.0 - rho) for _ in analyses) for rho in levels}
    return CriticalFunction(analyses, table)


def paths_from_stats(stats, analyses=(26, 29, 35)):
    values = np.tile(np.asarray(stats, dtype=float)[:, None], (1, len(analyses)))
    return StatisticPaths(tuple(analyses), values)


def test_holm_fixed_worked_example():
    # Thresholds step through 0.016667, 0.025, 0.05 as rejections accrue.
    rej = holm_fixed([0.01, 0.02, 0.20], ALPHA)
    assert rej.tolist() == [True, True, False]


def test_holm_fixed_all_ones_accepts():
    assert not holm_fixed([1.0, 1.0, 1.0], ALPHA).any()


def test_holm_fixed_single_hypothesis():
    assert holm_fixed([0.04], ALPHA).tolist() == [True]
    assert holm_fixed([0.06], ALPHA).tolist() == [False]


def test_holm_fixed_stops_at_first_failure():
    # The second-smallest p-value misses alpha/2, so the smallest is the
    # only rejection even though 0.04 < alpha.
    rej = holm_fixed([0.01, 0.04, 0.03], ALPHA)
    assert rej.tolist() == [True, False, False]


def test_holm_fixed_tie_broken_by_index():
    rej = holm_fixed([0.02, 0.02, 0.9], 0.05)
    # Both tied values pass their thresholds here; the tie-break shows up
    # in which one is charged the stricter level.  With the tie at 0.02,
    # H1 faces 0.05/3 and fails, which also blocks H2.
    assert rej.tolist() == [False, False, False]
    rej = holm_fixed([0.01, 0.01, 0.9], 0.05)
    assert rej.tolist() == [True, True, False]


def test_holm_fixed_monotone_in_alpha():
    rng = np.random.default_rng(7)
    for _ in range(200):
        p = rng.uniform(size=5)
        small = holm_fixed(p, 0.03)
        large = holm_fixed(p, 0.08)
        assert np.all(large[small])  # rejections only grow with alpha


@pytest.mark.parametrize("rule", RULES)
@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_stage_bounds_do_not_decrease_with_the_active_count(rule, k):
    # The count engine reads a statistic as the number of rows it clears,
    # which holds only if clearing row m means clearing every row before.
    rng = np.random.default_rng(k)
    levels = sorted(set(stage_levels(rule, ALPHA, k)) | {ALPHA / 7, ALPHA / 2})
    raw = np.sort(np.round(rng.uniform(0.5, 3.0, (len(levels), 3)) * 2.0) / 2.0, axis=0)[::-1]
    critical = CriticalFunction(SCHED.analyses, dict(zip(levels, map(tuple, raw))))
    family = HypothesisFamily(k=k, closed_monotone=True)
    rows = np.asarray(_stage_bounds(family, SCHED, critical, ALPHA, rule))
    assert rows.shape == (k, len(SCHED))
    assert (rows[1:] >= rows[:-1]).all()


def test_holm_closed_worked_example():
    # Intersection family tested at plain alpha each step: the 0.20
    # p-value is the first failure and everything after it is accepted.
    fam = HypothesisFamily(k=3, labels=("AB", "A", "B"), closed_monotone=True)
    rej = holm_closed([0.01, 0.20, 0.03], ALPHA, fam)
    assert rej.tolist() == [True, False, True]


def test_holm_closed_all_ones_accepts():
    fam = HypothesisFamily(k=3, closed_monotone=True)
    assert not holm_closed([1.0, 1.0, 1.0], ALPHA, fam).any()


def test_holm_closed_implied_acceptance():
    # H2 contains the complement of H1, so rejecting H1 certifies H2
    # without testing it, even at a p-value that would itself reject.
    rel = ((False, True), (False, False))
    fam = HypothesisFamily(k=2, contains_complement=rel, closed_monotone=True)
    rej = holm_closed([0.001, 0.002], ALPHA, fam)
    assert rej.tolist() == [True, False]


def test_holm_closed_differs_from_the_one_look_closed_walk():
    # Why holm_closed stays beside run_multistage: it tests one
    # hypothesis at a time, so rejecting H1 accepts H2, which contains
    # H1's complement, before H2 is tested.  A multistage stage rejects
    # the whole qualifying prefix of its order at once and applies the
    # implied acceptances after it, so on one look at the exact quantile
    # the closed walk rejects both.
    rel = ((False, True), (False, False))
    fam = HypothesisFamily(k=2, contains_complement=rel, closed_monotone=True)
    p = [0.001, 0.002]
    assert holm_closed(p, ALPHA, fam).tolist() == [True, False]
    critical = quantile_critical(ALPHA, 2)
    assert critical.boundary(ALPHA).tolist() == [normal_quantile(1.0 - ALPHA)]
    paths = StatisticPaths((17,), np.array([[normal_quantile(1.0 - q)] for q in p]))
    result = run_multistage(paths, fam, SampleSchedule((17,)), critical, ALPHA, CLOSED)
    assert result.rejected == (True, True)


def test_holm_closed_requires_flag():
    fam = HypothesisFamily.simple(2)
    with pytest.raises(ValueError, match="closed_monotone"):
        holm_closed([0.01, 0.02], ALPHA, fam)


def test_holm_closed_contains_holm_fixed():
    # Without containments, testing every step at plain alpha can only
    # reject more than the stepped-down thresholds.
    rng = np.random.default_rng(11)
    fam = HypothesisFamily(k=4, closed_monotone=True)
    for _ in range(300):
        p = rng.uniform(size=4) ** 2
        fixed = holm_fixed(p, ALPHA)
        closed = holm_closed(p, ALPHA, fam)
        assert np.all(closed[fixed])


def first_stage(stats, critical, rule=HOLM, family=None):
    """The first stage record of a run on statistics constant across analyses."""
    paths = paths_from_stats(stats)
    family = family or HypothesisFamily.simple(len(stats))
    return run_multistage(paths, family, SCHED, critical, ALPHA, rule).stages[0]


def test_stage_sample_size_first_crossing():
    crit = flat_table({ALPHA / 3.0: 2.8, ALPHA / 2.0: 2.6, ALPHA: 2.2})
    values = np.array([[2.9, 0.0, 0.0], [1.0, 1.1, 1.2], [0.0, 0.0, 0.0]])
    paths = StatisticPaths((26, 29, 35), values)
    res = run_multistage(paths, HypothesisFamily.simple(3), SCHED, crit, ALPHA)
    assert res.stages[0].n == 26
    assert res.stages[0].ordered == (0, 1, 2)
    assert res.stages[0].rejected == (0,)


def test_stage_sample_size_no_crossing():
    # mult tests every stage at alpha/3, the one level in the table.
    crit = flat_table({ALPHA / 3.0: 2.8})
    paths = paths_from_stats([1.0, 2.0, 0.5])
    res = run_multistage(paths, HypothesisFamily.simple(3), SCHED, crit, ALPHA, MULT)
    assert res.stages == ()
    assert res.endpoint_final_n == (35, 35, 35)


def test_stage_sample_size_excludes_prev_n():
    # Stage 1 ends at n=29.  At the relaxed level the survivor's 2.5 at
    # n=26 would cross, but 29 observations are spent, so stage 2 looks
    # only past 29 and crosses at 35.
    crit = flat_table({ALPHA / 2.0: 2.8, ALPHA: 2.2})
    values = np.array([[0.0, 3.0, 0.0], [2.5, 2.0, 2.7]])
    paths = StatisticPaths((26, 29, 35), values)
    res = run_multistage(paths, HypothesisFamily.simple(2), SCHED, crit, ALPHA)
    assert [(rec.n, rec.ordered, rec.rejected) for rec in res.stages] == [
        (29, (0, 1), (0,)),
        (35, (1,), (1,)),
    ]


def test_stage_rejections_prefix_stops_midway():
    crit = flat_table({ALPHA / 3.0: 2.8, ALPHA / 2.0: 2.6, ALPHA: 2.2})
    rec = first_stage([3.0, 2.5, 1.0], crit)
    assert (rec.n, rec.ordered) == (26, (0, 1, 2))
    assert rec.rejected == (0,)  # 2.5 < 2.6 blocks the second position


def test_stage_rejections_full_prefix():
    crit = flat_table({ALPHA / 3.0: 2.8, ALPHA / 2.0: 2.6, ALPHA: 2.2})
    rec = first_stage([3.0, 2.7, 2.3], crit)
    assert (rec.n, rec.ordered) == (26, (0, 1, 2))
    assert rec.rejected == (0, 1, 2)


def test_stage_rejections_orders_by_statistic():
    crit = flat_table({ALPHA / 3.0: 2.8, ALPHA / 2.0: 2.6, ALPHA: 2.2})
    rec = first_stage([2.7, 3.0, 1.0], crit)
    assert (rec.n, rec.ordered) == (26, (1, 0, 2))
    assert rec.rejected == (1, 0)


def test_stage_rejections_variant_prefix_ordering():
    # mult holds every position at alpha/k, holm relaxes stepwise, and
    # the closed rule tests at plain alpha, so prefixes can only grow.
    crit = flat_table(
        {ALPHA / 4.0: 2.9, ALPHA / 3.0: 2.8, ALPHA / 2.0: 2.6, ALPHA: 2.2}
    )
    stats = [3.0, 2.85, 2.5, 2.4]
    m = first_stage(stats, crit, MULT).rejected
    h = first_stage(stats, crit, HOLM).rejected
    c = first_stage(stats, crit, CLOSED, HypothesisFamily(k=4, closed_monotone=True)).rejected
    assert len(m) <= len(h) <= len(c)
    assert m == (0,) and h == (0, 1) and c == (0, 1, 2, 3)


def test_variant_validation():
    crit = flat_table({ALPHA / 3.0: 2.8, ALPHA / 2.0: 2.6, ALPHA: 2.2})
    with pytest.raises(ValueError):
        run_multistage(paths_from_stats([1.0, 2.0, 0.5]), HypothesisFamily.simple(3), SCHED,
                       crit, ALPHA, "bonferroni")


def test_unknown_rule_is_rejected():
    # Unchecked, an unknown rule would silently read holm's alpha / m levels.
    with pytest.raises(ValueError, match="unknown rule 'bonferroni'"):
        stage_levels("bonferroni", ALPHA, 3)
    crit = flat_table({ALPHA / 3.0: 2.8, ALPHA / 2.0: 2.6, ALPHA: 2.2})
    with pytest.raises(ValueError, match="unknown rule"):
        run_multistage_batch(np.full((2, 3, 3), 3.0), HypothesisFamily.simple(3), SCHED,
                             crit, ALPHA, "Holm")


def test_missing_level_is_a_value_error_naming_it():
    # holm with k = 3 also looks up alpha / 2, which this table lacks.
    crit = flat_table({ALPHA / 3.0: 2.8, ALPHA: 2.2})
    family = HypothesisFamily.simple(3)
    level = re.escape(f"level {ALPHA / 2.0!r}; calibrate it with rho = {ALPHA / 2.0!r}")
    # A failed lookup is not kept: a second call raises the same error.
    for _ in range(2):
        with pytest.raises(ValueError, match=level):
            run_multistage(paths_from_stats([1.0, 2.0, 0.5]), family, SCHED, crit, ALPHA)
    assert crit._stage_rows == {}
    with pytest.raises(ValueError, match=level):
        run_multistage_batch(np.full((2, 3, 3), 1.0), family, SCHED, crit, ALPHA)


def test_stage_rows_belong_to_their_critical_function():
    # Equal levels, different values: each table decides with its own rows,
    # whichever is used first.
    paths = paths_from_stats([2.5, 1.0])
    family = HypothesisFamily(k=2, closed_monotone=True)
    for low_first in (True, False):
        low, high = flat_table({ALPHA: 2.0}), flat_table({ALPHA: 3.0})
        order = [(low, (True, False)), (high, (False, False))]
        for crit, want in (order if low_first else order[::-1]) * 2:
            assert run_multistage(paths, family, SCHED, crit, ALPHA, CLOSED).rejected == want
        assert _stage_bounds(family, SCHED, low, ALPHA, CLOSED) == ((2.0,) * 3,) * 2
        assert _stage_bounds(family, SCHED, high, ALPHA, CLOSED) == ((3.0,) * 3,) * 2


def test_stage_levels():
    # Exact equality: these are the floats the stage loop looks up.
    assert stage_levels("holm", ALPHA, 3) == (ALPHA / 3.0, ALPHA / 2.0, ALPHA)
    assert stage_levels("mult", ALPHA, 3) == (ALPHA / 3.0,)
    assert stage_levels("closed", ALPHA, 3) == (ALPHA,)
    assert stage_levels("holm", ALPHA, 1) == (ALPHA,)
    assert stage_levels("mult", ALPHA, 5) == (ALPHA / 5.0,)


def test_run_multistage_hand_trace():
    # Only the third statistic ever crosses, at the first analysis; the
    # other two run to the horizon and are accepted.
    crit = flat_table({ALPHA / 3.0: 2.8, ALPHA / 2.0: 2.6, ALPHA: 2.2})
    values = np.array(
        [
            [0.3, 0.4, 0.5],
            [0.1, 0.2, 0.1],
            [2.9, 1.0, 1.0],
        ]
    )
    paths = StatisticPaths((26, 29, 35), values)
    res = run_multistage(paths, HypothesisFamily.simple(3), SCHED, crit, ALPHA)
    assert res.decisions == ("accepted", "accepted", "rejected")
    assert res.endpoint_final_n == (35, 35, 26)
    assert res.total_measurements == 96
    assert res.decision_stage == (2, 2, 1)
    assert len(res.stages) == 1
    assert res.stages[0].n == 26 and res.stages[0].rejected == (2,)


def test_run_multistage_no_crossing():
    crit = flat_table({ALPHA / 3.0: 2.8, ALPHA / 2.0: 2.6, ALPHA: 2.2})
    paths = paths_from_stats([0.1, 0.2, 0.3])
    res = run_multistage(paths, HypothesisFamily.simple(3), SCHED, crit, ALPHA)
    assert res.decisions == ("accepted", "accepted", "accepted")
    assert res.endpoint_final_n == (35, 35, 35)
    assert res.total_measurements == 105
    assert res.stages == ()


def test_run_multistage_single_hypothesis_group_sequential():
    crit = flat_table({ALPHA: 2.2})
    values = np.array([[1.0, 2.3, 0.0]])
    paths = StatisticPaths((26, 29, 35), values)
    res = run_multistage(paths, HypothesisFamily.simple(1), SCHED, crit, ALPHA)
    assert res.rejected == (True,)
    assert res.endpoint_final_n == (29,)

    never = run_multistage(
        paths_from_stats([1.0]), HypothesisFamily.simple(1), SCHED, crit, ALPHA
    )
    assert never.rejected == (False,)
    assert never.endpoint_final_n == (35,)


def test_run_multistage_stepdown_relaxes_levels():
    # After the first rejection at 26, the survivor is retested at the
    # alpha/2 boundary and crosses at 29 where alpha/3 would not reject.
    crit = flat_table({ALPHA / 3.0: 2.8, ALPHA / 2.0: 2.6, ALPHA: 2.2})
    values = np.array([[2.9, 1.0, 1.0], [2.0, 2.65, 2.65], [0.0, 0.0, 0.0]])
    paths = StatisticPaths((26, 29, 35), values)
    res = run_multistage(paths, HypothesisFamily.simple(3), SCHED, crit, ALPHA)
    assert res.rejected == (True, True, False)
    assert res.decision_stage == (1, 2, 3)
    assert res.endpoint_final_n == (26, 29, 35)

    mult = run_multistage(paths, HypothesisFamily.simple(3), SCHED, crit, ALPHA, MULT)
    assert mult.rejected == (True, False, False)


def test_run_multistage_containment_stop():
    # Both survivors contain the complement of the rejected hypothesis,
    # so the run stops at 26 and accepts them there.
    rel = (
        (False, True, True),
        (False, False, False),
        (False, False, False),
    )
    fam = HypothesisFamily(k=3, contains_complement=rel)
    crit = flat_table({ALPHA / 3.0: 2.8, ALPHA / 2.0: 2.6, ALPHA: 2.2})
    values = np.array([[2.9, 1.0, 1.0], [2.0, 2.65, 2.65], [0.0, 0.0, 0.0]])
    paths = StatisticPaths((26, 29, 35), values)
    res = run_multistage(paths, fam, SCHED, crit, ALPHA)
    assert res.rejected == (True, False, False)
    assert res.endpoint_final_n == (26, 26, 26)


def test_run_multistage_closed_variant_implied_acceptance():
    rel = ((False, True), (False, False))
    fam = HypothesisFamily(k=2, contains_complement=rel, closed_monotone=True)
    crit = flat_table({ALPHA: 2.2, ALPHA / 2.0: 2.2})
    values = np.array([[2.5, 2.5, 2.5], [1.0, 2.4, 2.4]])
    paths = StatisticPaths((26, 29, 35), values)
    res = run_multistage(paths, fam, SCHED, crit, ALPHA, CLOSED)
    # H1 is rejected at 26 while H2 sits below the boundary there; the
    # containment accepts H2 on the spot, so its later crossing at 29 is
    # never examined.
    assert res.rejected == (True, False)
    assert res.decisions == ("rejected", "accepted")
    assert res.endpoint_final_n == (26, 26)
    assert res.decision_stage == (1, 1)


def test_run_multistage_closed_prefix_rejects_before_implication():
    # When both statistics clear the plain-alpha boundary in the same
    # stage, both belong to the rejected prefix; the implied acceptance
    # only covers hypotheses not rejected at that stage.
    rel = ((False, True), (False, False))
    fam = HypothesisFamily(k=2, contains_complement=rel, closed_monotone=True)
    crit = flat_table({ALPHA: 2.2, ALPHA / 2.0: 2.2})
    values = np.array([[2.5, 2.5, 2.5], [2.4, 2.4, 2.4]])
    paths = StatisticPaths((26, 29, 35), values)
    res = run_multistage(paths, fam, SCHED, crit, ALPHA, CLOSED)
    assert res.rejected == (True, True)
    assert res.endpoint_final_n == (26, 26)


def test_run_multistage_closed_requires_flag():
    crit = flat_table({ALPHA: 2.2})
    with pytest.raises(ValueError, match="closed_monotone"):
        run_multistage(
            paths_from_stats([1.0]), HypothesisFamily.simple(1), SCHED, crit, ALPHA, CLOSED
        )


def _bad_input(**change):
    crit = flat_table({ALPHA / 3.0: 2.8, ALPHA / 2.0: 2.6, ALPHA: 2.2})
    call = dict(paths=paths_from_stats([1.0, 2.0, 0.5]), family=HypothesisFamily.simple(3),
                schedule=SCHED, critical=crit, alpha=ALPHA, rule=HOLM)
    return {**call, **change}


@pytest.mark.parametrize(
    "change, message",
    [
        ({"paths": paths_from_stats([1.0, 2.0])}, "paths cover 2 hypotheses, family has 3"),
        ({"family": HypothesisFamily.simple(4)}, "paths cover 3 hypotheses, family has 4"),
        ({"paths": paths_from_stats([1.0, 2.0, 0.5], (26, 29, 36))},
         "paths and schedule disagree on the analysis sizes"),
        ({"schedule": SampleSchedule((26, 35)), "paths": paths_from_stats([1.0, 2.0, 0.5], (26, 35))},
         "critical function and schedule disagree on the analysis sizes"),
        ({"rule": CLOSED}, "the closed variant requires a family flagged closed_monotone"),
        ({"alpha": 1.0}, "alpha must lie strictly between 0 and 1, got 1.0"),
        ({"alpha": 0.0}, "alpha must lie strictly between 0 and 1, got 0.0"),
        ({"alpha": 0.1}, "boundary lacks critical values for level 0.1; calibrate it with rho = 0.1"),
        ({"critical": flat_table({ALPHA / 3.0: 2.8, ALPHA: 2.2})},
         "boundary lacks critical values for level 0.025"),
    ],
    ids=["fewer-paths", "larger-family", "paths-schedule", "critical-schedule", "closed-flag",
         "alpha-1", "alpha-0", "missing-alpha", "missing-level"],
)
def test_run_multistage_names_each_rejected_input(change, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        run_multistage(**_bad_input(**change))


def test_single_analysis_matches_holm_fixed():
    # With one analysis and quantile boundaries, the multistage run is
    # Holm's procedure expressed through statistics instead of p-values.
    rng = np.random.default_rng(2024)
    k = 4
    crit = quantile_critical(ALPHA, k)
    sched = SampleSchedule((17,))
    fam = HypothesisFamily.simple(k)
    for _ in range(2000):
        t = rng.normal(loc=rng.uniform(-1, 3), size=k)
        paths = StatisticPaths((17,), t[:, None])
        p = scipy_stats.norm.sf(t)
        fixed = holm_fixed(p, ALPHA)
        multi = run_multistage(paths, fam, sched, crit, ALPHA)
        assert fixed.tolist() == list(multi.rejected)


def test_rejected_never_retested():
    rng = np.random.default_rng(5)
    crit = flat_table({ALPHA / 3.0: 2.4, ALPHA / 2.0: 2.2, ALPHA: 2.0})
    fam = HypothesisFamily.simple(3)
    for _ in range(500):
        values = rng.normal(scale=1.5, size=(3, 3))
        paths = StatisticPaths((26, 29, 35), values)
        res = run_multistage(paths, fam, SCHED, crit, ALPHA)
        seen = set()
        for rec in res.stages:
            assert not (set(rec.rejected) & seen)
            assert set(rec.rejected) <= set(rec.active)
            assert len(rec.rejected) >= 1
            seen |= set(rec.rejected)
        # Decisions are exhaustive and exclusive.
        assert len(res.decisions) == 3
        assert all(d in ("rejected", "accepted") for d in res.decisions)


@pytest.mark.parametrize("rule", RULES)
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_no_crossing_at_any_look_decides_everything_at_stage_one(rule, k):
    # Every statistic sits below the loosest row at every look, the
    # boundary row 2.2 included, so no stage ever runs.
    crit = flat_table({level: 2.2 for level in stage_levels(rule, ALPHA, k)})
    values = np.linspace(-1.0, 2.1, 3 * k).reshape(k, 3)
    family = HypothesisFamily(k=k, closed_monotone=True)
    res = run_multistage(StatisticPaths(SCHED.analyses, values), family, SCHED, crit, ALPHA, rule)
    assert res.stages == ()
    assert res.rejected == (False,) * k
    assert res.decision_stage == (1,) * k
    assert res.endpoint_final_n == (SCHED.analyses[-1],) * k


def test_rejected_statistic_never_opens_a_later_stage():
    # H1 is rejected at 26 and its statistic is +inf at every later
    # look; only the survivors are scanned after stage 1, and they stay
    # below every rule's loosest boundary, so no second stage runs.
    crit = flat_table({ALPHA / 3.0: 2.8, ALPHA / 2.0: 2.6, ALPHA: 2.2})
    values = np.array([[3.0, np.inf, np.inf], [2.0, 2.1, 2.1], [0.0, 0.0, 0.0]])
    paths = StatisticPaths((26, 29, 35), values)
    for rule in RULES:
        family = HypothesisFamily(k=3, closed_monotone=True)
        res = run_multistage(paths, family, SCHED, crit, ALPHA, rule)
        assert [(rec.stage, rec.n, rec.rejected) for rec in res.stages] == [(1, 26, (0,))]
        assert res.rejected == (True, False, False)
        assert res.decision_stage == (1, 2, 2)
        assert res.endpoint_final_n == (26, 35, 35)


def test_statistic_equal_to_its_boundary_crosses():
    # Stage 1: H1 equals the alpha/3 boundary at 29 and crosses there.
    # Stage 2: H2 equals the relaxed alpha/2 boundary at 35 and crosses.
    crit = flat_table({ALPHA / 3.0: 2.8, ALPHA / 2.0: 2.6, ALPHA: 2.2})
    values = np.array([[0.0, 2.8, 0.0], [2.5, 2.5, 2.6], [0.0, 0.0, 0.0]])
    paths = StatisticPaths((26, 29, 35), values)
    res = run_multistage(paths, HypothesisFamily.simple(3), SCHED, crit, ALPHA)
    assert [(rec.stage, rec.n, rec.active, rec.rejected) for rec in res.stages] == [
        (1, 29, (0, 1, 2), (0,)),
        (2, 35, (1, 2), (1,)),
    ]
    assert res.rejected == (True, True, False)
    assert res.decision_stage == (1, 2, 2)
    assert res.endpoint_final_n == (29, 35, 35)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 5),
    looks=st.integers(1, 12),
    rule=st.sampled_from(RULES),
    ties=st.booleans(),
    infinite=st.booleans(),
)
def test_run_multistage_matches_the_replay(seed, k, looks, rule, ties, infinite):
    # The whole TrialResult, every stage record included, against the
    # plain stage loop of tests/multistage_replay.py.  The means spread
    # so that some replicates never cross and some run several stages.
    rng = np.random.default_rng(seed)
    analyses = tuple(int(n) for n in np.cumsum(rng.integers(1, 10, size=looks)))
    schedule = SampleSchedule(analyses)
    levels = stage_levels(rule, ALPHA, k)
    raw = rng.uniform(0.5, 3.0, size=(len(levels), looks))
    values = rng.normal(rng.uniform(-1.0, 2.5, size=(40, 1, 1)), 1.2, size=(40, k, looks))
    if ties:
        # A half-unit grid puts statistics on boundaries and on each other.
        raw, values = np.round(raw * 2.0) / 2.0, np.round(values * 2.0) / 2.0
    if infinite:
        spots = rng.random(values.shape) < 0.1
        values[spots] = np.where(rng.random(values.shape) < 0.7, np.inf, -np.inf)[spots]
    raw = np.sort(raw, axis=0)[::-1]
    critical = CriticalFunction(
        analyses, {level: tuple(row) for level, row in zip(levels, raw)}
    )
    relation = rng.random((k, k)) < 0.3
    np.fill_diagonal(relation, False)
    family = HypothesisFamily(
        k=k,
        contains_complement=tuple(tuple(row) for row in relation.tolist()),
        closed_monotone=rule == CLOSED or bool(rng.integers(2)),
    )
    for stats in values:
        paths = StatisticPaths(analyses, stats)
        got = run_multistage(paths, family, schedule, critical, ALPHA, rule)
        want = replay_multistage(paths, family, schedule, critical, ALPHA, rule)
        assert got == want
        # repr tells an int from a float or a numpy scalar, and a record
        # from a plain tuple.
        assert repr(got) == repr(want)
