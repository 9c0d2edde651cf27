"""The block-of-replicates path against its one-replicate references.

``run_scenario`` draws a block of replicates with ``draw_replicates``,
forms each endpoint's sums and statistics with ``endpoint_from_draws``,
and decides the block by walking each replicate's counts of cleared
boundary rows through the look-step table ``harness._transitions``: at
every analysis for the staged procedures, at the last one alone with
the exact Holm cutoffs for ``H``.  ``run_multistage_batch`` decides a
block of replicates for any family.  Each of these must reproduce its
one-replicate reference exactly, number for number and decision for
decision: ``run_multistage`` for the staged procedures and the batch
engine, Holm's rule on exact p-values for ``H``.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from stepdown.boundary import CriticalFunction, calibrate_levels
from stepdown.core import HypothesisFamily, SampleSchedule, StatisticPaths
from stepdown.harness import (
    PROCEDURES,
    ScenarioSpec,
    merge,
    needed_levels,
    run_scenario,
)
from stepdown.procedures import (
    CLOSED,
    HOLM,
    MULT,
    RULES,
    _stage_bounds,
    holm_fixed,
    run_multistage,
    run_multistage_batch,
    stage_levels,
)
from stepdown.trial import (
    KEY_BLOCK,
    RngStream,
    ScenarioParams,
    draw_replicates,
    endpoint_from_draws,
    endpoint_keys,
    generate_paths,
    philox,
)

ALPHA = 0.05
SCHED = SampleSchedule((26, 29, 35))


def reference_paths(params, schedule, stream, continuity_correction):
    """The draw contract for one replicate, written out step by step."""
    looks = len(schedule)
    block, row = divmod(stream.replicate, KEY_BLOCK)
    rng = np.random.Generator(philox(stream.master_seed, block))
    z = rng.standard_normal((KEY_BLOCK, 2, looks))[row]
    u = rng.random((KEY_BLOCK, looks))[row]
    ns = np.asarray(schedule.analyses, dtype=float)
    dn = np.diff(ns, prepend=0.0)
    rho = params.rho12
    x1 = np.sqrt(dn) * z[0] + params.mu1 * dn
    x2 = np.sqrt(dn) * (rho * z[0] + math.sqrt(1.0 - rho * rho) * z[1]) + params.mu2 * dn
    # The Bin(dn, p) count a uniform inverts to: how many cdf values lie at or below it.
    x3 = [
        float((scipy_stats.binom.cdf(np.arange(n), n, params.p) <= x).sum())
        for n, x in zip(dn.astype(int), u)
    ]
    sums = np.stack([np.cumsum(x1), np.cumsum(x2), np.cumsum(x3)])
    shift = 0.5 if continuity_correction else 0.0
    values = np.stack(
        [
            sums[0] / np.sqrt(ns),
            sums[1] / np.sqrt(ns),
            (sums[2] - ns / 2.0 - shift) / np.sqrt(ns / 4.0),
        ]
    )
    return sums, values


def reference_holm(p, alpha):
    """The fixed-sample step-down rule as a loop over sorted p-values."""
    k = len(p)
    rejected = [False] * k
    for j, idx in enumerate(sorted(range(k), key=lambda i: (p[i], i))):
        if p[idx] < alpha / (k - j):
            rejected[idx] = True
        else:
            break
    return rejected


def reference_counts(spec, rep_range, critical):
    """run_scenario's accumulators from one replicate at a time."""
    k, sup = 3, spec.schedule.sup
    tail = scipy_stats.binom.sf(np.arange(sup + 1) - 1, sup, 0.5)
    family = HypothesisFamily.simple(k)
    rule = {"Mult": MULT, "MultH": HOLM}.get(spec.procedure)
    sum_n = sumsq_n = fwe = 0
    counts = [0] * k
    for r in range(*rep_range):
        sums, values = reference_paths(
            spec.params, spec.schedule, RngStream(spec.master_seed, r),
            spec.continuity_correction,
        )
        if rule is None:
            p = [
                0.5 * math.erfc(values[0, -1] / math.sqrt(2.0)),
                0.5 * math.erfc(values[1, -1] / math.sqrt(2.0)),
                float(tail[int(round(sums[2, -1]))]),
            ]
            rejected, total = reference_holm(p, spec.alpha), k * sup
        else:
            result = run_multistage(
                StatisticPaths(spec.schedule.analyses, values),
                family, spec.schedule, critical, spec.alpha, rule,
            )
            rejected, total = result.rejected, result.total_measurements
        sum_n += total
        sumsq_n += total * total
        counts = [c + bool(x) for c, x in zip(counts, rejected)]
        fwe += any(x and t for x, t in zip(rejected, spec.params.truth))
    return sum_n, sumsq_n, tuple(counts), fwe


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 5),
    looks=st.integers(1, 12),
    rule=st.sampled_from(RULES),
    ties=st.booleans(),
    infinite=st.booleans(),
)
def test_batch_engine_matches_run_multistage(seed, k, looks, rule, ties, infinite):
    rng = np.random.default_rng(seed)
    analyses = tuple(int(n) for n in np.cumsum(rng.integers(1, 10, size=looks)))
    schedule = SampleSchedule(analyses)
    levels = stage_levels(rule, ALPHA, k)
    # Critical values must not increase with the level; ties on a
    # half-unit grid exercise the >= comparisons and the index tie-break.
    raw = rng.uniform(0.5, 3.0, size=(len(levels), looks))
    values = rng.normal(1.5, 1.2, size=(40, k, looks))
    if ties:
        raw, values = np.round(raw * 2.0) / 2.0, np.round(values * 2.0) / 2.0
    if infinite:
        # Infinite statistics always or never cross, wherever they sit.
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
        closed_monotone=rule == "closed" or bool(rng.integers(2)),
    )
    rejected, final_n = run_multistage_batch(values, family, schedule, critical, ALPHA, rule)
    assert rejected.shape == final_n.shape == (len(values), k)
    for r, stats in enumerate(values):
        ref = run_multistage(
            StatisticPaths(analyses, stats), family, schedule, critical, ALPHA, rule
        )
        assert tuple(rejected[r].tolist()) == ref.rejected
        assert tuple(final_n[r].tolist()) == ref.endpoint_final_n



@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 5),
    looks=st.integers(1, 4),
    rule=st.sampled_from(RULES),
)
def test_equal_clearance_counts_get_equal_decisions(seed, k, looks, rule):
    # Replicates drawn from a few templates: each statistic falls in its
    # template's gap between distinct boundary values (its left end
    # included), so replicates of one template clear the same stage
    # boundaries, in whatever float order their statistics come.
    rng = np.random.default_rng(seed)
    analyses = tuple(int(n) for n in np.cumsum(rng.integers(1, 10, size=looks)))
    schedule = SampleSchedule(analyses)
    levels = stage_levels(rule, ALPHA, k)
    raw = np.sort(np.round(rng.uniform(0.5, 3.0, size=(len(levels), looks)) * 2.0) / 2.0, axis=0)
    critical = CriticalFunction(
        analyses, {level: tuple(row) for level, row in zip(levels, raw[::-1])}
    )
    relation = rng.random((k, k)) < 0.4
    np.fill_diagonal(relation, False)
    family = HypothesisFamily(
        k=k,
        contains_complement=tuple(tuple(row) for row in relation.tolist()),
        closed_monotone=rule == "closed" or bool(rng.integers(2)),
    )
    rows = np.asarray(_stage_bounds(family, schedule, critical, ALPHA, rule))
    values = np.empty((6 * 20, k, looks))
    for j in range(looks):
        ends = np.unique(rows[:, j])
        # Gap 0 lies below every boundary value; gap g >= 1 starts at
        # ends[g - 1] and stops short of the next one.
        left = np.concatenate([[ends[0] - 2.0], ends])
        width = np.diff(np.concatenate([left, [ends[-1] + 2.0]]))
        gap = np.repeat(rng.integers(0, len(left), size=(6, k)), 20, axis=0)
        offset = rng.random(gap.shape) * width[gap]
        offset[rng.random(gap.shape) < 0.3] = 0.0
        values[:, :, j] = left[gap] + offset
    counts = (values[:, :, :, None] >= rows.T[None, None]).sum(axis=3)
    rejected, final_n = run_multistage_batch(values, family, schedule, critical, ALPHA, rule)
    by_counts = {}
    for r, stats in enumerate(values):
        ref = run_multistage(
            StatisticPaths(analyses, stats), family, schedule, critical, ALPHA, rule
        )
        got = (tuple(rejected[r].tolist()), tuple(final_n[r].tolist()))
        assert got == (ref.rejected, ref.endpoint_final_n)
        assert by_counts.setdefault(counts[r].tobytes(), got) == got


def test_batch_engine_rejects_bad_input():
    critical = CriticalFunction(SCHED.analyses, {ALPHA: (2.0, 2.0, 2.0)})
    family = HypothesisFamily.simple(2)
    good = np.zeros((4, 2, 3))
    with pytest.raises(ValueError, match="shape"):
        run_multistage_batch(np.zeros((4, 3, 3)), family, SCHED, critical, ALPHA, CLOSED)
    with pytest.raises(ValueError, match="NaN"):
        run_multistage_batch(np.full((4, 2, 3), np.nan), family, SCHED, critical, ALPHA, CLOSED)
    with pytest.raises(ValueError, match="closed_monotone"):
        run_multistage_batch(good, family, SCHED, critical, ALPHA, CLOSED)
    with pytest.raises(ValueError, match="analysis sizes"):
        run_multistage_batch(good, family, SampleSchedule((26, 29, 36)), critical, ALPHA, CLOSED)
    with pytest.raises(ValueError, match="alpha"):
        run_multistage_batch(good, family, SCHED, critical, 1.5, CLOSED)
    with pytest.raises(ValueError, match=r"boundary lacks critical values for level 0\.025"):
        run_multistage_batch(good, family, SCHED, critical, ALPHA, HOLM)

@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**40),
    before=st.integers(1, 4),
    after=st.integers(1, 4),
    mu=st.floats(-1.0, 1.0),
    rho=st.floats(-1.0, 1.0),
    p=st.floats(0.0, 1.0),
)
def test_endpoint_from_draws_matches_one_replicate_streams(seed, before, after, mu, rho, p):
    params = ScenarioParams(mu, -mu, p, rho12=rho)
    lo, hi = KEY_BLOCK - before, KEY_BLOCK + after
    z, u = draw_replicates(seed, (lo, hi), len(SCHED))
    forms = [endpoint_from_draws(key, SCHED, z, u) for key in endpoint_keys(params, True)]
    for sums, values in forms:
        assert sums.shape == values.shape == (len(SCHED), hi - lo)
    for i, r in enumerate(range(lo, hi)):
        stream = RngStream(seed, r)
        paths = generate_paths(params, SCHED, stream, continuity_correction=True)
        ref_sums, ref_values = reference_paths(params, SCHED, stream, True)
        for e, (sums, values) in enumerate(forms):
            assert np.array_equal(sums[:, i], ref_sums[e])
            assert np.array_equal(values[:, i], paths.values[e])
            assert np.array_equal(values[:, i], ref_values[e])


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 6),
    reps=st.integers(1, 30),
    ties=st.booleans(),
    alpha=st.floats(0.001, 0.5),
)
def test_holm_fixed_rows_match_single_calls(seed, k, reps, ties, alpha):
    p = np.random.default_rng(seed).uniform(0.0, 0.2, size=(reps, k))
    if ties:
        p = np.round(p, 2)
    batch = holm_fixed(p, alpha)
    assert batch.shape == p.shape
    for row, got in zip(p, batch):
        assert got.tolist() == holm_fixed(row, alpha).tolist() == reference_holm(row, alpha)


def straddling_spec(procedure):
    return ScenarioSpec(
        params=ScenarioParams(0.0, 0.5, 0.75, rho12=0.75),
        schedule=SCHED,
        procedure=procedure,
        replicates=KEY_BLOCK + 200,
        master_seed=3,
    )


SPAN = (KEY_BLOCK - 120, KEY_BLOCK + 120)


@functools.cache
def straddling_critical(procedure):
    levels = needed_levels((procedure,), ALPHA)
    return calibrate_levels(SCHED, levels, "flat") if levels else None


@pytest.mark.parametrize("procedure", PROCEDURES)
@settings(max_examples=10, deadline=None)
@given(cut=st.integers(*SPAN))
def test_run_scenario_across_a_block_boundary_merges(procedure, cut):
    spec = straddling_spec(procedure)
    critical = straddling_critical(procedure)
    lo, hi = SPAN
    pieces = merge(run_scenario(spec, (lo, cut), critical), run_scenario(spec, (cut, hi), critical))
    assert run_scenario(spec, SPAN, critical) == pieces


@pytest.mark.parametrize("procedure", PROCEDURES)
@settings(max_examples=12, deadline=None)
@given(alpha=st.floats(0.001, 0.45), sup=st.integers(30, 61), correction=st.booleans())
@example(alpha=ALPHA, sup=SCHED.sup, correction=False)
@example(alpha=ALPHA, sup=SCHED.sup, correction=True)
def test_run_scenario_matches_one_replicate_loop(procedure, alpha, sup, correction):
    # Odd and even sup, and levels below 1/2: no level is then an exact
    # binomial tail, where binom.sf's rounding, not the tail, decides.
    # The reference computes H's p-values with math.erfc and binom.sf.
    schedule = SampleSchedule((26, 29, sup))
    spec = ScenarioSpec(
        params=ScenarioParams(0.0, 0.5, 0.75, rho12=0.75),
        schedule=schedule,
        procedure=procedure,
        alpha=alpha,
        replicates=KEY_BLOCK + 200,
        master_seed=3,
        continuity_correction=correction,
    )
    levels = needed_levels((procedure,), alpha)
    critical = calibrate_levels(schedule, levels, "flat") if levels else None
    span = (KEY_BLOCK - 120, KEY_BLOCK + 120)
    got = run_scenario(spec, span, critical)
    assert (
        got.sum_measurements,
        got.sumsq_measurements,
        got.reject_counts,
        got.fwe_count,
    ) == reference_counts(spec, span, critical)
