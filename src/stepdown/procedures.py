"""Fixed-sample and multistage step-down testing with familywise error control.

The fixed-sample rule sorts p-values and rejects while the j-th smallest
stays below alpha / (k - j + 1); the first failure accepts everything
after it.  The closed-family variant tests at plain alpha instead,
accepting by implication every hypothesis that contains the complement
of one already rejected.

The multistage rule replays the step-down logic over a group-sequential
schedule.  Each stage samples the active hypotheses until some active
statistic meets its boundary, rejects the longest qualifying prefix of
the statistics ordered top down, then either stops (schedule exhausted,
nothing left, or every survivor contains the complement of a rejected
hypothesis) or carries the survivors into the next stage with a relaxed
boundary level.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .boundary import CriticalFunction
from .core import (
    HypothesisFamily,
    SampleSchedule,
    StageRecord,
    StatisticPaths,
    TrialResult,
    check_alpha,
    check_pvalues,
)

__all__ = [
    "RULES",
    "HOLM",
    "MULT",
    "CLOSED",
    "holm_fixed",
    "holm_closed",
    "run_multistage",
    "run_multistage_batch",
    "stage_levels",
]

RULES = ("holm", "mult", "closed")


# The stage-level rules.  ``holm`` divides alpha by the count of
# still-active hypotheses, tightening further within a stage as
# rejections accumulate.  ``mult`` uses the fixed fraction alpha / k at
# every stage, k being the original family size.  ``closed`` tests at
# plain alpha and relies on implied acceptances; it requires a family
# flagged closed_monotone.
HOLM, MULT, CLOSED = RULES


def holm_fixed(p_values: Sequence[float] | np.ndarray, alpha: float) -> np.ndarray:
    """Step-down test of k p-values at familywise level alpha.

    Orders the p-values increasingly and rejects the j-th while it is
    below alpha / (k - j + 1); at the first failure all later hypotheses
    are accepted.  The decision reads only how many of the levels
    alpha / m each p-value is below, so tied p-values are rejected or
    accepted together.

    Args:
        p_values: One p-value per hypothesis, shape ``(k,)``, or one row
            of them per replicate, shape ``(R, k)``.
        alpha: Familywise error level in (0, 1).

    Returns:
        Boolean array of the same shape, True where the hypothesis is
        rejected.
    """
    p = check_pvalues(p_values)
    alpha = check_alpha(alpha)
    k = p.shape[-1]
    # How many of the levels alpha / m, m = 1..k, each p-value is below.
    cleared = k - np.searchsorted(alpha / np.arange(k, 0, -1), p, side="right")
    return _step_down(cleared, k)


def _step_down(cleared: np.ndarray, m: int | np.ndarray) -> np.ndarray:
    """Step-down rejections of m hypotheses per row, from clearance counts.

    cleared[..., i] is how many of the levels for 1, 2, ... hypotheses,
    each at least as hard as the last, statistic i clears (-1 if it is
    not under test).  Rank l (0-based) top down passes when its count is
    at least m - l; equal counts pass or fail together, so the rejected
    prefix is every count above m less the prefix's length.
    """
    m = np.expand_dims(m, -1)
    ranked = np.sort(cleared, axis=-1)[..., ::-1]
    passed = np.logical_and.accumulate(ranked >= m - np.arange(cleared.shape[-1]), axis=-1)
    return cleared > m - passed.sum(axis=-1, keepdims=True)


def holm_closed(
    p_values: Sequence[float], alpha: float, family: HypothesisFamily
) -> np.ndarray:
    """Step-down test of a closed family at plain level alpha.

    Processes p-values increasingly, testing each still-undecided
    hypothesis against alpha itself.  A rejection immediately accepts
    every undecided hypothesis containing the complement of the rejected
    one; the first non-rejection accepts everything still undecided.
    Ties break toward the hypothesis with fewer containment targets
    (the most specific one), then by index.

    Args:
        p_values: One p-value per hypothesis, aligned with the family.
        alpha: Familywise error level in (0, 1).
        family: Must be flagged closed_monotone.

    Returns:
        Boolean array, True where the hypothesis is rejected.
    """
    p = check_pvalues(p_values)
    alpha = check_alpha(alpha)
    if p.shape != (family.k,):
        raise ValueError(f"expected {family.k} p-values, got shape {p.shape}")
    if not family.closed_monotone:
        raise ValueError("the closed variant requires a family flagged closed_monotone")
    out_degree = [sum(family.contains_complement[a]) for a in range(family.k)]
    order = sorted(range(family.k), key=lambda i: (p[i], out_degree[i], i))
    rejected = np.zeros(family.k, dtype=bool)
    decided = np.zeros(family.k, dtype=bool)
    for idx in order:
        if decided[idx]:
            continue
        if p[idx] < alpha:
            rejected[idx] = True
            decided[idx] = True
            decided |= family.contains_complement[idx]
        else:
            break
    return rejected


def _stage_level(rule: str, alpha: float, active_size: int, k_total: int) -> float:
    if rule == "mult":
        return alpha / k_total
    if rule == "closed":
        return alpha
    if rule == "holm":
        return alpha / active_size
    raise ValueError(f"unknown rule {rule!r}; expected one of {RULES}")


def stage_levels(rule: str, alpha: float, k: int) -> tuple[float, ...]:
    """Every boundary level the rule looks up for k hypotheses, tightest first.

    These are the levels a CriticalFunction must cover for
    run_multistage; ``holm`` needs alpha / m for m = k, ..., 1, ``mult``
    alpha / k, and ``closed`` alpha.  The values are computed exactly as
    the stage loop computes them, so lookups match without tolerance.
    """
    return tuple(sorted({_stage_level(rule, alpha, m, k) for m in range(1, k + 1)}))


def _stage_bounds(
    family: HypothesisFamily,
    schedule: SampleSchedule,
    critical: CriticalFunction,
    alpha: float,
    rule: str,
) -> tuple[tuple[float, ...], ...]:
    """Check a multistage run's inputs; row m - 1 bounds a stage of m active.

    The checks, in order: alpha, ``critical``'s analyses against the
    schedule's, and a closed family for the closed rule.  A stage with m
    active finds its sample size on row m - 1, and its l-th statistic
    (0-based) in top-down order must clear row m - l - 1.  The rows are
    the critical table's own tuples; a level it lacks raises ValueError.
    They do not decrease with m, as boundaries do not increase with the
    level.  ``critical`` keeps the rows per (rule, alpha, k); a lookup
    that fails is made again on the next call.
    """
    alpha = check_alpha(alpha)
    if critical.schedule.analyses != schedule.analyses:
        raise ValueError("critical function and schedule disagree on the analysis sizes")
    if rule == "closed" and not family.closed_monotone:
        raise ValueError("the closed variant requires a family flagged closed_monotone")
    k = family.k
    key = (rule, alpha, k)
    rows = critical._stage_rows.get(key)
    if rows is None:
        found = []
        for m in range(1, k + 1):
            level = _stage_level(rule, alpha, m, k)
            try:
                found.append(critical.table[critical._find_level(level)])
            except KeyError:
                raise ValueError(f"boundary lacks critical values for level {level!r}; "
                                 f"calibrate it with rho = {level!r}") from None
        rows = critical._stage_rows[key] = tuple(found)
    return rows


def run_multistage(
    paths: StatisticPaths,
    family: HypothesisFamily,
    schedule: SampleSchedule,
    critical: CriticalFunction,
    alpha: float,
    rule: str = "holm",
) -> TrialResult:
    """Run the full multistage step-down procedure on one set of paths.

    Stage j tests the active set: sampling continues past the previous
    stage size until some active statistic crosses the stage boundary,
    the longest qualifying prefix of the top-down ordering is rejected,
    and survivors move to stage j+1.  The run stops when the schedule is
    exhausted before any crossing (survivors are accepted at the largest
    analysis), when nothing survives, or when every survivor contains the
    complement of some rejected hypothesis.  Decided hypotheses never
    re-enter testing, so each data stream freezes at the stage size
    where its hypothesis was decided.

    This is the one-trial engine, a plain loop over Python floats; for
    a block of replicates ``run_multistage_batch`` makes the same
    decisions.  Both read their boundaries from one ``_stage_bounds``
    table, which ``critical`` keeps per (rule, alpha, k) once built.  The
    containment relation is read as the family's implied-acceptance
    bitmasks, so the implied acceptances and the stop test are OR and
    AND on ints, and a call rebuilds nothing that is fixed between calls.

    A stage rejects its whole prefix before implied acceptances act, so
    one stage can reject a hypothesis and one containing its complement;
    that needs statistics that break the order ``closed_monotone`` asserts.

    Args:
        paths: Statistics for every hypothesis at every analysis.
        family: The hypothesis family, including containment structure.
        schedule: Allowed analysis sizes; must match the paths.
        critical: Critical values covering every level the rule uses.
        alpha: Familywise error level.
        rule: Stage-level rule, one of ``RULES``.

    Returns:
        A TrialResult with decisions, stages, per-endpoint final sizes,
        and a record of each executed stage.
    """
    k = family.k
    if len(paths.values) != k:
        raise ValueError(f"paths cover {paths.k} hypotheses, family has {k}")
    if paths.analyses != schedule.analyses:
        raise ValueError("paths and schedule disagree on the analysis sizes")
    bounds = _stage_bounds(family, schedule, critical, alpha, rule)

    analyses = paths.analyses
    # columns[j][i]: statistic i at analysis j.
    columns = paths.values.T.tolist()
    # Stage 1, the only one with all k active, ends at the first look
    # where the top statistic crosses; if none does, no stage runs.
    bound = bounds[k - 1]
    for col, column in enumerate(columns):
        if max(column) >= bound[col]:
            break
    else:
        return TrialResult((False,) * k, (1,) * k, (analyses[-1],) * k, ())

    last = len(analyses) - 1
    # Bit b of implied[a] is set when rejecting a accepts b; covered is
    # the union over every hypothesis rejected so far.
    implied = family._implied
    closed = rule == CLOSED
    covered = 0
    rejected = [False] * k
    decision_stage = [0] * k
    final_n = [0] * k
    records: list[StageRecord] = []
    active = tuple(range(k))
    alive = (1 << k) - 1  # active as a bitmask
    stage, m = 1, k

    # Each pass decides the stage that crossed at col.  Every stage that
    # does not stop rejects something, so the loop ends in a break.
    while True:
        n_j = analyses[col]
        # Stage rejections: the longest prefix of the top-down order in
        # which the l-th statistic clears the boundary for m - l + 1
        # active; the top one crossed, so it is nonempty.  The sort is
        # stable and active increasing, so ties go to the lower index.
        ordered = tuple(sorted(active, key=column.__getitem__, reverse=True))
        rank = 1
        while rank < m and column[ordered[rank]] >= bounds[m - rank - 1][col]:
            rank += 1
        stage_rej = ordered[:rank]
        records.append(StageRecord(stage, n_j, active, ordered, stage_rej))
        decided = implied_now = 0
        for i in stage_rej:
            rejected[i] = True
            decided |= 1 << i
            implied_now |= implied[i]
        covered |= implied_now
        if closed:
            # Implied acceptances: anything containing the complement of
            # a hypothesis just rejected is accepted on the spot.
            decided |= implied_now
        alive &= ~decided
        if col == last or not alive & ~covered:
            break
        remaining = []
        for i in active:
            if decided >> i & 1:
                decision_stage[i] = stage
                final_n[i] = n_j
            else:
                remaining.append(i)
        active = tuple(remaining)
        stage, m = stage + 1, len(active)
        bound = bounds[m - 1]
        # The next stage ends at the first later look where an active
        # statistic crosses; if none does, the schedule is exhausted.
        for col in range(col + 1, last + 1):
            column = columns[col]
            b = bound[col]
            for i in active:
                if column[i] >= b:
                    break
            else:
                continue
            break
        else:
            n_j = analyses[last]
            break

    # The run stops (see the docstring): what the last stage decided
    # freezes there, and the survivors are accepted there.
    for i in active:
        decision_stage[i] = stage
        final_n[i] = n_j

    return TrialResult(tuple(rejected), tuple(decision_stage), tuple(final_n), tuple(records))


def run_multistage_batch(
    values: np.ndarray,
    family: HypothesisFamily,
    schedule: SampleSchedule,
    critical: CriticalFunction,
    alpha: float,
    rule: str = "holm",
) -> tuple[np.ndarray, np.ndarray]:
    """Run the multistage procedure on many replicates at once.

    Replicate r's decisions and final sizes equal those of
    ``run_multistage`` on ``StatisticPaths(schedule.analyses, values[r])``
    exactly; the stage records are not kept.  This is the float entry
    to the count engine ``_decide_counts``: each statistic is read once,
    as the count of ``_stage_bounds`` rows it clears, and the engine
    decides from those counts alone.

    Args:
        values: Statistics of shape ``(R, k, len(schedule))``.
        family: The hypothesis family, including containment structure.
        schedule: Allowed analysis sizes.
        critical: Critical values covering every level the rule uses.
        alpha: Familywise error level.
        rule: Stage-level rule, one of ``RULES``.

    Returns:
        ``(rejected, final_n)``, each of shape ``(R, k)``: True where a
        hypothesis is rejected, and each endpoint's sample size when its
        hypothesis was decided.
    """
    values = np.asarray(values, dtype=float)
    k, n_looks = family.k, len(schedule)
    if values.ndim != 3 or values.shape[1:] != (k, n_looks):
        raise ValueError(f"values must have shape (R, {k}, {n_looks}), got {values.shape}")
    if np.isnan(values).any():
        raise ValueError("statistic values must not be NaN")
    bounds = _stage_bounds(family, schedule, critical, alpha, rule)
    cleared = sum(values >= row for row in bounds)
    contains = np.asarray(family.contains_complement, dtype=bool)
    return _decide_counts(cleared, contains, schedule.analyses, rule == "closed")


def _decide_counts(
    cleared: np.ndarray, contains: np.ndarray, analyses: Sequence[int], closed: bool
) -> tuple[np.ndarray, np.ndarray]:
    """The multistage decisions of R replicates from their clearance counts.

    cleared[r, i, j] counts the ``_stage_bounds`` rows statistic i of
    replicate r clears at analysis j; as the rows do not decrease, it
    clears the boundary for m active exactly when its count reaches m.
    The loop walks the analyses, taking one ``_look_step`` at each, and
    freezes the endpoints it decides at that analysis.  Equal counts
    decide equally.
    """
    reps, k = cleared.shape[:2]
    # Column-major, as is active: numpy reduces an (R, k) array over k
    # several times faster when its columns, not its rows, are contiguous.
    cleared = np.asfortranarray(cleared)
    active = np.ones((reps, k), dtype=bool, order="F")
    m = np.full(reps, k)
    rejected = np.zeros((reps, k), dtype=bool)
    # Survivors of the last analysis are accepted there.
    final_n = np.full((reps, k), analyses[-1], dtype=np.int64)

    for j, n_j in enumerate(analyses):
        step = _look_step(cleared[:, :, j], active, rejected, m, contains, closed)
        if step is None:
            continue
        rows, rej_now, frozen, remaining = step
        final_n[rows] = np.where(frozen, n_j, final_n[rows])
        rejected[rows] = rej_now
        active[rows] = remaining
        m[rows] = remaining.sum(axis=1)

    return rejected, final_n


def _look_step(
    cleared: np.ndarray, active: np.ndarray, rejected: np.ndarray, m: np.ndarray,
    contains: np.ndarray, closed: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None:
    """One look of the multistage walk over R replicates.

    cleared[r, i] is statistic i's count at the look; active and rejected
    are the (R, k) sets before it, m the active counts.  The rows whose
    top active count reaches their own m end a stage, and ``_step_down``
    picks their rejected prefix; its first rank passes exactly when that
    count reaches m, so a stage ends where it rejects something.
    ``closed`` adds the implied acceptances of ``contains``.

    Returns:
        ``(rows, rejected, frozen, active)``: the rows that end a stage,
        their rejections after the look, the hypotheses that freeze at
        it, and their active set after it; None if no row ends a stage.
    """
    # An inactive hypothesis counts -1: it neither crosses nor passes,
    # and a stopped replicate, with m = 0, never qualifies again.
    counts = np.where(active, cleared, -1)
    rows = np.flatnonzero(counts.max(axis=1) >= m)
    if rows.size == 0:
        return None
    act = active[rows]
    stage_rej = _step_down(counts[rows], m[rows])
    decided = stage_rej
    if closed:
        # Implied acceptances of this stage's rejections.
        decided = decided | ((stage_rej @ contains) & act)
    rej_now = rejected[rows] | stage_rej
    remaining = act & ~decided
    # The run stops when every survivor contains the complement of a
    # rejected hypothesis; decided hypotheses and, on a stop, the
    # survivors freeze here.
    stop = ~(remaining & ~(rej_now @ contains)).any(axis=1)
    return rows, rej_now, decided | (stop[:, None] & act), remaining & ~stop[:, None]
