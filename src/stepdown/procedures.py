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

from dataclasses import dataclass
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
    "ProcedureVariant",
    "HOLM",
    "MULT",
    "CLOSED",
    "holm_fixed",
    "holm_closed",
    "stage_sample_size",
    "stage_rejections",
    "run_multistage",
    "stage_levels",
]

RULES = ("holm", "mult", "closed")


@dataclass(frozen=True)
class ProcedureVariant:
    """How stage levels are chosen.

    ``holm`` divides alpha by the count of still-active hypotheses,
    tightening further within a stage as rejections accumulate.  ``mult``
    uses the fixed fraction alpha / k at every stage, k being the
    original family size.  ``closed`` tests at plain alpha and relies on
    implied acceptances; it requires a family flagged closed_monotone.
    """

    rule: str = "holm"

    def __post_init__(self) -> None:
        if self.rule not in RULES:
            raise ValueError(f"unknown rule {self.rule!r}; expected one of {RULES}")


HOLM = ProcedureVariant("holm")
MULT = ProcedureVariant("mult")
CLOSED = ProcedureVariant("closed")


def holm_fixed(p_values: Sequence[float], alpha: float) -> np.ndarray:
    """Step-down test of k p-values at familywise level alpha.

    Orders the p-values increasingly and rejects the j-th while it is
    below alpha / (k - j + 1); at the first failure all later hypotheses
    are accepted.  Ties are processed in index order, which cannot change
    the rejection set because tied p-values face the tighter threshold
    first.

    Args:
        p_values: One p-value per hypothesis.
        alpha: Familywise error level in (0, 1).

    Returns:
        Boolean array, True where the hypothesis is rejected.
    """
    p = check_pvalues(p_values)
    alpha = check_alpha(alpha)
    k = p.size
    rejected = np.zeros(k, dtype=bool)
    order = np.lexsort((np.arange(k), p))
    for j, idx in enumerate(order):
        if p[idx] < alpha / (k - j):
            rejected[idx] = True
        else:
            break
    return rejected


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
    if p.size != family.k:
        raise ValueError(f"expected {family.k} p-values, got {p.size}")
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
            for b in family.implied_acceptances(idx):
                if not decided[b]:
                    decided[b] = True
        else:
            break
    return rejected


def _stage_level(rule: str, alpha: float, active_size: int, k_total: int, rejected_so_far: int = 0) -> float:
    if rule == "mult":
        return alpha / k_total
    if rule == "closed":
        return alpha
    return alpha / (active_size - rejected_so_far)


def stage_levels(rule: str, alpha: float, k: int) -> tuple[float, ...]:
    """Every boundary level the rule looks up for k hypotheses, tightest first.

    These are the levels a CriticalFunction must cover for
    run_multistage; ``holm`` needs alpha / m for m = k, ..., 1, ``mult``
    alpha / k, and ``closed`` alpha.  The values are computed exactly as
    the stage loop computes them, so lookups match without tolerance.
    """
    return tuple(sorted({_stage_level(rule, alpha, m, k) for m in range(1, k + 1)}))


def stage_sample_size(
    paths: StatisticPaths,
    active: Sequence[int],
    prev_n: int,
    critical: CriticalFunction,
    level: float,
) -> int | None:
    """First analysis size past prev_n where some active statistic crosses.

    Scans the schedule beyond ``prev_n`` for the smallest n at which
    max over active i of [T_{i,n} - C_n(level)] >= 0.

    Args:
        paths: Statistic paths covering all hypotheses.
        active: Indices of the hypotheses still under test.
        prev_n: Sample size already consumed (0 before the first stage).
        critical: Calibrated critical values on the paths' schedule.
        level: The boundary level this stage tests at.

    Returns:
        The stage sample size, or None when no remaining analysis
        produces a crossing (the infimum over an empty set).
    """
    active = list(active)
    if not active:
        raise ValueError("at least one hypothesis must be active")
    if tuple(critical.schedule.analyses) != paths.analyses:
        raise ValueError("critical function and paths must share one schedule")
    bound = critical.boundary(level)
    for j, n in enumerate(paths.analyses):
        if n <= prev_n:
            continue
        top = paths.values[active, j].max()
        if top >= bound[j]:
            return n
    return None


def stage_rejections(
    paths: StatisticPaths,
    active: Sequence[int],
    n_j: int,
    critical: CriticalFunction,
    alpha: float,
    variant: ProcedureVariant,
) -> list[int]:
    """Hypotheses rejected at one stage, in rejection order.

    Orders the active statistics at n_j top down and takes the longest
    prefix in which the l-th statistic clears the boundary at the l-th
    step-down level.  The top statistic must clear its boundary (that is
    what made n_j the stage sample size), so the prefix is nonempty.

    Args:
        paths: Statistic paths covering all hypotheses.
        active: Indices of the hypotheses still under test.
        n_j: The stage sample size.
        critical: Calibrated critical values on the paths' schedule.
        alpha: Familywise error level.
        variant: Sets how the step-down levels shrink within the stage.

    Returns:
        Rejected hypothesis indices, ordered by descending statistic
        (ties by index).
    """
    alpha = check_alpha(alpha)
    active = list(active)
    col = paths.analyses.index(int(n_j))
    stats = paths.values[:, col]
    ordered = sorted(active, key=lambda i: (-stats[i], i))
    m = len(ordered)
    k_total = paths.k
    rejected: list[int] = []
    for ell, idx in enumerate(ordered, start=1):
        level = _stage_level(variant.rule, alpha, m, k_total, rejected_so_far=ell - 1)
        if stats[idx] >= critical.value(n_j, level):
            rejected.append(idx)
        else:
            break
    if not rejected:
        raise ValueError(
            f"no active statistic clears its boundary at n={n_j}; "
            "the stage sample size must come from stage_sample_size"
        )
    return rejected


def run_multistage(
    paths: StatisticPaths,
    family: HypothesisFamily,
    schedule: SampleSchedule,
    critical: CriticalFunction,
    alpha: float,
    variant: ProcedureVariant = HOLM,
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

    Args:
        paths: Statistics for every hypothesis at every analysis.
        family: The hypothesis family, including containment structure.
        schedule: Allowed analysis sizes; must match the paths.
        critical: Critical values covering every level the variant uses.
        alpha: Familywise error level.
        variant: Stage-level rule.

    Returns:
        A TrialResult with decisions, stages, per-endpoint final sizes,
        and a record of each executed stage.
    """
    alpha = check_alpha(alpha)
    if paths.k != family.k:
        raise ValueError(f"paths cover {paths.k} hypotheses, family has {family.k}")
    if paths.analyses != tuple(schedule.analyses):
        raise ValueError("paths and schedule disagree on the analysis sizes")
    if variant.rule == "closed" and not family.closed_monotone:
        raise ValueError("the closed variant requires a family flagged closed_monotone")

    k = family.k
    rejected = [False] * k
    decided = [False] * k
    decision_stage = [0] * k
    final_n = [0] * k
    records: list[StageRecord] = []

    active = list(range(k))
    prev_n = 0
    rejected_any: list[int] = []

    # Every stage that does not stop rejects at least one hypothesis, so
    # the loop always ends in a break.
    for stage in range(1, k + 1):
        level = _stage_level(variant.rule, alpha, len(active), k)
        n_j = stage_sample_size(paths, active, prev_n, critical, level)

        if n_j is None:
            # No remaining analysis produces a crossing: accept the
            # survivors once the schedule is exhausted.
            n_j, remaining = schedule.sup, active
            break

        stage_rej = stage_rejections(paths, active, n_j, critical, alpha, variant)
        col = paths.analyses.index(n_j)
        stats = paths.values[:, col]
        ordered = tuple(sorted(active, key=lambda i: (-stats[i], i)))
        records.append(
            StageRecord(
                stage=stage,
                n=n_j,
                active=tuple(active),
                ordered=ordered,
                rejected=tuple(stage_rej),
            )
        )
        for i in stage_rej:
            rejected[i] = True
            decided[i] = True
            decision_stage[i] = stage
            final_n[i] = n_j
            rejected_any.append(i)

        if variant.rule == "closed":
            # Implied acceptances: anything containing the complement of
            # a hypothesis just rejected is accepted on the spot.
            for r in stage_rej:
                for b in family.implied_acceptances(r):
                    if not decided[b]:
                        decided[b] = True
                        decision_stage[b] = stage
                        final_n[b] = n_j

        remaining = [i for i in active if not decided[i]]
        if n_j == schedule.sup or all(
            any(family.contains_complement[r][b] for r in rejected_any) for b in remaining
        ):
            break
        active = remaining
        prev_n = n_j

    # The run stops: the schedule is exhausted, nothing survives, or
    # every survivor contains the complement of a rejected hypothesis.
    # The survivors are accepted where it stops.
    for i in remaining:
        decision_stage[i] = stage
        final_n[i] = n_j

    return TrialResult(
        rejected=tuple(rejected),
        decision_stage=tuple(decision_stage),
        endpoint_final_n=tuple(final_n),
        stages=tuple(records),
    )
