"""A test-side replay of ``run_multistage``, apart from its fast exits.

``replay_multistage`` is the one-trial stage loop as ``run_multistage``
ran it before that function gained its early return and its active-set
scan: every stage, the first included, runs through one loop that scans
the looks past the previous stage for the first crossing among the
active statistics, then orders, rejects, applies implied acceptances
and stops or carries the survivors on.  A run in which nothing crosses
takes the same loop.  So a test can pair every field of
``run_multistage``'s ``TrialResult``, stage records included, with it.
Its boundaries are the ``_stage_bounds`` rows both share.
"""

from stepdown.core import StageRecord, TrialResult
from stepdown.procedures import CLOSED, _stage_bounds


def replay_multistage(paths, family, schedule, critical, alpha, rule):
    """The TrialResult of the multistage rule on one set of paths."""
    k = family.k
    bounds = _stage_bounds(family, schedule, critical, alpha, rule)

    analyses = paths.analyses
    last = len(analyses) - 1
    # columns[j][i]: statistic i at analysis j.
    columns = paths.values.T.tolist()
    # Bit b of implied[a] is set when rejecting a accepts b; covered is
    # the union over every hypothesis rejected so far.
    implied = family._implied
    closed = rule == CLOSED
    covered = 0
    rejected = [False] * k
    decision_stage = [0] * k
    final_n = [0] * k
    records = []
    active = tuple(range(k))
    alive = (1 << k) - 1  # active as a bitmask
    col = -1

    # Every stage that does not stop rejects at least one hypothesis, so
    # the loop always ends in a break.
    for stage in range(1, k + 1):
        m = len(active)
        bound = bounds[m - 1]
        # Stage sample size: the first analysis past the previous stage
        # where the top active statistic meets the stage boundary.  Only
        # the first stage has all k active.
        for col in range(col + 1, last + 1):
            column = columns[col]
            if max(column if m == k else [column[i] for i in active]) >= bound[col]:
                break
        else:
            # No remaining analysis produces a crossing: accept the
            # survivors once the schedule is exhausted.
            n_j = analyses[last]
            break
        n_j = analyses[col]

        # Stage rejections: the longest prefix of the top-down order in
        # which the l-th statistic clears the boundary for m - l + 1
        # active hypotheses.  Ties go to the lower index.
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
            # Anything containing the complement of a hypothesis just
            # rejected is accepted on the spot.
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

    # The schedule is exhausted, nothing survives, or every survivor
    # contains the complement of a rejected hypothesis: what the last
    # stage decided freezes there, and the survivors are accepted there.
    for i in active:
        decision_stage[i] = stage
        final_n[i] = n_j

    return TrialResult(tuple(rejected), tuple(decision_stage), tuple(final_n), tuple(records))
