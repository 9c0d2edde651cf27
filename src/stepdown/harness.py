"""Monte Carlo evaluation of the testing procedures on the trial model.

A scenario pins down the true parameters, the procedure, the schedule,
the replicate count, and the master seed.  Summaries carry raw integer
accumulators (measurement totals, rejection counts, familywise error
counts) rather than derived ratios, so partial runs over disjoint
replicate ranges merge exactly: splitting the replicates across workers
or machines and merging the pieces reproduces the serial result bit for
bit.  Each replicate's draws depend only on (master seed, replicate
index), never on execution order.

Replicates run in blocks, and the cells of a run, which share master
seed, schedule and replicate count, run together in one block loop
(``run_cells``).  Each block is drawn once (``draw_replicates``), its
sums and statistics are computed once per distinct scenario
(``paths_from_draws``), and one vectorised pass per cell decides it:
``run_multistage_batch`` for the staged procedures, and for ``H`` the
step-down rule of ``holm_fixed`` on how many of the exact Holm cutoffs
each final value clears.  Every replicate gets exactly the numbers and
decisions of the one-replicate functions ``generate_paths`` and
``run_multistage``, or of ``holm_fixed`` on its final p-values, so
neither the block size nor which cells run together changes a result;
only one block of draws is held at a time.  ``run_scenario`` is the
one-cell view of the same loop.

The staged procedures need a boundary covering their ``needed_levels``,
passed as ``critical``.  A boundary depends only on the schedule, the
levels, the shape and the grid, so one calibration serves every cell of
a study.
"""

from __future__ import annotations

import functools
import math
import multiprocessing
import os
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .boundary import CriticalFunction, calibrate_levels
from .core import HypothesisFamily, SampleSchedule, check_alpha, check_integer
# calibrate_levels, holm_fixed, run_multistage and generate_paths are not
# called here; they stay bound because bench/tracing.py wraps them on this
# module.  It also wraps run_scenario, which run_scenario_parallel no longer
# calls, so a traced `stepdown simulate` reports 0 calls and replicates for it.
from .procedures import (
    HOLM,
    MULT,
    _step_down,
    holm_fixed,
    run_multistage,
    run_multistage_batch,
    stage_levels,
)
from .trial import ScenarioParams, check_seed, draw_replicates, generate_paths, paths_from_draws

__all__ = [
    "PROCEDURES",
    "ScenarioSpec",
    "SimulationSummary",
    "empty_summary",
    "run_cells",
    "run_scenario",
    "run_scenario_parallel",
    "merge",
    "needed_levels",
]

_VARIANTS: dict[str, str] = {
    "Mult": MULT,
    "MultH": HOLM,
}

PROCEDURES = ("H", *_VARIANTS)

# The trial model's three hypotheses carry no containment structure.
_FAMILY = HypothesisFamily.simple(3)

# Observations drawn per endpoint in one block of replicates: 3,744
# replicates on a 35-observation schedule, about 7 MB of draws.  It is
# also the longest schedule a ScenarioSpec accepts, so a block always
# holds a whole replicate and its memory stays bounded.
BLOCK_OBSERVATIONS = 1 << 17


def block_replicates(schedule: SampleSchedule) -> int:
    """Replicates per block for a schedule; results do not depend on it."""
    return max(1, BLOCK_OBSERVATIONS // schedule.sup)


def needed_levels(procedures: Iterable[str], alpha: float) -> tuple[float, ...]:
    """Boundary levels the named procedures look up, tightest first."""
    rules = {_VARIANTS[proc] for proc in procedures if proc != "H"}
    return tuple(sorted({x for rule in rules for x in stage_levels(rule, alpha, _FAMILY.k)}))


@dataclass(frozen=True)
class ScenarioSpec:
    """One simulation cell: parameters, procedure, schedule, seed.

    ``H`` is the fixed-sample reference: every endpoint runs to the
    largest analysis and Holm's step-down test is applied to the final
    p-values (exact Gaussian tails for the mean endpoints, the exact
    binomial tail for the binary endpoint).  The ``Mult`` and ``MultH``
    procedures are the multistage variants with fixed and step-down stage
    levels respectively.  Any sequence of sizes serves as ``schedule``.
    """

    params: ScenarioParams
    schedule: SampleSchedule
    procedure: str = "MultH"
    alpha: float = 0.05
    replicates: int = 50_000
    master_seed: int = 1
    continuity_correction: bool = False

    def __post_init__(self) -> None:
        if self.procedure not in PROCEDURES:
            raise ValueError(
                f"unknown procedure {self.procedure!r}; expected one of {PROCEDURES}"
            )
        object.__setattr__(self, "schedule", SampleSchedule(self.schedule))
        check_alpha(self.alpha)
        check_integer(self.replicates, "replicates", 1)
        check_seed(self.master_seed)
        if self.schedule.sup > BLOCK_OBSERVATIONS:
            raise ValueError(
                f"schedule {','.join(map(str, self.schedule))} runs to {self.schedule.sup} "
                f"observations per endpoint; at most {BLOCK_OBSERVATIONS} can be simulated"
            )

    @property
    def label(self) -> str:
        return self.params.label()


@dataclass(frozen=True)
class SimulationSummary:
    """Raw counts from a (possibly partial) scenario run.

    ``rep_ranges`` lists the half-open replicate index ranges covered.
    All statistics derive from the integer accumulators, so merging two
    summaries over disjoint ranges is exact.
    """

    spec: ScenarioSpec
    rep_ranges: tuple[tuple[int, int], ...]
    replicates: int
    sum_measurements: int
    sumsq_measurements: int
    reject_counts: tuple[int, int, int]
    fwe_count: int

    @property
    def em(self) -> float:
        """Mean total measurements per replicate."""
        if self.replicates == 0:
            return math.nan
        return self.sum_measurements / self.replicates

    @property
    def em_se(self) -> float:
        r = self.replicates
        if r < 2:
            return math.nan
        var = (self.sumsq_measurements - self.sum_measurements**2 / r) / (r - 1)
        return math.sqrt(max(var, 0.0) / r)

    def p_reject(self, i: int) -> float:
        if self.replicates == 0:
            return math.nan
        return self.reject_counts[i] / self.replicates

    def p_reject_se(self, i: int) -> float:
        return _binomial_se(self.reject_counts[i], self.replicates)

    @property
    def any_true_null(self) -> bool:
        return any(self.spec.params.truth)

    @property
    def fwe(self) -> float | None:
        """Probability of rejecting a true hypothesis, None if all are false."""
        if not self.any_true_null:
            return None
        if self.replicates == 0:
            return math.nan
        return self.fwe_count / self.replicates

    @property
    def fwe_se(self) -> float | None:
        if not self.any_true_null:
            return None
        return _binomial_se(self.fwe_count, self.replicates)


def _binomial_se(count: int, n: int) -> float:
    if n == 0:
        return math.nan
    phat = count / n
    return math.sqrt(phat * (1.0 - phat) / n)


def empty_summary(spec: ScenarioSpec) -> SimulationSummary:
    """The merge identity for a scenario."""
    return SimulationSummary(
        spec=spec,
        rep_ranges=(),
        replicates=0,
        sum_measurements=0,
        sumsq_measurements=0,
        reject_counts=(0, 0, 0),
        fwe_count=0,
    )


def _normalize_ranges(ranges: tuple[tuple[int, int], ...]) -> tuple[tuple[int, int], ...]:
    nonempty = sorted((lo, hi) for lo, hi in ranges if hi > lo)
    merged: list[tuple[int, int]] = []
    for lo, hi in nonempty:
        if merged and lo < merged[-1][1]:
            raise ValueError(f"replicate ranges overlap near index {lo}")
        if merged and lo == merged[-1][1]:
            merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    return tuple(merged)


def merge(a: SimulationSummary, b: SimulationSummary) -> SimulationSummary:
    """Combine two partial runs of the same scenario.

    The two summaries must come from identical specs and cover disjoint
    replicate ranges.  Merging is exact and associative because only
    integer counts are combined.
    """
    if a.spec != b.spec:
        raise ValueError("cannot merge summaries from different scenario specs")
    ranges = _normalize_ranges(a.rep_ranges + b.rep_ranges)
    return SimulationSummary(
        spec=a.spec,
        rep_ranges=ranges,
        replicates=a.replicates + b.replicates,
        sum_measurements=a.sum_measurements + b.sum_measurements,
        sumsq_measurements=a.sumsq_measurements + b.sumsq_measurements,
        reject_counts=tuple(x + y for x, y in zip(a.reject_counts, b.reject_counts)),
        fwe_count=a.fwe_count + b.fwe_count,
    )


def _binomial_cutoffs(n: int, levels: Iterable[float]) -> list[int]:
    """For each level, the smallest count c with P(Bin(n, 1/2) >= c) < level.

    The tail is kept exactly, as the integer 2**n * P(X >= c), and
    compared with each level's exact ratio, so a count is at or above its
    cutoff exactly when its one-sided p-value is below the level.  The
    walk starts at the middle count, whose tail symmetry gives from the
    central coefficient alone, and moves one count at a time to each
    cutoff in turn: O(sqrt(n)) steps for levels away from 0 and 1, with
    no tail for every count.  A cutoff of n + 1 means no count clears.
    """
    c = n // 2
    coef = math.comb(n, c)
    tail = ((1 << n) + coef * (1 + n % 2)) >> 1
    cutoffs = []
    for level in levels:
        num, den = level.as_integer_ratio()
        bound = num << n
        # Step down while the count below clears too, then up until c
        # clears, stopping at n: a level of at most 2**-n clears no count.
        while c > 0:
            below = coef * c // (n - c + 1)
            if (tail + below) * den >= bound:
                break
            c, coef, tail = c - 1, below, tail + below
        while c < n and tail * den >= bound:
            c, coef, tail = c + 1, coef * (n - c) // (c + 1), tail - coef
        cutoffs.append(c if tail * den < bound else n + 1)
    return cutoffs


def _normal_cutoff(level: float) -> float:
    """The smallest float z with ``0.5 * math.erfc(z / math.sqrt(2.0)) < level``.

    That is a Gaussian statistic's one-sided p-value.  Bisection stops at
    adjacent ends: a float midpoint of non-adjacent floats lies between.
    """
    lo, hi = -40.0, 40.0  # p-values 1.0 and 0.0
    while math.nextafter(lo, hi) < hi:
        mid = (lo + hi) / 2
        lo, hi = (lo, mid) if 0.5 * math.erfc(mid / math.sqrt(2.0)) < level else (mid, hi)
    return hi


def _shared_draws(specs: Sequence[ScenarioSpec]) -> tuple[SampleSchedule, int, int]:
    """The schedule, master seed and replicate count every cell shares."""
    keys = {(spec.schedule, spec.master_seed, spec.replicates) for spec in specs}
    if not keys:
        raise ValueError("run_cells needs at least one cell")
    if len(keys) > 1:
        raise ValueError("cells run together must share schedule, master_seed and replicates")
    return keys.pop()


def run_cells(
    specs: Sequence[ScenarioSpec],
    rep_range: tuple[int, int] | None = None,
    critical: CriticalFunction | None = None,
) -> list[SimulationSummary]:
    """Simulate (part of) several cells that share their draws.

    The cells must share ``master_seed``, ``schedule`` and
    ``replicates``, so replicate r draws the same numbers in each.  Each
    block of replicates is drawn once; sums and statistics are computed
    once per distinct ``(params, continuity_correction)``, and every
    cell's procedure decides the block from them.

    Args:
        specs: The cells to simulate, at least one.
        rep_range: Half-open range of replicate indices to run; defaults
            to the full range (0, replicates).  Draws for replicate r
            depend only on (master_seed, r).
        critical: Critical values covering the procedures'
            ``needed_levels``, typically one calibration shared by every
            cell of a study.  Required unless every procedure is ``H``.

    Returns:
        One SimulationSummary per cell, in order, each covering exactly
        rep_range.
    """
    schedule, master_seed, replicates = _shared_draws(specs)
    lo, hi = rep_range if rep_range is not None else (0, replicates)
    lo = check_integer(lo, "rep_range start", 0, replicates + 1)
    hi = check_integer(hi, "rep_range end", lo, replicates + 1)

    sup = schedule.sup
    summaries = [empty_summary(spec) for spec in specs]
    # Cells with the same parameters and correction read the same paths.
    # H cells with the same alpha share one cutoff table, whose row e holds
    # endpoint e's cutoff at each Holm level: for the final statistic, or
    # on the binary row the final count.
    by_paths: dict[tuple[ScenarioParams, bool], list[int]] = {}
    cutoffs: dict[float, np.ndarray] = {}
    for i, spec in enumerate(specs):
        by_paths.setdefault((spec.params, spec.continuity_correction), []).append(i)
        if spec.procedure == "H":
            if spec.alpha not in cutoffs:
                levels = stage_levels(HOLM, spec.alpha, _FAMILY.k)
                gaussian = [_normal_cutoff(level) for level in levels]
                cutoffs[spec.alpha] = np.array([gaussian, gaussian, _binomial_cutoffs(sup, levels)])
        elif critical is None:
            raise ValueError(f"procedure {spec.procedure!r} needs a calibrated boundary (critical)")
    step = block_replicates(schedule)
    for start in range(lo, hi, step):
        block = (start, min(start + step, hi))
        z, u = draw_replicates(master_seed, block, sup)
        for (params, correction), members in by_paths.items():
            sums, values = paths_from_draws(
                params, schedule, z, u, continuity_correction=correction
            )
            truth = np.asarray(params.truth)
            for i in members:
                spec = specs[i]
                if spec.procedure == "H":
                    # Holm compares p-values only with the levels alpha / m,
                    # so how many of them a final value clears decides it.
                    final = np.concatenate([values[:, :2, -1], sums[:, 2:, -1]], axis=1)
                    cleared = (final[:, :, None] >= cutoffs[spec.alpha]).sum(axis=2)
                    rejected = _step_down(cleared, _FAMILY.k)
                    total = np.full(len(values), _FAMILY.k * sup, dtype=np.int64)
                else:
                    rejected, final_n = run_multistage_batch(
                        values, _FAMILY, schedule, critical, spec.alpha, _VARIANTS[spec.procedure]
                    )
                    total = final_n.sum(axis=1)
                summaries[i] = merge(
                    summaries[i],
                    SimulationSummary(
                        spec=spec,
                        rep_ranges=(block,),
                        replicates=len(total),
                        sum_measurements=int(total.sum()),
                        sumsq_measurements=int((total * total).sum()),
                        reject_counts=tuple(int(c) for c in rejected.sum(axis=0)),
                        fwe_count=int((rejected & truth).any(axis=1).sum()),
                    ),
                )
    return summaries


def run_scenario(
    spec: ScenarioSpec,
    rep_range: tuple[int, int] | None = None,
    critical: CriticalFunction | None = None,
) -> SimulationSummary:
    """Simulate (part of) one scenario cell: the one-cell view of ``run_cells``.

    ``rep_range`` defaults to (0, spec.replicates), and ``critical`` is
    required unless the procedure is ``H``.  Returns a summary covering
    exactly rep_range.
    """
    [summary] = run_cells([spec], rep_range, critical)
    return summary


def split_ranges(total: int, pieces: int) -> list[tuple[int, int]]:
    """Split range(total) into contiguous near-even nonempty pieces."""
    pieces = max(1, min(pieces, total))
    base, extra = divmod(total, pieces)
    ranges = []
    lo = 0
    for i in range(pieces):
        hi = lo + base + (1 if i < extra else 0)
        ranges.append((lo, hi))
        lo = hi
    return ranges


def run_scenario_parallel(
    specs: Sequence[ScenarioSpec],
    workers: int = 1,
    critical: CriticalFunction | None = None,
) -> list[SimulationSummary]:
    """Run cells that share their draws across worker processes.

    The cells must share ``master_seed``, ``schedule`` and ``replicates``,
    as for run_cells; anything else raises ValueError before a pool
    opens.  The replicates are split into ``workers`` ranges, each run by
    ``run_cells`` for every cell in one pool of at most
    ``os.cpu_count()`` processes, and each cell's pieces are merged.  The
    results are bit-identical for any worker count: replicate draws are
    keyed by index and the merged accumulators are integers.
    ``critical`` is as for run_cells and serves every cell.

    Returns:
        One summary per cell, in order.
    """
    check_integer(workers, "workers", 1)
    _, _, replicates = _shared_draws(specs)
    ranges = split_ranges(replicates, workers)
    job = functools.partial(run_cells, specs, critical=critical)
    if workers == 1:
        parts = map(job, ranges)
    else:
        with multiprocessing.Pool(processes=min(len(ranges), os.cpu_count() or 1)) as pool:
            parts = pool.map(job, ranges)
    return [functools.reduce(merge, pieces) for pieces in zip(*parts)]
