"""Monte Carlo evaluation of the testing procedures on the trial model.

A scenario pins down the true parameters, the procedure, the schedule,
the replicate count, and the master seed.  Summaries carry raw integer
accumulators (measurement totals, rejection counts, familywise error
counts) rather than derived ratios, so partial runs over disjoint
replicate ranges merge exactly: splitting the replicates across workers
or machines and merging the pieces reproduces the serial result bit for
bit.  Each replicate's draws depend only on (master seed, replicate
index), never on execution order.

Replicates run in blocks, and the cells of a run that share master
seed, schedule and replicate count run together in one block loop
(``run_cells``).  Each block is drawn once (``draw_replicates``), its
sums and statistics are computed once per distinct scenario
(``paths_from_draws``), and one vectorised pass per cell decides it
(``run_multistage_batch`` for the staged procedures, ``holm_fixed`` on a
p-value matrix for ``H``).  Every replicate gets exactly the numbers and
decisions of the one-replicate functions ``generate_paths`` and
``run_multistage``, so neither the block size nor which cells run
together changes a result; only one block of draws is held at a time.
``run_scenario`` is the one-cell view of the same loop.

The staged procedures need a boundary covering their ``needed_levels``,
passed as ``critical``.  A boundary depends only on the schedule, the
levels, the shape and the grid, so one calibration serves every cell of
a study.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy import stats as scipy_stats

from .boundary import CriticalFunction, calibrate_levels
from .core import HypothesisFamily, SampleSchedule
# calibrate_levels, run_multistage and generate_paths are not called here;
# they stay bound because bench/tracing.py wraps them on this module.  It
# also wraps run_scenario, which run_scenario_parallel no longer calls, so
# a traced `stepdown simulate` reports 0 calls and replicates for it.
from .procedures import (
    HOLM,
    MULT,
    ProcedureVariant,
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

PROCEDURES = ("H", "Mult", "MultH")

_VARIANTS: dict[str, ProcedureVariant] = {
    "Mult": MULT,
    "MultH": HOLM,
}

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
    rules = {_VARIANTS[proc].rule for proc in procedures if proc != "H"}
    return tuple(sorted({x for rule in rules for x in stage_levels(rule, alpha, _FAMILY.k)}))


@dataclass(frozen=True)
class ScenarioSpec:
    """One simulation cell: parameters, procedure, schedule, seed.

    ``H`` is the fixed-sample reference: every endpoint runs to the
    largest analysis and a step-down test is applied to the final
    p-values (exact Gaussian tails for the mean endpoints, the exact
    binomial tail for the binary endpoint).  The ``Mult`` and ``MultH``
    procedures are the multistage variants with fixed and step-down stage
    levels respectively.
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
        if not isinstance(self.replicates, (int, np.integer)) or self.replicates < 1:
            raise ValueError(f"replicates must be a positive integer, got {self.replicates!r}")
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


def _draw_key(spec: ScenarioSpec) -> tuple[SampleSchedule, int, int]:
    # Cells with equal keys draw the same numbers for each replicate.
    return spec.schedule, spec.master_seed, spec.replicates


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
    if not specs:
        raise ValueError("run_cells needs at least one cell")
    schedule, master_seed, replicates = shared = _draw_key(specs[0])
    for spec in specs:
        if _draw_key(spec) != shared:
            raise ValueError("cells run together must share schedule, master_seed and replicates")
        if critical is None and spec.procedure != "H":
            raise ValueError(f"procedure {spec.procedure!r} needs a calibrated boundary (critical)")
    lo, hi = rep_range if rep_range is not None else (0, replicates)
    if not (0 <= lo <= hi <= replicates):
        raise ValueError(f"rep_range {(lo, hi)} must lie within (0, {replicates})")

    sup = schedule.sup
    k = _FAMILY.k
    summaries = [empty_summary(spec) for spec in specs]
    # Cells with the same parameters and correction read the same paths.
    by_paths: dict[tuple[ScenarioParams, bool], list[int]] = {}
    for i, spec in enumerate(specs):
        by_paths.setdefault((spec.params, spec.continuity_correction), []).append(i)
    if any(spec.procedure == "H" for spec in specs):
        # Fixed-sample reference: exact one-sided binomial tail for the
        # binary endpoint, Gaussian tails for the mean endpoints.
        tail = scipy_stats.binom.sf(np.arange(sup + 1) - 1, sup, 0.5)
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
                    # math.erfc, not a vectorised erfc that may round
                    # differently, keeps the bytes of the H rows unchanged.
                    p = np.empty((len(values), k))
                    for e in (0, 1):
                        p[:, e] = [
                            0.5 * math.erfc(t / math.sqrt(2.0)) for t in values[:, e, -1].tolist()
                        ]
                    p[:, 2] = tail[np.rint(sums[:, 2, -1]).astype(np.int64)]
                    rejected = holm_fixed(p, spec.alpha)
                    total = np.full(len(values), k * sup, dtype=np.int64)
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


def _worker_run(
    args: tuple[list[ScenarioSpec], tuple[int, int], CriticalFunction | None],
) -> list[SimulationSummary]:
    specs, rep_range, critical = args
    return run_cells(specs, rep_range, critical)


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
    """Run scenarios across worker processes and merge each one's pieces.

    Cells that share ``master_seed``, ``schedule`` and ``replicates``
    form one group, run together by ``run_cells`` so each block is drawn
    once for the whole group.  Each group's replicates are split into
    ``workers`` ranges, and every (group, range) job goes through one
    pool of at most ``os.cpu_count()`` processes.  The results are
    bit-identical for any worker count: replicate draws are keyed by
    index and the merged accumulators are integers.  ``critical`` is as
    for run_cells and serves every scenario.

    Returns:
        One summary per scenario, in order.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    groups: dict[tuple[SampleSchedule, int, int], list[int]] = {}
    for i, spec in enumerate(specs):
        groups.setdefault(_draw_key(spec), []).append(i)
    members = list(groups.values())
    split = [split_ranges(replicates, workers) for _, _, replicates in groups]
    jobs = [
        ([specs[i] for i in cells], rng, critical)
        for cells, ranges in zip(members, split)
        for rng in ranges
    ]
    if workers == 1:
        parts = iter(map(_worker_run, jobs))
    else:
        processes = min(max((len(ranges) for ranges in split), default=1), os.cpu_count() or 1)
        with multiprocessing.Pool(processes=processes) as pool:
            parts = iter(pool.map(_worker_run, jobs))
    summaries: list[SimulationSummary] = [empty_summary(spec) for spec in specs]
    for cells, ranges in zip(members, split):
        for _ in ranges:
            for i, piece in zip(cells, next(parts)):
                summaries[i] = merge(summaries[i], piece)
    return summaries
