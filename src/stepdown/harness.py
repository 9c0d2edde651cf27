"""Monte Carlo evaluation of the testing procedures on the trial model.

A scenario pins down the true parameters, the procedure, the schedule,
the replicate count, and the master seed.  Summaries carry raw integer
accumulators (measurement totals, rejection counts, familywise error
counts) rather than derived ratios, so partial runs over disjoint
replicate ranges merge exactly: splitting the replicates across workers
or machines and merging the pieces reproduces the serial result bit for
bit.  Each replicate's draws depend only on (master seed, replicate
index), never on execution order.

A boundary depends only on the schedule, the levels, the shape and the
grid, so one calibration covering ``needed_levels`` of every procedure
in a study serves all of its cells; pass it as ``critical``.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from dataclasses import dataclass
from typing import Iterable

import numpy as np
from scipy import stats as scipy_stats

from .boundary import CriticalFunction, calibrate_levels
from .core import HypothesisFamily, SampleSchedule
from .procedures import HOLM, MULT, ProcedureVariant, holm_fixed, run_multistage, stage_levels
from .trial import RngStream, ScenarioParams, generate_paths

__all__ = [
    "PROCEDURES",
    "ScenarioSpec",
    "SimulationSummary",
    "empty_summary",
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
    shape: str = "flat"
    continuity_correction: bool = False
    grid_points: int = 512

    def __post_init__(self) -> None:
        if self.procedure not in PROCEDURES:
            raise ValueError(
                f"unknown procedure {self.procedure!r}; expected one of {PROCEDURES}"
            )
        if not isinstance(self.replicates, (int, np.integer)) or self.replicates < 1:
            raise ValueError(f"replicates must be a positive integer, got {self.replicates!r}")
        if self.master_seed < 0:
            raise ValueError("master_seed must be nonnegative")

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


def build_critical(spec: ScenarioSpec) -> CriticalFunction | None:
    """Calibrate the boundary levels the scenario's procedure needs."""
    levels = needed_levels((spec.procedure,), spec.alpha)
    if not levels:
        return None
    return calibrate_levels(
        spec.schedule, levels, spec.shape, grid_points=spec.grid_points
    )


def run_scenario(
    spec: ScenarioSpec,
    rep_range: tuple[int, int] | None = None,
    critical: CriticalFunction | None = None,
) -> SimulationSummary:
    """Simulate (part of) a scenario and return its summary.

    Args:
        spec: The scenario cell to simulate.
        rep_range: Half-open range of replicate indices to run; defaults
            to the full range (0, spec.replicates).  Draws for replicate
            r depend only on (spec.master_seed, r).
        critical: Critical values covering the procedure's
            ``needed_levels``, typically one calibration shared by every
            cell of a study; calibrated here when None.

    Returns:
        A SimulationSummary covering exactly rep_range.
    """
    lo, hi = rep_range if rep_range is not None else (0, spec.replicates)
    if not (0 <= lo <= hi <= spec.replicates):
        raise ValueError(
            f"rep_range {(lo, hi)} must lie within (0, {spec.replicates})"
        )
    if critical is None:
        critical = build_critical(spec)

    truth = spec.params.truth
    sup = spec.schedule.sup
    k = _FAMILY.k

    sum_n = 0
    sumsq_n = 0
    reject_counts = [0] * k
    fwe_count = 0

    fixed_sample = spec.procedure == "H"
    if fixed_sample:
        # Fixed-sample reference: exact one-sided binomial tail for the
        # binary endpoint, Gaussian tails for the mean endpoints.
        tail = scipy_stats.binom.sf(np.arange(sup + 1) - 1, sup, 0.5)
    else:
        variant = _VARIANTS[spec.procedure]
        assert critical is not None
    for r in range(lo, hi):
        paths = generate_paths(
            spec.params,
            spec.schedule,
            RngStream(spec.master_seed, r),
            continuity_correction=spec.continuity_correction,
        )
        if fixed_sample:
            t1, t2 = paths.values[0, -1], paths.values[1, -1]
            s3 = int(round(paths.sums[2, -1]))
            p = (
                0.5 * math.erfc(t1 / math.sqrt(2.0)),
                0.5 * math.erfc(t2 / math.sqrt(2.0)),
                float(tail[s3]),
            )
            rejected = holm_fixed(p, spec.alpha)
            total = k * sup
        else:
            result = run_multistage(
                paths, _FAMILY, spec.schedule, critical, spec.alpha, variant
            )
            rejected = result.rejected
            total = result.total_measurements
        sum_n += total
        sumsq_n += total * total
        hit_true = False
        for i in range(k):
            if rejected[i]:
                reject_counts[i] += 1
                if truth[i]:
                    hit_true = True
        if hit_true:
            fwe_count += 1

    return SimulationSummary(
        spec=spec,
        rep_ranges=_normalize_ranges(((lo, hi),)),
        replicates=hi - lo,
        sum_measurements=sum_n,
        sumsq_measurements=sumsq_n,
        reject_counts=tuple(reject_counts),
        fwe_count=fwe_count,
    )


def _worker_run(args: tuple[ScenarioSpec, tuple[int, int], CriticalFunction | None]) -> SimulationSummary:
    spec, rep_range, critical = args
    return run_scenario(spec, rep_range, critical)


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
    spec: ScenarioSpec,
    workers: int = 1,
    critical: CriticalFunction | None = None,
) -> SimulationSummary:
    """Run a scenario across worker processes and merge the pieces.

    The replicates are split into ``workers`` ranges, run by at most
    ``os.cpu_count()`` processes.  The result is bit-identical for any
    worker count: replicate draws are keyed by index and the merged
    accumulators are integers.  ``critical`` is as for run_scenario.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    if critical is None:
        critical = build_critical(spec)
    if workers == 1 or spec.replicates == 1:
        return run_scenario(spec, critical=critical)
    ranges = split_ranges(spec.replicates, workers)
    jobs = [(spec, rng, critical) for rng in ranges]
    processes = min(len(ranges), os.cpu_count() or 1)
    with multiprocessing.Pool(processes=processes) as pool:
        parts = pool.map(_worker_run, jobs)
    summary = parts[0]
    for part in parts[1:]:
        summary = merge(summary, part)
    return summary
