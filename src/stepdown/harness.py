"""Monte Carlo evaluation of the testing procedures on the trial model.

A scenario pins down the true parameters, the procedure, the schedule,
the replicate count, and the master seed.  Summaries carry raw integer
accumulators (measurement totals, rejection counts, familywise error
counts) rather than derived ratios, so partial runs over disjoint
replicate ranges merge exactly: splitting the replicates across workers
or machines and merging the pieces reproduces the serial result bit for
bit.  Each replicate's draws depend only on (master seed, replicate
index), never on execution order.

Replicates run in blocks: one ``generate_batch`` call draws a block and
one vectorised pass decides it (``run_multistage_batch`` for the staged
procedures, ``holm_fixed`` on a p-value matrix for ``H``).  Both give
every replicate exactly the numbers and decisions of the one-replicate
functions ``generate_paths`` and ``run_multistage``, so the block size
bounds memory and changes no result.

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
# they stay bound because bench/tracing.py wraps them on this module.
from .procedures import (
    HOLM,
    MULT,
    ProcedureVariant,
    holm_fixed,
    run_multistage,
    run_multistage_batch,
    stage_levels,
)
from .trial import ScenarioParams, check_seed, generate_batch, generate_paths

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
            cell of a study.  Required unless the procedure is ``H``.

    Returns:
        A SimulationSummary covering exactly rep_range.
    """
    lo, hi = rep_range if rep_range is not None else (0, spec.replicates)
    if not (0 <= lo <= hi <= spec.replicates):
        raise ValueError(
            f"rep_range {(lo, hi)} must lie within (0, {spec.replicates})"
        )
    if critical is None and spec.procedure != "H":
        raise ValueError(f"procedure {spec.procedure!r} needs a calibrated boundary (critical)")

    truth = np.asarray(spec.params.truth)
    sup = spec.schedule.sup
    k = _FAMILY.k

    sum_n = 0
    sumsq_n = 0
    reject_counts = np.zeros(k, dtype=np.int64)
    fwe_count = 0

    fixed_sample = spec.procedure == "H"
    if fixed_sample:
        # Fixed-sample reference: exact one-sided binomial tail for the
        # binary endpoint, Gaussian tails for the mean endpoints.
        tail = scipy_stats.binom.sf(np.arange(sup + 1) - 1, sup, 0.5)
    else:
        variant = _VARIANTS[spec.procedure]
    step = block_replicates(spec.schedule)
    for start in range(lo, hi, step):
        sums, values = generate_batch(
            spec.params,
            spec.schedule,
            spec.master_seed,
            (start, min(start + step, hi)),
            continuity_correction=spec.continuity_correction,
        )
        if fixed_sample:
            # math.erfc, not a vectorised erfc that may round differently,
            # keeps the bytes of the H rows unchanged.
            p = np.empty((len(values), k))
            for e in (0, 1):
                p[:, e] = [0.5 * math.erfc(t / math.sqrt(2.0)) for t in values[:, e, -1].tolist()]
            p[:, 2] = tail[np.rint(sums[:, 2, -1]).astype(np.int64)]
            rejected = holm_fixed(p, spec.alpha)
            total = np.full(len(values), k * sup, dtype=np.int64)
        else:
            rejected, final_n = run_multistage_batch(
                values, _FAMILY, spec.schedule, critical, spec.alpha, variant
            )
            total = final_n.sum(axis=1)
        sum_n += int(total.sum())
        sumsq_n += int((total * total).sum())
        reject_counts += rejected.sum(axis=0)
        fwe_count += int((rejected & truth).any(axis=1).sum())

    return SimulationSummary(
        spec=spec,
        rep_ranges=_normalize_ranges(((lo, hi),)),
        replicates=hi - lo,
        sum_measurements=sum_n,
        sumsq_measurements=sumsq_n,
        reject_counts=tuple(int(c) for c in reject_counts),
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
    specs: Sequence[ScenarioSpec],
    workers: int = 1,
    critical: CriticalFunction | None = None,
) -> list[SimulationSummary]:
    """Run scenarios across worker processes and merge each one's pieces.

    Each scenario's replicates are split into ``workers`` ranges, and all
    ranges of all scenarios go through one pool of at most
    ``os.cpu_count()`` processes.  The results are bit-identical for any
    worker count: replicate draws are keyed by index and the merged
    accumulators are integers.  ``critical`` is as for run_scenario and
    serves every scenario.

    Returns:
        One summary per scenario, in order.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    if workers == 1:
        return [run_scenario(spec, critical=critical) for spec in specs]
    split = [split_ranges(spec.replicates, workers) for spec in specs]
    jobs = [(spec, rng, critical) for spec, ranges in zip(specs, split) for rng in ranges]
    processes = min(max((len(ranges) for ranges in split), default=1), os.cpu_count() or 1)
    with multiprocessing.Pool(processes=processes) as pool:
        parts = iter(pool.map(_worker_run, jobs))
    summaries = []
    for spec, ranges in zip(specs, split):
        summary = empty_summary(spec)
        for _ in ranges:
            summary = merge(summary, next(parts))
        summaries.append(summary)
    return summaries
