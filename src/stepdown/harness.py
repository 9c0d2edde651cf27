"""Monte Carlo evaluation of the testing procedures on the trial model.

A scenario pins down the true parameters, the procedure, the schedule,
the replicate count, and the master seed.  Summaries carry raw integer
accumulators (measurement totals, rejection counts, familywise error
counts) rather than derived ratios, so partial runs over disjoint
replicate ranges merge exactly: splitting the replicates across workers
or machines and merging the pieces reproduces the serial result bit for
bit.  Each replicate's draws depend only on (master seed, replicate
index), never on execution order.

The cells of a run, which share master seed, schedule and replicate
count, run together in one loop over blocks of replicates
(``run_cells``).  Blocks end on multiples of ``KEY_BLOCK``, so each
draws one key block of per-look increments (``draw_replicates``), and
each distinct endpoint key's sums and statistic are formed once per
block, one row per look (``endpoint_from_draws``): table1's 8 scenarios
read 10 keys, not 24.  Each (procedure, alpha) counts the keys its cells
read once per block and walks all its groups, the distinct endpoint-key
triples of its cells, side by side through one table of
``run_multistage_batch``'s look step (``_transitions``): table1 makes 3
walks a block, not 24.  A staged walk steps the schedule with each key's
count of its rule's boundary rows, and ``H``, as Holm's test is the
one-look special case of the multistage procedure, walks the last
analysis alone with each key's count of exact Holm cutoffs.  One offset
bincount per walk gives each group's rejected sets, and every cell's
summary is built from them at once with bit masks.  Every replicate gets
exactly the numbers and decisions of the one-replicate functions
``generate_paths`` and ``run_multistage``, or of ``holm_fixed`` on its
final p-values, so neither the block size nor which cells run together
changes a result; only one block of draws and its paths are held at a
time, and a walk holds at most ``_WALK_WIDTH`` replicate columns.
``run_scenario`` is the one-cell view of the same loop.

The staged procedures need a boundary covering their ``needed_levels``,
passed as ``critical``.  A boundary depends only on the schedule, the
levels, the shape and the grid, so one calibration serves every cell of
a study.
"""

from __future__ import annotations

import functools
import math
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
    _look_step,
    _stage_bounds,
    holm_fixed,
    run_multistage,
    stage_levels,
)
from .trial import (
    KEY_BLOCK,
    ScenarioParams,
    check_seed,
    draw_replicates,
    endpoint_from_draws,
    endpoint_keys,
    generate_paths,
)

__all__ = [
    "PROCEDURES",
    "ScenarioSpec",
    "SimulationSummary",
    "run_cells",
    "run_scenario",
    "run_scenario_parallel",
    "merge",
    "needed_levels",
]

_VARIANTS: dict[str, str] = {"Mult": MULT, "MultH": HOLM}

PROCEDURES = ("H", *_VARIANTS)

# The trial model's three hypotheses carry no containment structure.
_FAMILY = HypothesisFamily(3)

# The longest schedule a ScenarioSpec accepts bounds each binomial table and
# H's cutoffs; its looks bound a block's draws (KEY_BLOCK rows a look) to 3 MB.
MAX_OBSERVATIONS = 1 << 17
MAX_LOOKS = MAX_OBSERVATIONS // KEY_BLOCK
# Replicates of one or more groups that one walk holds: a block's symbols
# take at most 4 MB, at MAX_LOOKS looks in int16.
_WALK_WIDTH = 16 * KEY_BLOCK


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
        if self.schedule.sup > MAX_OBSERVATIONS or len(self.schedule) > MAX_LOOKS:
            raise ValueError(
                f"schedule {','.join(map(str, self.schedule))} has {len(self.schedule)} looks "
                f"and runs to {self.schedule.sup} observations per endpoint; at most "
                f"{MAX_LOOKS} looks and {MAX_OBSERVATIONS} observations can be simulated"
            )


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
    def fwe(self) -> float | None:
        """Probability of rejecting a true hypothesis, None if all are false."""
        if not any(self.spec.params.truth):
            return None
        if self.replicates == 0:
            return math.nan
        return self.fwe_count / self.replicates

    @property
    def fwe_se(self) -> float | None:
        if not any(self.spec.params.truth):
            return None
        return _binomial_se(self.fwe_count, self.replicates)


def _binomial_se(count: int, n: int) -> float:
    if n == 0:
        return math.nan
    phat = count / n
    return math.sqrt(phat * (1.0 - phat) / n)


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


@functools.cache
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


# A symbol writes one count in 0..k per endpoint as a number in base k + 1,
# endpoint i on digit i; a set of endpoints is a number with endpoint i on bit i.
_BASE = _FAMILY.k + 1
_SYMBOLS = _BASE**_FAMILY.k


def _digits(symbols: np.ndarray) -> np.ndarray:
    """Each symbol's counts, one column per endpoint."""
    return symbols[:, None] // _BASE ** np.arange(_FAMILY.k) % _BASE


def _bits(sets: np.ndarray) -> np.ndarray:
    """Each (R, k) boolean row as a set number."""
    return sets @ (1 << np.arange(_FAMILY.k))


@functools.cache
def _transitions() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_look_step`` on every pair of an active set a and a symbol s of rule counts.

    Row a * _SYMBOLS + s holds the next active set, times _SYMBOLS so that
    a symbol adds onto it; the set rejected at the look; and how many
    endpoints freeze at it.  A stage's decision reads only the active set
    and the counts, so the table serves every ``(rule, alpha)``.  Built
    once per process; its arrays are read-only.
    """
    contains = np.asarray(_FAMILY.contains_complement, dtype=bool)
    # Without containment a rejection accepts nothing by implication and
    # never stops a run early, so the active set alone is a replicate's state.
    assert not contains.any()
    index = np.arange(2**_FAMILY.k * _SYMBOLS)
    active = (index[:, None] // _SYMBOLS >> np.arange(_FAMILY.k) & 1).astype(bool)
    # Nothing rejected before: the step's rejections are those of this look.
    nothing = np.zeros_like(active)
    rows, rej_now, frozen_now, remaining = _look_step(
        _digits(index % _SYMBOLS), active, nothing, active.sum(axis=1), contains, False
    )
    after, rejected, frozen = index - index % _SYMBOLS, np.zeros_like(index), np.zeros_like(index)
    after[rows] = _bits(remaining) * _SYMBOLS
    rejected[rows] = _bits(rej_now)
    frozen[rows] = frozen_now.sum(axis=1)
    for column in (after, rejected, frozen):
        column.flags.writeable = False
    return after, rejected, frozen


def _walk(
    table: tuple[np.ndarray, np.ndarray, np.ndarray], symbols: np.ndarray, analyses: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Walk replicates through ``_transitions``: their rejected sets and total measurements.

    symbols[j, r] is replicate r's symbol at look j.  Every replicate
    starts with all k endpoints active; the decisions and totals are
    those of ``_decide_counts`` on the counts the symbols write.
    """
    after, rejected_now, frozen = table
    last = analyses[-1]
    state = np.full(symbols.shape[1], (2**_FAMILY.k - 1) * _SYMBOLS)
    rejected = np.zeros(symbols.shape[1], dtype=np.intp)
    # Every endpoint runs to the last look unless it freezes at an earlier
    # look n_j, which saves it last - n_j measurements.
    total = np.full(symbols.shape[1], _FAMILY.k * last, dtype=np.int64)
    for n_j, look in zip(analyses[:-1], symbols[:-1]):
        row = state + look
        rejected |= rejected_now[row]
        total -= frozen[row] * (last - n_j)
        state = after[row]
    # At the last look nothing freezes early and no state follows.
    rejected |= rejected_now[state + symbols[-1]]
    return rejected, total


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
    block is drawn once, each endpoint key (``trial.endpoint_keys``) is
    formed once per block and counted once per (procedure, alpha), and
    each (procedure, alpha) decides the block for all its groups in one
    walk, or in slices of at most ``_WALK_WIDTH`` replicate columns.  Each
    distinct decision tallies its rejected sets and measurements over the
    blocks, and the summaries are built once, together.

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
        rep_range.  An empty range gives each cell's merge identity.
    """
    schedule, master_seed, replicates = _shared_draws(specs)
    lo, hi = rep_range if rep_range is not None else (0, replicates)
    lo = check_integer(lo, "rep_range start", 0, replicates + 1)
    hi = check_integer(hi, "rep_range end", lo, replicates + 1)

    k, sup = _FAMILY.k, schedule.sup
    # A cell is decided by its procedure, its alpha and its group, the
    # three endpoint keys.  Each (procedure, alpha) counts the keys of its
    # groups against one array of rows per endpoint, a value's count being
    # how many rows it clears, and walks its looks with its groups side by side.
    groups = [endpoint_keys(spec.params, spec.continuity_correction) for spec in specs]
    members = {}
    for spec, group in zip(specs, groups):
        members.setdefault((spec.procedure, spec.alpha), {}).setdefault(group)
    walks = []
    for (procedure, alpha), walk_groups in members.items():
        if procedure == "H":
            levels = stage_levels(HOLM, alpha, k)
            gaussian = [_normal_cutoff(level) for level in levels]
            looks, rows = (sup,), [gaussian, gaussian, _binomial_cutoffs(sup, levels)]
        elif critical is None:
            raise ValueError(f"procedure {procedure!r} needs a calibrated boundary (critical)")
        else:
            rule = _VARIANTS[procedure]
            rows = [_stage_bounds(_FAMILY, schedule, critical, alpha, rule)] * k
            looks = schedule.analyses
        keys = list(dict.fromkeys(key for group in walk_groups for key in group))
        columns = np.array([[keys.index(key) for key in group] for group in walk_groups])
        rows = np.array(rows).reshape(k, k, len(looks), 1)  # endpoint, row, look
        walks.append((procedure == "H", looks, rows, keys, columns))
    # Each (procedure, alpha, group) decision's row of the tallies, in walk order.
    place = {d: row for row, d in enumerate((w, g) for w in members for g in members[w])}
    table = _transitions()
    formed = dict.fromkeys(key for group in groups for key in group)
    # Per row, across blocks: how many replicates rejected each set, then
    # the sum and the sum of squares of their total measurements, as ints.
    tallies = np.zeros((len(place), 2**k + 2), dtype=object)
    # Blocks end on multiples of KEY_BLOCK, so each draws one key block.
    cuts = sorted({lo, *range(lo - lo % KEY_BLOCK + KEY_BLOCK, hi, KEY_BLOCK), hi})
    for start, stop in zip(cuts, cuts[1:]):
        z, u = draw_replicates(master_seed, (start, stop), len(schedule))
        paths = {key: endpoint_from_draws(key, schedule, z, u) for key in formed}
        block = []
        for final, looks, rows, keys, columns in walks:
            # digits[j, q]: key q's count at look j, as digit key[0] of a symbol.
            digits = np.empty((len(looks), len(keys), stop - start), dtype=np.int16)
            for q, key in enumerate(keys):
                sums, values = paths[key]
                if final:  # H's one look: the final statistic or count
                    values = (sums if key[0] == 2 else values)[-1:]
                count = (values >= rows[key[0]]).sum(axis=0, dtype=np.int16)
                digits[:, q] = count * _BASE ** key[0]
            # A walk holds at most _WALK_WIDTH replicates of its groups.
            width = max(1, _WALK_WIDTH // (stop - start))
            for part in np.split(columns, range(width, len(columns), width)):
                symbols = digits[:, part[:, 0]]
                for i in range(1, k):
                    symbols += digits[:, part[:, i]]
                rejected, total = _walk(table, symbols.reshape(len(looks), -1), looks)
                # One bincount: group g's sets are counted from g << k on.
                rejected |= np.arange(len(part)).repeat(stop - start) << k
                sets = np.bincount(rejected, minlength=len(part) << k).reshape(len(part), -1)
                total = total.reshape(len(part), -1)
                block.append(np.column_stack([sets, total.sum(1), (total * total).sum(1)]))
        tallies += np.concatenate(block).astype(object)
    tallies = tallies[[place[(s.procedure, s.alpha), group] for s, group in zip(specs, groups)]]
    # Endpoint i was rejected in the sets with bit i set, and a true
    # endpoint in the sets that meet the cell's true set.
    sets, every_set = tallies[:, : 2**k], np.arange(2**k)
    rejects = sets @ (every_set[:, None] >> np.arange(k) & 1)
    truth = _bits(np.array([spec.params.truth for spec in specs]))[:, None]
    fwe = (sets * (every_set & truth > 0)).sum(axis=1)
    ranges = ((lo, hi),) if hi > lo else ()
    counts = zip(tallies[:, -2], tallies[:, -1], map(tuple, rejects.tolist()), fwe.tolist())
    return [SimulationSummary(spec, ranges, hi - lo, *count) for spec, count in zip(specs, counts)]


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
        # Imported on use: a serial run, and `import stepdown`, need no pool.
        import multiprocessing

        with multiprocessing.Pool(processes=min(len(ranges), os.cpu_count() or 1)) as pool:
            parts = pool.map(job, ranges)
    return [functools.reduce(merge, pieces) for pieces in zip(*parts)]
