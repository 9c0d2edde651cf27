"""Sequential classification of a normal mean into ordered intervals.

Thresholds theta_1 < ... < theta_{k-1} cut the line into k intervals.
Observing i.i.d. unit-variance Gaussian data, the procedure maintains a
shrinking interval of plausible means and stops the first time that
interval fits inside one of the targets, each widened by delta on its
finite ends: (-inf, theta_1 + delta), (theta_i - delta, theta_{i+1} +
delta), (theta_{k-1} - delta, inf).

Two implementations are provided.  They agree path for path, except at
a rounding tie of a one-sided test, where each kernel follows its own
documented rounding order:

* the direct rule tracks the running maximum u_n of S_m/m - delta/2 - A/m
  and the running minimum v_n of S_m/m + delta/2 + A/m and tests
  containment of (u_n, v_n);
* the step-down form runs 2(k-1) one-sided sequential probability ratio
  tests, rejecting the downward hypothesis at threshold theta_t once
  S_n - n(theta_t - delta/2) >= A and the upward one once
  S_n - n(theta_t + delta/2) <= -A, and stops when the rejection pattern
  singles out an interval.

The two stopping conditions coincide in exact arithmetic because dividing
the SPRT margin by n and rearranging gives the u_n (respectively v_n)
comparison.  When the first qualifying time admits more than one
interval, or the horizon is exhausted, the classification falls back to
the interval containing S_n/n.

Each route's rule is one kernel over a block whose rows are paths and
whose columns are the paths' next observations.  It writes the outcome
of every one-sided test at every observation into a flag array it is
handed, and both routes carry the same state per row: the running sum,
and whether each test has rejected yet.  Blocks end at observations 16,
32, 64, 128 and CHUNK = 256, then every CHUNK, so a path that stops
early draws little.  ``classify_paths`` deals its simulated paths in
groups of ``GROUP_OBSERVATIONS // CHUNK``, each group's block from one
keyed Philox draw, and decides a wave of ``WAVE`` groups side by side:
at each block the wave's live paths are cut, at group boundaries, into
runs that fill the pass buffers, and each run is one kernel pass.  A
path is dropped as soon as it stops.  ``run_paulson_direct`` and
``paulson_via_stepdown`` are its one-path views on a 1-D array: each
reads at most ``min(horizon, len(observations))`` observations and
falls back to S_n/n there.  Each call makes its block, work and flag
buffers once, sized for one group's widest block, and every pass
draws, sums and tests inside views of them, so a pass allocates nothing
of the block's size.  Either way S_n is the paper's sequential sum
S_{n-1} + x_n, one observation at a time, and every step acts on each
row alone, so a path gets the same floats, and the same decision,
alone, in its group or beside other groups.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .core import check_integer
from .trial import check_seed, philox

__all__ = [
    "CHUNK",
    "GROUP_OBSERVATIONS",
    "PaulsonConfig",
    "PaulsonResult",
    "classify_by_mean",
    "classify_paths",
    "simulate_observations",
    "run_paulson_direct",
    "paulson_via_stepdown",
]

CHUNK = 256  # observations processed per vectorized block
# Observations in a classify_paths pass buffer, and in a group's widest
# block: 128 paths of one CHUNK.
GROUP_OBSERVATIONS = 2**15
# Groups classify_paths decides side by side, as one wave.  Each wave
# holds its paths' running state, so this bounds a call's memory.
WAVE = 8


@dataclass(frozen=True)
class PaulsonConfig:
    """Thresholds, slack, critical value, and a horizon safeguard.

    ``delta`` widens each target interval; ``critical_value`` scales the
    sampling cost (larger values demand more evidence before stopping).
    Every path stops by observation ceil(2A/delta), where (u_n, v_n) is
    at most 2 delta wide and fits some widened target; where 2A/delta is
    an integer up to rounding, rounding can take one observation more.
    So ``horizon`` changes a result only when it is set below that.
    """

    thresholds: tuple[float, ...]
    delta: float
    critical_value: float
    horizon: int = 100_000

    def __post_init__(self) -> None:
        thresholds = tuple(float(t) for t in self.thresholds)
        if not thresholds:
            raise ValueError("at least one threshold is required")
        if not all(math.isfinite(t) for t in thresholds):
            raise ValueError(f"thresholds must be finite, got {thresholds}")
        if any(b <= a for a, b in zip(thresholds, thresholds[1:])):
            raise ValueError("thresholds must be strictly increasing")
        object.__setattr__(self, "thresholds", thresholds)
        object.__setattr__(self, "delta", float(self.delta))
        object.__setattr__(self, "critical_value", float(self.critical_value))
        # Written so that NaN fails too.
        if not 0.0 < self.delta < math.inf:
            raise ValueError(f"delta must be positive and finite, got {self.delta}")
        if not 0.0 < self.critical_value < math.inf:
            raise ValueError(
                f"critical_value must be positive and finite, got {self.critical_value}"
            )
        gaps = [b - a for a, b in zip(thresholds, thresholds[1:])]
        if gaps and self.delta >= min(gaps):
            raise ValueError(
                f"delta {self.delta} must be smaller than the least threshold gap {min(gaps)}"
            )
        check_integer(self.horizon, "horizon", 1)

    @property
    def k(self) -> int:
        """Number of classification intervals."""
        return len(self.thresholds) + 1


@dataclass(frozen=True)
class PaulsonResult:
    """Classification outcome: interval index, stopping time, fallback flag.

    ``decision`` indexes the intervals left to right, 0 meaning below the
    first threshold.  ``fallback_used`` marks decisions taken by the
    S_n/n rule, either because the horizon was exhausted or because the
    first qualifying time admitted more than one interval.
    """

    decision: int
    stop_n: int
    fallback_used: bool


def classify_by_mean(mean: float | np.ndarray, thresholds: Sequence[float]) -> int | np.ndarray:
    """Index of the interval containing ``mean`` (ties go downward).

    Elementwise for an array of means.
    """
    return np.searchsorted(np.asarray(thresholds, dtype=float), mean, side="left")


def simulate_observations(mean: float, horizon: int, generator: np.random.Generator) -> np.ndarray:
    """The first ``horizon`` unit-variance Gaussian observations of a path, one array."""
    return mean + generator.standard_normal(check_integer(horizon, "horizon", 1))


def _fit_times(first: np.ndarray) -> np.ndarray:
    # first[0, t] and first[1, t] (shape (k - 1, paths)): the block
    # observation at which the downward and the upward test at threshold
    # t first rejected, -1 for before the block.  Interval i fits once
    # the downward tests below it and the upward tests above it have all
    # rejected; returns that observation per interval, shape (k, paths).
    # Given whether each test is still unrejected instead, it returns
    # whether each interval is still blocked.
    low = np.maximum.accumulate(first[0], axis=0)
    up = np.maximum.accumulate(first[1][::-1], axis=0)[::-1]
    return np.concatenate([up[:1], np.maximum(low[:-1], up[1:]), low[-1:]])


# Each route is a kernel.  kernel(s, m, config, tests, work) reads one
# block of paths, where s[r, j] and m[j] are path r's running sum and
# observation count at the block's j-th observation, and writes the
# downward and the upward outcome of every threshold's test at each of
# them into tests, shape (2, k - 1, paths, observations); work holds
# three float arrays of s's shape for its intermediates.  A kernel copies
# each per-observation term into a work array of s's shape before
# combining it with s: broadcast from one row, numpy would instead copy
# it into a buffer of its own, up to 64 kB a call.  A test has rejected
# by observation n once its outcome held at some m <= n, so both routes
# carry only a flag per test: u_n >= c exactly when S_m/m - delta/2 - A/m
# >= c for some m <= n, and v_n <= c likewise.


def _direct_kernel(
    s: np.ndarray, m: np.ndarray, config: PaulsonConfig, tests: np.ndarray, work: np.ndarray
) -> None:
    u, v, spread = work
    half = config.delta / 2.0
    # u = (S_m/m - delta/2) - A/m and v = (S_m/m + delta/2) + A/m, rounded
    # in this order: a decision at a rounding tie depends on it.
    np.copyto(spread, m)
    np.divide(s, spread, out=u)
    np.add(u, half, out=v)
    np.copyto(spread, config.critical_value / m)
    v += spread
    u -= half
    u -= spread
    # Held at some m <= n: u_n >= theta_t - delta, and v_n <= theta_t + delta.
    for t, theta in enumerate(config.thresholds):
        np.greater_equal(u, theta - config.delta, out=tests[0, t])
        np.less_equal(v, theta + config.delta, out=tests[1, t])


def _stepdown_kernel(
    s: np.ndarray, m: np.ndarray, config: PaulsonConfig, tests: np.ndarray, work: np.ndarray
) -> None:
    stat, spread = work[:2]
    half = config.delta / 2.0
    a = config.critical_value
    for t, theta in enumerate(config.thresholds):
        np.copyto(spread, m * (theta - half))
        np.subtract(s, spread, out=stat)
        np.greater_equal(stat, a, out=tests[0, t])
        np.copyto(spread, m * (theta + half))
        np.subtract(s, spread, out=stat)
        np.less_equal(stat, -a, out=tests[1, t])


_ROUTES = {"direct": _direct_kernel, "stepdown": _stepdown_kernel}


def _buffers(paths: int, config: PaulsonConfig) -> tuple[np.ndarray, np.ndarray]:
    """Pass buffers for groups of up to ``paths`` paths: four float
    rows (the block, then the kernel's three work arrays) and the test
    outcomes, each flat so that a pass views its leading entries as one
    C-contiguous array of the pass's shape."""
    cells = paths * min(CHUNK, config.horizon)
    return np.empty((4, cells)), np.empty(2 * len(config.thresholds) * cells, dtype=bool)


def _runs(live: np.ndarray, group: int, paths: int, rows: int) -> list[list[tuple[int, int, int]]]:
    # Cuts a wave's live paths (ascending indices below ``paths``) at
    # group boundaries into runs of at most ``rows`` of them: each run
    # takes groups in index order until the next would not fit.  A run
    # lists (first path, first row, end row) for each of its groups that
    # has live paths, rows counted in ``live``.
    ends = np.searchsorted(live, range(group, paths + group, group)).tolist()
    runs, begin = [], 0
    for start, end in zip(range(0, paths, group), ends):
        if end > begin:
            if not runs or end - runs[-1][0][1] > rows:
                runs.append([])
            runs[-1].append((start, begin, end))
            begin = end
    return runs


def _decide(
    method: str,
    group: int,
    next_block: Callable[[int, int, np.ndarray], None],
    config: PaulsonConfig,
    buffers: tuple[np.ndarray, np.ndarray],
    results: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> None:
    """Decide a wave of paths by one route, its groups of ``group``
    paths side by side, one block of observations per count, dropping
    each path once it stops: where some interval first fits, or at the
    horizon, where it falls back to S_n/n.

    A block is ``min(max(count, 16), CHUNK, horizon - count)``
    observations: 16, 16, 32, 64 and 128 fill the first CHUNK, whole
    CHUNKs follow.  At each count the live paths are cut into runs of
    whole groups that fill ``buffers`` (``_runs``; the buffers come from
    ``_buffers`` for at least one group, and the caller may share them
    between waves), and each run is one pass.  In it, ``next_block(first,
    count, out)`` writes the next observations of the live paths of the
    group whose first path is ``first``, each ``count`` observations in,
    into ``out``, that group's rows of the block (shape ``(live, size)``),
    row i for its i-th live path, and fills every column.  One cumsum,
    one kernel call and one round of stop bookkeeping then cover the
    run's rows.  Row r's running sum S_n is ``total[r]`` plus the block's
    observations added one at a time, the paper's sequential sum, and
    every step acts on each row alone, so a path's floats do not depend
    on the rows beside it.  ``results`` are the wave's decision,
    stopping time and fallback arrays, written in place.
    """
    kernel = _ROUTES[method]
    floats, flags = buffers
    decision, stop_n, fallback = results
    paths = decision.size
    live = np.arange(paths)
    total = np.zeros(paths)
    rejected = np.zeros((2, len(config.thresholds), paths), dtype=bool)
    count = 0
    while live.size and count < config.horizon:
        size = min(max(count, 16), CHUNK, config.horizon - count)
        m = count + np.arange(1, size + 1, dtype=float)
        keep = np.empty(live.size, dtype=bool)
        for run in _runs(live, group, paths, floats.shape[1] // size):
            begin, end = run[0][1], run[-1][2]
            s = floats[0, : (end - begin) * size].reshape(end - begin, size)
            for start, lo, hi in run:
                next_block(start, count, s[lo - begin : hi - begin])
            # The cumsum goes on from the running sum, in place.
            s[:, 0] += total[begin:end]
            np.cumsum(s, axis=1, out=s)
            done = rejected[:, :, begin:end]
            tests = flags[: done.size * size].reshape(done.shape + (size,))
            kernel(s, m, config, tests, floats[1:, : s.size].reshape(3, end - begin, size))
            # A test has rejected by the block's end if it had before it
            # or does in it, and a path stops in the block exactly when
            # some interval fits at its end.
            hit = tests.any(axis=3)
            hit |= done
            _fit_times(~hit).all(axis=0, out=keep[begin:end])
            stops = np.flatnonzero(~keep[begin:end])
            # Only a stopping row needs where each test first rejected:
            # -1 if before the block, size if not yet.  It stops at its
            # first observation where some interval fits, and falls back
            # to S_n/n if several fit there.  The rows are taken a group
            # at a time, so these arrays stay the size of one group's.
            for part in range(0, stops.size, group):
                rows = stops[part : part + group]
                found = np.where(hit.take(rows, 2), tests.take(rows, 2).argmax(axis=3), size)
                fits = _fit_times(np.where(done.take(rows, 2), -1, found))
                t = fits.min(axis=0)
                chosen = fits == t
                tie = chosen.sum(axis=0) != 1
                by_mean = classify_by_mean(s[rows, t] / m[t], config.thresholds)
                index = live[begin:end][rows]
                decision[index] = np.where(tie, by_mean, chosen.argmax(axis=0))
                stop_n[index] = count + 1 + t
                fallback[index] = tie
            done[...] = hit
            total[begin:end] = s[:, -1]
        live, rejected, total = live[keep], rejected.compress(keep, 2), total[keep]
        count += size
    decision[live] = classify_by_mean(total / count, config.thresholds)
    stop_n[live] = count
    fallback[live] = True


def _one_path(method: str, observations: np.ndarray, config: PaulsonConfig) -> PaulsonResult:
    if not isinstance(observations, np.ndarray) or observations.ndim != 1:
        got = getattr(observations, "shape", type(observations).__name__)
        raise ValueError(f"observations must be a 1-D array, got {got}")
    path = observations[: config.horizon].astype(float, copy=False)
    if not path.size:
        raise ValueError("no observations supplied")
    if not np.isfinite(path).all():
        raise ValueError("observations must be finite")
    # A short path's horizon is its length: it falls back to S_n/n there.
    config = replace(config, horizon=path.size)

    # Copies the slice, so the caller's array is never written.
    def next_block(_first: int, count: int, out: np.ndarray) -> None:
        out[0] = path[count : count + out.shape[1]]

    results = (np.empty(1, dtype=np.int64), np.empty(1, dtype=np.int64), np.empty(1, dtype=bool))
    _decide(method, 1, next_block, config, _buffers(1, config), results)
    decision, stop_n, fallback = results
    return PaulsonResult(int(decision[0]), int(stop_n[0]), bool(fallback[0]))


def run_paulson_direct(observations: np.ndarray, config: PaulsonConfig) -> PaulsonResult:
    """Classify a mean by the shrinking-interval rule.

    Maintains u_n = max over m <= n of (S_m/m - delta/2 - A/m) and
    v_n = min over m <= n of (S_m/m + delta/2 + A/m) and stops the first
    time (u_n, v_n) fits inside a widened target interval.  If several
    targets fit at that moment, or the horizon runs out, the decision
    falls back to the interval containing S_n/n.  This is the one-path
    view of the kernel ``classify_paths`` runs over many paths at once.

    Args:
        observations: The path, a 1-D array.  At most
            ``min(horizon, len(observations))`` observations are read,
            and a path still undecided there falls back to S_n/n.
        config: Thresholds, delta, critical value, horizon.

    Raises:
        ValueError: ``observations`` is not a 1-D array, is empty ("no
            observations supplied"), or has a non-finite value among
            those read.

    Returns:
        The classification, its stopping time, and the fallback flag.
    """
    return _one_path("direct", observations, config)


def paulson_via_stepdown(observations: np.ndarray, config: PaulsonConfig) -> PaulsonResult:
    """Classify a mean by step-down testing of one-sided hypothesis pairs.

    For each threshold theta_t, a downward test rejects once
    S_n - n(theta_t - delta/2) >= A and an upward test rejects once
    S_n - n(theta_t + delta/2) <= -A; all 2(k-1) tests share the critical
    value A and are checked after every observation.  Sampling stops the
    first time the rejection pattern singles out at least one interval:
    every downward test below it and every upward test above it
    rejected.  A pattern admitting several intervals at that moment, or
    an exhausted horizon, falls back to the S_n/n classification.  This
    is the one-path view of the kernel ``classify_paths`` runs over many
    paths at once.

    Args:
        observations: The path, a 1-D array, as for run_paulson_direct.
        config: Thresholds, delta, critical value, horizon.

    Returns:
        The classification, its stopping time, and the fallback flag;
        run_paulson_direct's on the same observations, except at a
        rounding tie of a one-sided test, where each kernel follows its
        own rounding order.
    """
    return _one_path("stepdown", observations, config)


def _stream_blocks(theta: float, seed: int, first: int) -> Callable[[int, int, np.ndarray], None]:
    # Deals the wave whose first path is ``first``: the group whose first
    # path is first + start draws its block at observation count c from
    # the Philox stream keyed [seed, first + start] at counter [0, c, 0,
    # 0]; row i is the next block of the group's i-th live path.  One bit
    # generator serves every group and count: restoring its fresh state
    # with the group's key word and the count's counter word also
    # discards the words the last draw left in its four-word buffer.
    bits = philox(seed, first)
    draw = np.random.Generator(bits).standard_normal
    state = bits.state

    def next_block(start: int, count: int, out: np.ndarray) -> None:
        state["state"]["key"][1] = first + start
        state["state"]["counter"][1] = count
        bits.state = state
        draw(out=out)
        out += theta

    return next_block


def classify_paths(
    theta: float, config: PaulsonConfig, seed: int, reps: int, method: str = "direct"
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Classify ``reps`` simulated paths with true mean ``theta``.

    Paths are decided by the route ``method`` ("direct" or "stepdown"),
    one block of each live path's next observations at a time (16 to
    CHUNK of them, as ``_decide`` cuts them).  The paths are dealt in
    groups of ``GROUP_OBSERVATIONS // CHUNK``: the group whose first
    path is ``first`` deals the block that starts at observation count c
    by drawing ``standard_normal((live, size))`` from the Philox stream
    keyed ``[seed, first]`` at counter ``[0, c, 0, 0]``, adding
    ``theta``, and handing row i to its i-th live path by index.  So a
    path's observations depend only on the seed, its index, ``theta``,
    the rule and the lower-indexed paths of its group, and the rows for
    ``reps`` paths begin with the rows for fewer.  A wave of ``WAVE``
    groups is decided side by side: at each count its groups' draws fill
    one block, in runs of whole groups that fit the call's buffers (one
    group's widest block), and one cumsum and one kernel call cover each
    run.  Memory grows with one wave and the results, not with ``reps``.
    Each path's S_n is summed one observation at a time, as the paper
    writes it, so row r is what ``run_paulson_direct`` or
    ``paulson_via_stepdown`` returns on path r's observations.

    Returns:
        ``(decision, stop_n, fallback_used)``, one entry per path.
    """
    if method not in _ROUTES:
        raise ValueError(f"method must be one of {sorted(_ROUTES)}, got {method!r}")
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    check_seed(seed)
    check_integer(reps, "reps", 1)
    group = GROUP_OBSERVATIONS // CHUNK
    buffers = _buffers(min(group, reps), config)
    # Each wave's rows go straight into the results, so the buffers, one
    # wave's running state and one copy of the results are all a call
    # holds.
    results = (
        np.empty(reps, dtype=np.int64), np.empty(reps, dtype=np.int64), np.empty(reps, dtype=bool)
    )
    for first in range(0, reps, WAVE * group):
        rows = tuple(column[first : first + WAVE * group] for column in results)
        _decide(method, group, _stream_blocks(theta, seed, first), config, buffers, rows)
    return results
