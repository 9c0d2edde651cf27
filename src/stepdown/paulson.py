"""Sequential classification of a normal mean into ordered intervals.

Thresholds theta_1 < ... < theta_{k-1} cut the line into k intervals.
Observing i.i.d. unit-variance Gaussian data, the procedure maintains a
shrinking interval of plausible means and stops the first time that
interval fits inside one of the targets, each widened by delta on its
finite ends: (-inf, theta_1 + delta), (theta_i - delta, theta_{i+1} +
delta), (theta_{k-1} - delta, inf).

Two implementations are provided and must agree path for path:

* the direct rule tracks the running maximum u_n of S_m/m - delta/2 - A/m
  and the running minimum v_n of S_m/m + delta/2 + A/m and tests
  containment of (u_n, v_n);
* the step-down form runs 2(k-1) one-sided sequential probability ratio
  tests, rejecting the downward hypothesis at threshold theta_t once
  S_n - n(theta_t - delta/2) >= A and the upward one once
  S_n - n(theta_t + delta/2) <= -A, and stops when the rejection pattern
  singles out an interval.

The two stopping conditions coincide because dividing the SPRT margin by
n and rearranging gives exactly the u_n (respectively v_n) comparison.
When the first qualifying time admits more than one interval, or the
horizon is exhausted, the classification falls back to the interval
containing S_n/n.

Each route's rule is one kernel over a block whose rows are paths and
whose columns are the paths' next CHUNK observations, with the route's
state carried per row.  ``classify_paths`` runs it on a group of
``GROUP_OBSERVATIONS // CHUNK`` simulated paths per pass, drawing path
r's ``RngStream`` in CHUNK blocks from one re-keyed Philox bit generator
and dropping each path as soon as it stops; ``run_paulson_direct`` and
``paulson_via_stepdown`` are its one-path views.  The running sums are
``total + cumsum(block)`` per CHUNK block on either side, so a path gets
the same floats, and the same decision, alone or in a group.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

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
# Observations classify_paths decides per pass: 128 paths of one CHUNK.
GROUP_OBSERVATIONS = 2**15


@dataclass(frozen=True)
class PaulsonConfig:
    """Thresholds, slack, critical value, and a horizon safeguard.

    ``delta`` widens each target interval; ``critical_value`` scales the
    sampling cost (larger values demand more evidence before stopping).
    The horizon caps sampling: the stopping time is finite with
    probability one but unbounded.
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
        if not isinstance(self.horizon, (int, np.integer)) or self.horizon < 1:
            raise ValueError(f"horizon must be a positive integer, got {self.horizon!r}")

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


def simulate_observations(
    mean: float, horizon: int, generator: np.random.Generator, chunk: int = CHUNK
) -> Iterator[np.ndarray]:
    """Yield unit-variance Gaussian observations in blocks up to a horizon."""
    remaining = int(horizon)
    while remaining > 0:
        size = min(chunk, remaining)
        yield mean + generator.standard_normal(size)
        remaining -= size


def _iter_chunks(observations: np.ndarray | Iterable[np.ndarray]) -> Iterator[np.ndarray]:
    # Blocks of at most CHUNK observations from one array or from an
    # iterable of arrays; an array is never merged with its neighbours.
    if isinstance(observations, np.ndarray):
        observations = (observations,)
    for item in observations:
        arr = np.asarray(item, dtype=float).ravel()
        for start in range(0, arr.size, CHUNK):
            yield arr[start : start + CHUNK]


def _qualification(low: np.ndarray, up: np.ndarray) -> np.ndarray:
    # low[t] and up[t] (shape (k - 1, paths, observations)): the
    # downward and the upward test at threshold t have rejected by that
    # observation.  Interval i needs the downward tests below it and the
    # upward tests above it; returns qual[i], shape (k, paths,
    # observations).  Both inputs are overwritten with their running
    # conjunctions.
    k1 = low.shape[0]
    for t in range(1, k1):
        low[t] &= low[t - 1]
    for t in range(k1 - 2, -1, -1):
        up[t] &= up[t + 1]
    qual = np.empty((k1 + 1,) + low.shape[1:], dtype=bool)
    qual[0] = up[0]
    np.logical_and(low[:-1], up[1:], out=qual[1:k1])
    qual[k1] = low[k1 - 1]
    return qual


# Each route is a start and a kernel.  start(paths, k - 1) is the state a
# path carries before its first observation, paths on the last axis.
# kernel(s, m, carry, config) reads one block for a group of paths, where
# s[r, j] and m[j] are path r's running sum and observation count at the
# block's j-th observation and carry is the state before the block, and
# returns the per-threshold test outcomes that _qualification reads plus
# the state after the block.


def _direct_start(paths: int, k1: int) -> np.ndarray:
    # The running maximum u_n and minimum v_n before any observation.
    return np.repeat([[-math.inf], [math.inf]], paths, axis=1)


def _direct_kernel(
    s: np.ndarray, m: np.ndarray, carry: np.ndarray, config: PaulsonConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    th = np.asarray(config.thresholds, dtype=float)
    half = config.delta / 2.0
    a = config.critical_value
    u = np.maximum.accumulate(s / m - half - a / m, axis=1)
    np.maximum(u, carry[0][:, None], out=u)
    v = np.minimum.accumulate(s / m + half + a / m, axis=1)
    np.minimum(v, carry[1][:, None], out=v)
    low = u >= (th - config.delta)[:, None, None]  # u_n >= theta_t - delta
    up = v <= (th + config.delta)[:, None, None]  # v_n <= theta_t + delta
    return low, up, np.stack([u[:, -1], v[:, -1]])


def _stepdown_start(paths: int, k1: int) -> np.ndarray:
    # No downward (row 0) or upward (row 1) test has rejected yet.
    return np.zeros((2, k1, paths), dtype=bool)


def _stepdown_kernel(
    s: np.ndarray, m: np.ndarray, carry: np.ndarray, config: PaulsonConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    th = np.asarray(config.thresholds, dtype=float)
    half = config.delta / 2.0
    a = config.critical_value
    low = np.logical_or.accumulate(s - m * (th - half)[:, None, None] >= a, axis=2)
    low |= carry[0][:, :, None]
    up = np.logical_or.accumulate(s - m * (th + half)[:, None, None] <= -a, axis=2)
    up |= carry[1][:, :, None]
    return low, up, np.stack([low[:, :, -1], up[:, :, -1]])


_ROUTES = {
    "direct": (_direct_start, _direct_kernel),
    "stepdown": (_stepdown_start, _stepdown_kernel),
}

def _decide(
    method: str,
    paths: int,
    next_block: Callable[[np.ndarray, int], np.ndarray | None],
    config: PaulsonConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decide a group of paths by one route, one block of observations
    per pass, dropping each path once it stops.

    ``next_block(live, count)`` returns the next observations of the
    live paths, row i for path live[i], each ``count`` observations in,
    or None once none are left.  Row r's running sum is ``total[r] +
    cumsum(block[r])`` per block, so every float equals what one path
    computes on its own.  Returns the per-path decision, stopping time
    and fallback flag.
    """
    start, kernel = _ROUTES[method]
    decision = np.empty(paths, dtype=np.int64)
    stop_n = np.empty(paths, dtype=np.int64)
    fallback = np.empty(paths, dtype=bool)
    live = np.arange(paths)
    total = np.zeros(paths)
    carry = start(paths, len(config.thresholds))
    count = 0
    while live.size:
        block = next_block(live, count)
        if block is None:
            if count == 0:
                raise ValueError("no observations supplied")
            decision[live] = classify_by_mean(total / count, config.thresholds)
            stop_n[live] = count
            fallback[live] = True
            break
        s = total[:, None] + np.cumsum(block, axis=1)
        m = count + np.arange(1, block.shape[1] + 1, dtype=float)
        low, up, carry = kernel(s, m, carry, config)
        qual = _qualification(low, up)
        hits = qual.any(axis=0)
        stopped = hits.any(axis=1)
        if stopped.any():
            # A path stops at its first qualifying observation; a pattern
            # that admits several intervals falls back to S_n/n.
            rows = np.flatnonzero(stopped)
            t = hits[rows].argmax(axis=1)
            chosen = qual[:, rows, t]
            tie = chosen.sum(axis=0) != 1
            by_mean = classify_by_mean(s[rows, t] / m[t], config.thresholds)
            decision[live[rows]] = np.where(tie, by_mean, chosen.argmax(axis=0))
            stop_n[live[rows]] = count + 1 + t
            fallback[live[rows]] = tie
        keep = ~stopped
        live, total, carry = live[keep], s[keep, -1], carry[..., keep]
        count += block.shape[1]
    return decision, stop_n, fallback


def _one_path(
    method: str, observations: np.ndarray | Iterable[np.ndarray], config: PaulsonConfig
) -> PaulsonResult:
    chunks = _iter_chunks(observations)

    def next_block(live: np.ndarray, count: int) -> np.ndarray | None:
        if count >= config.horizon:
            return None
        for chunk in chunks:
            chunk = chunk[: config.horizon - count]
            if chunk.size:
                return chunk[None, :]
        return None

    decision, stop_n, fallback = _decide(method, 1, next_block, config)
    return PaulsonResult(int(decision[0]), int(stop_n[0]), bool(fallback[0]))


def run_paulson_direct(
    observations: np.ndarray | Iterable[np.ndarray], config: PaulsonConfig
) -> PaulsonResult:
    """Classify a mean by the shrinking-interval rule.

    Maintains u_n = max over m <= n of (S_m/m - delta/2 - A/m) and
    v_n = min over m <= n of (S_m/m + delta/2 + A/m) and stops the first
    time (u_n, v_n) fits inside a widened target interval.  If several
    targets fit at that moment, or the horizon runs out, the decision
    falls back to the interval containing S_n/n.  This is the one-path
    view of the kernel ``classify_paths`` runs over a group of paths.

    Args:
        observations: Array of observations, or an iterable yielding
            blocks of them; only the first ``horizon`` observations are
            consumed.
        config: Thresholds, delta, critical value, horizon.

    Returns:
        The classification, its stopping time, and the fallback flag.
    """
    return _one_path("direct", observations, config)


def paulson_via_stepdown(
    observations: np.ndarray | Iterable[np.ndarray], config: PaulsonConfig
) -> PaulsonResult:
    """Classify a mean by step-down testing of one-sided hypothesis pairs.

    For each threshold theta_t, a downward test rejects once
    S_n - n(theta_t - delta/2) >= A and an upward test rejects once
    S_n - n(theta_t + delta/2) <= -A; all 2(k-1) tests share the critical
    value A and are checked after every observation.  Sampling stops the
    first time the rejection pattern singles out at least one interval:
    every downward test below it and every upward test above it
    rejected.  A pattern admitting several intervals at that moment, or
    an exhausted horizon, falls back to the S_n/n classification.  This
    is the one-path view of the kernel ``classify_paths`` runs over a
    group of paths.

    Args:
        observations: Same forms as run_paulson_direct.
        config: Thresholds, delta, critical value, horizon.

    Returns:
        The classification, its stopping time, and the fallback flag;
        identical to run_paulson_direct on the same observations.
    """
    return _one_path("stepdown", observations, config)


def _stream_blocks(
    theta: float, horizon: int, seed: int, first: int
) -> Callable[[np.ndarray, int], np.ndarray | None]:
    # Path i of the group reads RngStream(seed, first + i) in CHUNK
    # blocks: one Philox bit generator, re-keyed with counter 0 for a
    # path's first block and restored to the state it left for the next.
    bit_gen = np.random.Philox(key=[seed, first])
    rng = np.random.Generator(bit_gen)
    fresh = bit_gen.state
    key = fresh["state"]["key"]
    saved: dict[int, dict] = {}

    def next_block(live: np.ndarray, count: int) -> np.ndarray | None:
        size = min(CHUNK, horizon - count)
        if size <= 0:
            return None
        z = np.empty((live.size, size))
        for row, path in enumerate(live.tolist()):
            if count == 0:
                key[1] = first + path
                bit_gen.state = fresh
            else:
                bit_gen.state = saved[path]
            rng.standard_normal(out=z[row])
            saved[path] = bit_gen.state
        return theta + z

    return next_block


def classify_paths(
    theta: float, config: PaulsonConfig, seed: int, reps: int, method: str = "direct"
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Classify ``reps`` simulated paths with true mean ``theta``.

    Path r observes ``simulate_observations(theta, config.horizon,
    RngStream(seed, r).generator())`` and is decided by the route
    ``method`` ("direct" or "stepdown"), so row r equals what
    ``run_paulson_direct`` or ``paulson_via_stepdown`` returns on that
    stream.  Paths are decided ``GROUP_OBSERVATIONS // CHUNK`` at a time,
    one block of each live path's next observations per pass, so memory
    does not grow with ``reps``.

    Returns:
        ``(decision, stop_n, fallback_used)``, one entry per path.
    """
    if method not in _ROUTES:
        raise ValueError(f"method must be one of {sorted(_ROUTES)}, got {method!r}")
    if seed < 0 or reps < 1:
        raise ValueError(f"seed must be nonnegative and reps positive, got {seed}, {reps}")
    group = GROUP_OBSERVATIONS // CHUNK
    parts = [
        _decide(
            method,
            min(group, reps - first),
            _stream_blocks(theta, config.horizon, seed, first),
            config,
        )
        for first in range(0, reps, group)
    ]
    return tuple(np.concatenate(column) for column in zip(*parts))
