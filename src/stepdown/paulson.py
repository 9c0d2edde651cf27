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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "CHUNK",
    "PaulsonConfig",
    "PaulsonResult",
    "classify_by_mean",
    "simulate_observations",
    "run_paulson_direct",
    "paulson_via_stepdown",
]

CHUNK = 256  # observations processed per vectorized block


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
        if any(b <= a for a, b in zip(thresholds, thresholds[1:])):
            raise ValueError("thresholds must be strictly increasing")
        object.__setattr__(self, "thresholds", thresholds)
        object.__setattr__(self, "delta", float(self.delta))
        object.__setattr__(self, "critical_value", float(self.critical_value))
        if self.delta <= 0.0:
            raise ValueError(f"delta must be positive, got {self.delta}")
        if self.critical_value <= 0.0:
            raise ValueError(f"critical_value must be positive, got {self.critical_value}")
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


def classify_by_mean(mean: float, thresholds: Sequence[float]) -> int:
    """Index of the interval containing ``mean`` (ties go downward)."""
    return int(np.searchsorted(np.asarray(thresholds, dtype=float), mean, side="left"))


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


def _resolve(
    qualified: np.ndarray, mean: float, thresholds: tuple[float, ...], stop_n: int
) -> PaulsonResult:
    if qualified.size == 1:
        return PaulsonResult(int(qualified[0]), stop_n, False)
    return PaulsonResult(classify_by_mean(mean, thresholds), stop_n, True)


def _qualification(all_low: np.ndarray, all_up: np.ndarray) -> np.ndarray:
    # all_low[t, i]: downward tests at thresholds 0..i all rejected by
    # position t; all_up[t, i]: upward tests at thresholds i.. all
    # rejected.  Interval i needs the downward tests below it and the
    # upward tests above it.
    length, k1 = all_low.shape
    qual = np.empty((length, k1 + 1), dtype=bool)
    qual[:, 0] = all_up[:, 0]
    qual[:, k1] = all_low[:, k1 - 1]
    for i in range(1, k1):
        qual[:, i] = all_low[:, i - 1] & all_up[:, i]
    return qual


def run_paulson_direct(
    observations: np.ndarray | Iterable[np.ndarray], config: PaulsonConfig
) -> PaulsonResult:
    """Classify a mean by the shrinking-interval rule.

    Maintains u_n = max over m <= n of (S_m/m - delta/2 - A/m) and
    v_n = min over m <= n of (S_m/m + delta/2 + A/m) and stops the first
    time (u_n, v_n) fits inside a widened target interval.  If several
    targets fit at that moment, or the horizon runs out, the decision
    falls back to the interval containing S_n/n.

    Args:
        observations: Array of observations, or an iterable yielding
            blocks of them; only the first ``horizon`` observations are
            consumed.
        config: Thresholds, delta, critical value, horizon.

    Returns:
        The classification, its stopping time, and the fallback flag.
    """
    th = np.asarray(config.thresholds, dtype=float)
    half = config.delta / 2.0
    a = config.critical_value
    widened_low = th - config.delta  # u_n >= theta_t - delta
    widened_up = th + config.delta  # v_n <= theta_t + delta

    count = 0
    total = 0.0
    low_run = -math.inf
    high_run = math.inf

    for chunk in _iter_chunks(observations):
        if count >= config.horizon:
            break
        chunk = chunk[: config.horizon - count]
        if chunk.size == 0:
            continue
        s = total + np.cumsum(chunk)
        m = count + np.arange(1, chunk.size + 1, dtype=float)
        low = np.maximum.accumulate(s / m - half - a / m)
        np.maximum(low, low_run, out=low)
        high = np.minimum.accumulate(s / m + half + a / m)
        np.minimum(high, high_run, out=high)

        all_low = np.logical_and.accumulate(low[:, None] >= widened_low[None, :], axis=1)
        all_up = np.logical_and.accumulate(
            (high[:, None] <= widened_up[None, :])[:, ::-1], axis=1
        )[:, ::-1]
        qual = _qualification(all_low, all_up)
        hits = qual.any(axis=1)
        if hits.any():
            t = int(np.argmax(hits))
            stop_n = int(m[t])
            return _resolve(
                np.flatnonzero(qual[t]), s[t] / m[t], config.thresholds, stop_n
            )

        count = int(m[-1])
        total = float(s[-1])
        low_run = float(low[-1])
        high_run = float(high[-1])

    if count == 0:
        raise ValueError("no observations supplied")
    return PaulsonResult(classify_by_mean(total / count, config.thresholds), count, True)


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
    an exhausted horizon, falls back to the S_n/n classification.

    Args:
        observations: Same forms as run_paulson_direct.
        config: Thresholds, delta, critical value, horizon.

    Returns:
        The classification, its stopping time, and the fallback flag;
        identical to run_paulson_direct on the same observations.
    """
    th = np.asarray(config.thresholds, dtype=float)
    half = config.delta / 2.0
    a = config.critical_value
    drift_low = th - half
    drift_up = th + half

    k1 = th.size
    low_done = np.zeros(k1, dtype=bool)
    up_done = np.zeros(k1, dtype=bool)
    count = 0
    total = 0.0

    for chunk in _iter_chunks(observations):
        if count >= config.horizon:
            break
        chunk = chunk[: config.horizon - count]
        if chunk.size == 0:
            continue
        s = total + np.cumsum(chunk)
        m = count + np.arange(1, chunk.size + 1, dtype=float)

        low_cross = s[:, None] - m[:, None] * drift_low[None, :] >= a
        up_cross = s[:, None] - m[:, None] * drift_up[None, :] <= -a
        low_flag = np.logical_or.accumulate(low_cross, axis=0) | low_done[None, :]
        up_flag = np.logical_or.accumulate(up_cross, axis=0) | up_done[None, :]

        all_low = np.logical_and.accumulate(low_flag, axis=1)
        all_up = np.logical_and.accumulate(up_flag[:, ::-1], axis=1)[:, ::-1]
        qual = _qualification(all_low, all_up)
        hits = qual.any(axis=1)
        if hits.any():
            t = int(np.argmax(hits))
            stop_n = int(m[t])
            return _resolve(
                np.flatnonzero(qual[t]), s[t] / m[t], config.thresholds, stop_n
            )

        count = int(m[-1])
        total = float(s[-1])
        low_done = low_flag[-1]
        up_done = up_flag[-1]

    if count == 0:
        raise ValueError("no observations supplied")
    return PaulsonResult(classify_by_mean(total / count, config.thresholds), count, True)
