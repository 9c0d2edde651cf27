"""Reference computations made apart from the stepdown package.

Crossing probabilities of Gaussian walks come from scipy's multivariate
normal CDF (Genz 1992) with a fixed quasi-Monte Carlo seed; the binary
endpoint is an exact dynamic programme over binomial counts; the
sequential classification rule is a plain per-observation loop.  None of
these call into ``stepdown``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import optimize, special, stats

QMC_SEED = 20110710

# A statistical comparison fails when the observed count is this
# improbable under the reference.  About 100 comparisons run per
# benchmark run, so a correct program fails fewer than 1 run in 10,000.
TAIL_P = 1e-6
TAIL_Z = float(special.ndtri(1.0 - TAIL_P / 2.0))


def null_cov(analyses) -> np.ndarray:
    """Correlation of S_n / sqrt(n) across analyses: sqrt(n_i / n_j), i <= j."""
    n = np.asarray(analyses, dtype=float)
    return np.sqrt(np.minimum.outer(n, n) / np.maximum.outer(n, n))


def below_probability(analyses, upper) -> float:
    """P(Z_j < upper_j for all j) for the standardized null walk."""
    upper = np.asarray(upper, dtype=float)
    if upper.size == 1:
        return float(special.ndtr(upper[0]))
    mvn = stats.multivariate_normal(mean=np.zeros(upper.size), cov=null_cov(analyses))
    return float(mvn.cdf(upper, rng=np.random.default_rng(QMC_SEED)))


def shape_multipliers(shape: str, analyses) -> np.ndarray:
    n = np.asarray(analyses, dtype=float)
    if shape == "flat":
        return np.ones_like(n)
    if shape == "obrien-fleming":
        return np.sqrt(n[-1] / n)
    raise ValueError(f"unknown shape {shape!r}")


def calibrate_boundary(analyses, rho: float, shape: str) -> np.ndarray:
    """Boundary c * g(n) whose null crossing probability is rho."""
    g = shape_multipliers(shape, analyses)
    c = optimize.brentq(
        lambda c: 1.0 - below_probability(analyses, c * g) - rho, 0.0, 8.0, xtol=1e-7
    )
    return c * g


def _moments(analyses, survive) -> tuple[float, float, float]:
    """P(cross), E[N], Var[N] from P(not crossed by n_j), where a walk
    that never crosses runs to the last analysis."""
    n = np.asarray(analyses, dtype=float)
    s = np.asarray(survive, dtype=float)
    first = -np.diff(np.concatenate(([1.0], s)))
    stop = first.copy()
    stop[-1] += s[-1]
    mean = float(stop @ n)
    var = float(stop @ (n - mean) ** 2)
    return float(1.0 - s[-1]), mean, var


def gaussian_endpoint(analyses, boundary, mu: float) -> tuple[float, float, float]:
    """Rejection probability and stopping-size moments of a Gaussian
    endpoint with mean ``mu`` that stops when S_n / sqrt(n) >= b_n."""
    root_n = np.sqrt(np.asarray(analyses, dtype=float))
    upper = np.asarray(boundary, dtype=float) - mu * root_n
    survive = [below_probability(analyses[: j + 1], upper[: j + 1]) for j in range(len(upper))]
    return _moments(analyses, survive)


def binary_endpoint(analyses, boundary, p: float) -> tuple[float, float, float]:
    """The same for a Bernoulli(p) endpoint with statistic
    (S_n - n/2) / sqrt(n/4), by exact convolution of binomial counts."""
    mass = np.ones(1)
    prev = 0
    survive = []
    for n, b in zip(analyses, boundary):
        step = stats.binom.pmf(np.arange(n - prev + 1), n - prev, p)
        mass = np.convolve(mass, step)
        counts = np.arange(mass.size, dtype=float)
        z = (counts - n / 2.0) / math.sqrt(n / 4.0)
        mass = np.where(z >= b, 0.0, mass)
        survive.append(float(mass.sum()))
        prev = n
    return _moments(analyses, survive)


def count_tail(count: int, trials: int, p: float) -> float:
    """Two-sided exact binomial tail of ``count`` successes in ``trials``."""
    low = stats.binom.cdf(count, trials, p)
    high = stats.binom.sf(count - 1, trials, p)
    return float(min(1.0, 2.0 * min(low, high)))


def upper_tail(count: int, trials: int, p: float) -> float:
    """P(X >= count) for X ~ Binomial(trials, p)."""
    return float(stats.binom.sf(count - 1, trials, p))


def classify_loop(observations, thresholds, delta: float, critical: float, horizon: int):
    """Sequential classification, one observation at a time.

    For each threshold t the downward test rejects once
    S_n - n (t - delta/2) >= A and the upward test once
    S_n - n (t + delta/2) <= -A.  Interval i qualifies when every
    downward test below it and every upward test above it has rejected.
    Stops at the first n where some interval qualifies; if several do,
    or the horizon runs out, the interval holding S_n / n is taken (ties
    go to the lower interval).  Returns (decision, stop_n, fallback).
    """
    k1 = len(thresholds)
    low = [False] * k1
    up = [False] * k1
    total = 0.0
    n = 0
    for x in observations[:horizon]:
        n += 1
        total += float(x)
        for t, theta in enumerate(thresholds):
            if total - n * (theta - delta / 2.0) >= critical:
                low[t] = True
            if total - n * (theta + delta / 2.0) <= -critical:
                up[t] = True
        qualified = [i for i in range(k1 + 1) if all(low[:i]) and all(up[i:])]
        if qualified:
            if len(qualified) == 1:
                return qualified[0], n, False
            break
    mean = total / n
    return sum(1 for theta in thresholds if theta < mean), n, True
