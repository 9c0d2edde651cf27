"""A three-endpoint trial model for exercising the multistage procedures.

Each subject contributes three measurements: two unit-variance Gaussian
endpoints (optionally correlated with each other) and one binary
endpoint.  The null hypotheses are one-sided: no positive mean shift on
either Gaussian endpoint, and success probability at most one half on
the binary endpoint.  All three statistics are standardized cumulative
sums, so under the null boundary each behaves like a driftless
standardized Gaussian walk (exactly for the Gaussian endpoints, by
normal approximation for the binary one).

Replicate r of a run with master seed s draws from its own Philox
stream keyed ``[s, r]`` (``RngStream``); each seed in [0, 2**64) is one
key word, so no two share a stream.  ``draw_replicates`` draws a range
of replicates and ``paths_from_draws`` turns the draws into one
scenario's sums and statistics; the draws do not depend on the
scenario, so scenarios run on the same seed share them (common random
numbers).  ``generate_batch`` composes the two for a range of replicates
and ``generate_paths`` for one.  A replicate's numbers do not depend on
which function drew it or on what else was drawn with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import SampleSchedule, StatisticPaths

__all__ = [
    "ScenarioParams",
    "RngStream",
    "check_seed",
    "draw_replicates",
    "generate_batch",
    "generate_paths",
    "paths_from_draws",
]


def check_seed(seed: int) -> int:
    """Validate a master seed, one Philox key word: 0 <= seed < 2**64."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    return seed


def philox(seed: int, index: int) -> np.random.Philox:
    """The Philox bit generator keyed ``[seed, index]`` as uint64 words, counter 0."""
    # A plain list would send ints of 2**63 and above through float64.
    return np.random.Philox(key=np.array([seed, index], dtype=np.uint64))


@dataclass(frozen=True)
class ScenarioParams:
    """True parameters of one simulated scenario.

    ``mu1`` and ``mu2`` are the Gaussian endpoint means, ``p`` the
    binary success probability, and ``rho12`` the correlation between
    the two Gaussian endpoints (the binary endpoint is independent of
    both).
    """

    mu1: float
    mu2: float
    p: float
    rho12: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "mu1", float(self.mu1))
        object.__setattr__(self, "mu2", float(self.mu2))
        object.__setattr__(self, "p", float(self.p))
        object.__setattr__(self, "rho12", float(self.rho12))
        for name in ("mu1", "mu2"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"mean {name} must be finite, got {getattr(self, name)}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"success probability must lie in [0, 1], got {self.p}")
        if not -1.0 <= self.rho12 <= 1.0:
            raise ValueError(f"correlation must lie in [-1, 1], got {self.rho12}")

    @property
    def truth(self) -> tuple[bool, bool, bool]:
        """Which null hypotheses hold: no shift on the Gaussian means,
        success probability not above one half on the binary endpoint.
        A true hypothesis is one the procedure should not reject."""
        return (self.mu1 <= 0.0, self.mu2 <= 0.0, self.p <= 0.5)

    def label(self) -> str:
        """Compact scenario tag, e.g. ``(0,0,.5)`` or ``(0,.5,.75,.75)``."""

        def fmt(x: float) -> str:
            s = f"{x:g}"
            return s[1:] if s.startswith("0.") else s

        parts = [fmt(self.mu1), fmt(self.mu2), fmt(self.p)]
        if self.rho12 != 0.0:
            parts.append(fmt(self.rho12))
        return "(" + ",".join(parts) + ")"


@dataclass(frozen=True)
class RngStream:
    """A counter-based random stream keyed by (master seed, replicate).

    The stream is the Philox generator with key ``[master_seed,
    replicate]`` and counter 0.  Each replicate owns an independent
    stream regardless of execution order, so splitting replicates across
    workers, re-running a subset, or merging partial runs all reproduce
    the same draws.  ``draw_replicates`` reproduces the same stream for
    many replicates by re-keying one Philox bit generator instead of
    building a generator per replicate; the simulation harness calls it
    once per block of replicates for all the cells of a run that share
    the seed.  ``paulson.classify_paths`` re-keys the same way for a
    group of classification paths, drawing the array
    ``simulate_observations`` returns for each path a block at a time.
    """

    master_seed: int
    replicate: int

    def __post_init__(self) -> None:
        check_seed(self.master_seed)
        if self.replicate < 0:
            raise ValueError("replicate index must be nonnegative")

    def generator(self) -> np.random.Generator:
        return np.random.Generator(philox(self.master_seed, self.replicate))


def draw_replicates(
    master_seed: int, rep_range: tuple[int, int], observations: int
) -> tuple[np.ndarray, np.ndarray]:
    """Draw the raw numbers of replicates ``lo <= r < hi``, ``observations`` per endpoint.

    Replicate r draws from ``RngStream(master_seed, r)``, in this order:
    a standard normal matrix for the two Gaussian endpoints, then a row
    of uniforms for the binary endpoint.  The draw order is part of the
    reproducibility contract.  One Philox bit generator is re-keyed to
    ``[master_seed, r]`` with counter 0 for each replicate, which yields
    exactly the draws of ``RngStream(master_seed, r).generator()``.

    The draws do not depend on the scenario, so one call serves every
    scenario simulated on the same seed and replicates.

    Returns:
        ``(z, u)`` of shapes ``(hi - lo, 2, observations)`` and
        ``(hi - lo, observations)``.
    """
    lo, hi = rep_range
    check_seed(master_seed)
    if lo < 0 or hi < lo:
        raise ValueError(f"{rep_range} must be a range of nonnegative indices")
    reps = hi - lo

    z = np.empty((reps, 2, observations))
    u = np.empty((reps, observations))
    bit_gen = philox(master_seed, lo)
    rng = np.random.Generator(bit_gen)
    state = bit_gen.state
    key = state["state"]["key"]
    for i in range(reps):
        # Counter 0 and an empty buffer: a fresh stream keyed [seed, r].
        key[1] = lo + i
        bit_gen.state = state
        rng.standard_normal(out=z[i])
        rng.random(out=u[i])
    return z, u


def paths_from_draws(
    params: ScenarioParams,
    schedule: SampleSchedule,
    z: np.ndarray,
    u: np.ndarray,
    *,
    continuity_correction: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Turn ``draw_replicates`` output into sums and statistics for one scenario.

    The Gaussian rows go through the correlation factor and the mean
    shift, the uniforms become successes ``u < p``, and the cumulative
    sums are recorded at every analysis size.  Every step runs element
    by element and row by row, so each replicate's numbers equal what a
    one-replicate call computes.

    The statistics are computed from the recorded sums alone, so
    recomputation from the stored sums reproduces the paths exactly.
    The Gaussian endpoints' statistic is S_n / sqrt(n).  The binary
    endpoint's is (S_n - n/2) / sqrt(n/4), the count centered and scaled
    under success probability one half; the optional continuity
    correction subtracts another half success before scaling.

    Returns:
        ``(sums, values)``, each of shape ``(replicates, 3, len(schedule))``.
    """
    rho = params.rho12
    x1 = z[:, 0] + params.mu1
    x2 = rho * z[:, 0] + math.sqrt(1.0 - rho * rho) * z[:, 1] + params.mu2
    x3 = (u < params.p).astype(float)

    cols = np.asarray(schedule.analyses, dtype=int) - 1
    sums = np.empty((len(z), 3, len(schedule)), dtype=float)
    sums[:, 0] = np.cumsum(x1, axis=1)[:, cols]
    sums[:, 1] = np.cumsum(x2, axis=1)[:, cols]
    sums[:, 2] = np.cumsum(x3, axis=1)[:, cols]

    ns = np.asarray(schedule.analyses, dtype=float)
    values = np.empty_like(sums)
    values[:, 0] = sums[:, 0] / np.sqrt(ns)
    values[:, 1] = sums[:, 1] / np.sqrt(ns)
    shift = 0.5 if continuity_correction else 0.0
    values[:, 2] = (sums[:, 2] - ns / 2.0 - shift) / np.sqrt(ns / 4.0)
    return sums, values


def generate_batch(
    params: ScenarioParams,
    schedule: SampleSchedule,
    master_seed: int,
    rep_range: tuple[int, int],
    *,
    continuity_correction: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Simulate replicates ``lo <= r < hi`` and return their sums and statistics.

    ``draw_replicates`` for the schedule's largest analysis, then
    ``paths_from_draws``; see those two for the draw contract and the
    statistics.  A caller simulating several scenarios on the same seed
    and replicates can draw once and call ``paths_from_draws`` per
    scenario, with the same result.

    Args:
        params: True scenario parameters.
        schedule: Analysis sizes; sampling runs to the largest.
        master_seed: Master seed in [0, 2**64).
        rep_range: Half-open range ``(lo, hi)`` of replicate indices.
        continuity_correction: Applied to the binary statistic.

    Returns:
        ``(sums, values)``, each of shape ``(hi - lo, 3, len(schedule))``.
    """
    z, u = draw_replicates(master_seed, rep_range, schedule.sup)
    return paths_from_draws(
        params, schedule, z, u, continuity_correction=continuity_correction
    )


def generate_paths(
    params: ScenarioParams,
    schedule: SampleSchedule,
    stream: RngStream,
    *,
    continuity_correction: bool = False,
) -> StatisticPaths:
    """Simulate one replicate of the trial and return its statistic paths.

    The one-replicate view of ``generate_batch``: same draws, same sums,
    same statistics.

    Args:
        params: True scenario parameters.
        schedule: Analysis sizes; sampling runs to the largest.
        stream: Per-replicate random stream.
        continuity_correction: Applied to the binary statistic.

    Returns:
        StatisticPaths with both the statistics and the raw sums.
    """
    r = stream.replicate
    sums, values = generate_batch(
        params, schedule, stream.master_seed, (r, r + 1),
        continuity_correction=continuity_correction,
    )
    return StatisticPaths(analyses=schedule.analyses, values=values[0], sums=sums[0])
