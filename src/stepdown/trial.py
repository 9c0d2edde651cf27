"""A three-endpoint trial model for exercising the multistage procedures.

Each subject contributes three measurements: two unit-variance Gaussian
endpoints (optionally correlated with each other) and one binary
endpoint.  The null hypotheses are one-sided: no positive mean shift on
either Gaussian endpoint, and success probability at most one half on
the binary endpoint.  All three statistics are standardized cumulative
sums, so under the null boundary each behaves like a driftless
standardized Gaussian walk (exactly for the Gaussian endpoints, by
normal approximation for the binary one).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import SampleSchedule, StatisticPaths

__all__ = [
    "ScenarioParams",
    "RngStream",
    "generate_paths",
]


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

    Each replicate owns an independent stream regardless of execution
    order, so splitting replicates across workers, re-running a subset,
    or merging partial runs all reproduce the same draws.
    """

    master_seed: int
    replicate: int

    def __post_init__(self) -> None:
        if self.master_seed < 0 or self.replicate < 0:
            raise ValueError("seed and replicate index must be nonnegative")

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(key=[self.master_seed, self.replicate]))


def generate_paths(
    params: ScenarioParams,
    schedule: SampleSchedule,
    stream: RngStream,
    *,
    continuity_correction: bool = False,
) -> StatisticPaths:
    """Simulate one replicate of the trial and return its statistic paths.

    Draw order is part of the reproducibility contract: first the two
    Gaussian endpoint rows (a standard normal matrix pushed through the
    correlation factor), then the binary endpoint row.  Cumulative sums
    are recorded at every analysis size; the statistics are computed
    from those sums alone, so recomputation from the stored sums
    reproduces the paths exactly.

    The Gaussian endpoints' statistic is S_n / sqrt(n).  The binary
    endpoint's is (S_n - n/2) / sqrt(n/4), the count centered and scaled
    under success probability one half; the optional continuity
    correction subtracts another half success before scaling.

    Args:
        params: True scenario parameters.
        schedule: Analysis sizes; sampling runs to the largest.
        stream: Per-replicate random stream.
        continuity_correction: Forwarded to the binary statistic.

    Returns:
        StatisticPaths with both the statistics and the raw sums.
    """
    n_max = schedule.sup
    rng = stream.generator()

    z = rng.standard_normal((2, n_max))
    rho = params.rho12
    x1 = z[0] + params.mu1
    x2 = rho * z[0] + math.sqrt(1.0 - rho * rho) * z[1] + params.mu2
    x3 = (rng.random(n_max) < params.p).astype(float)

    cols = np.asarray(schedule.analyses, dtype=int) - 1
    sums = np.empty((3, len(schedule)), dtype=float)
    sums[0] = np.cumsum(x1)[cols]
    sums[1] = np.cumsum(x2)[cols]
    sums[2] = np.cumsum(x3)[cols]

    ns = np.asarray(schedule.analyses, dtype=float)
    values = np.empty_like(sums)
    values[0] = sums[0] / np.sqrt(ns)
    values[1] = sums[1] / np.sqrt(ns)
    shift = 0.5 if continuity_correction else 0.0
    values[2] = (sums[2] - ns / 2.0 - shift) / np.sqrt(ns / 4.0)

    return StatisticPaths(analyses=schedule.analyses, values=values, sums=sums)
