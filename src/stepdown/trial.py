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
of replicates; the draws do not depend on the scenario, so scenarios
run on the same seed share them (common random numbers).
``endpoint_from_draws`` is the one definition of an endpoint's sums and
statistic.  It reads only that endpoint's parameters, its key in
``endpoint_keys``, so scenarios that share a mean, a correlation or a
success rate share that endpoint's path.  ``paths_from_draws`` stacks
the three endpoints of one scenario, and ``generate_paths`` composes
the draw and the paths for one replicate.  A replicate's numbers do not
depend on which function drew it or on what else was drawn with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import SampleSchedule, StatisticPaths, check_integer

__all__ = [
    "ScenarioParams",
    "RngStream",
    "check_seed",
    "draw_replicates",
    "endpoint_from_draws",
    "endpoint_keys",
    "generate_paths",
    "paths_from_draws",
]


def check_seed(seed: int) -> int:
    """Validate a master seed, one Philox key word: an integer, 0 <= seed < 2**64."""
    return check_integer(seed, "seed", 0, 2**64)


def philox(seed: int, index: int) -> np.random.Philox:
    """The Philox bit generator keyed ``[seed, index]`` as uint64 words, counter 0."""
    # A plain list would send ints of 2**63 and above through float64.
    return np.random.Philox(key=np.array([seed, index], dtype=np.uint64))


def restartable(seed: int) -> tuple[np.random.Generator, Callable[[int], None]]:
    """A generator and ``restart(index)``, which moves it to the stream ``[seed, index]``.

    After ``restart(r)`` the generator draws exactly what
    ``np.random.Generator(philox(seed, r))`` draws, whatever it drew
    before: the one Philox bit generator is re-keyed to ``[seed, r]``
    and its counter and output buffer are reset, which is far cheaper
    than building a bit generator per stream.  Before the first restart
    it draws the stream ``[seed, 0]``.
    """
    bit_gen = philox(seed, 0)
    fresh = bit_gen.state
    # As plain ints, not uint64 arrays, the state sets about twice as fast.
    fresh["state"] = {name: words.tolist() for name, words in fresh["state"].items()}
    fresh["buffer"] = fresh["buffer"].tolist()
    key = fresh["state"]["key"]

    def restart(index: int) -> None:
        key[1] = index
        bit_gen.state = fresh

    return np.random.Generator(bit_gen), restart


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
    the same draws.  ``draw_replicates`` draws the same streams for a
    block of replicates, and ``paulson.classify_paths`` for a group of
    classification paths: each path draws the array
    ``simulate_observations`` returns a block at a time (16, 16, 32, 64
    and 128 observations, then 256 at a time) on its group slot's
    generator, restarted on its stream when the path begins.
    """

    master_seed: int
    replicate: int

    def __post_init__(self) -> None:
        check_seed(self.master_seed)
        check_integer(self.replicate, "replicate index", 0)

    def generator(self) -> np.random.Generator:
        return np.random.Generator(philox(self.master_seed, self.replicate))


def draw_replicates(
    master_seed: int, rep_range: tuple[int, int], observations: int
) -> tuple[np.ndarray, np.ndarray]:
    """Draw the raw numbers of replicates ``lo <= r < hi``, ``observations`` per endpoint.

    Replicate r draws from ``RngStream(master_seed, r)``, in this order:
    a standard normal matrix for the two Gaussian endpoints, then a row
    of uniforms for the binary endpoint.  The draw order is part of the
    reproducibility contract.

    The draws do not depend on the scenario, so one call serves every
    scenario simulated on the same seed and replicates.

    Returns:
        ``(z, u)`` of shapes ``(hi - lo, 2, observations)`` and
        ``(hi - lo, observations)``.
    """
    check_seed(master_seed)
    lo = check_integer(rep_range[0], "rep_range start", 0)
    reps = check_integer(rep_range[1], "rep_range end", lo) - lo

    z = np.empty((reps, 2, observations))
    u = np.empty((reps, observations))
    rng, restart = restartable(master_seed)
    for r, z_r, u_r in zip(range(lo, lo + reps), z, u):
        restart(r)
        rng.standard_normal(out=z_r)
        rng.random(out=u_r)
    return z, u


def endpoint_keys(params: ScenarioParams, continuity_correction: bool) -> tuple[tuple, ...]:
    """The three endpoints' keys: each endpoint's index and the parameters it reads.

    ``(0, mu1)``, ``(1, rho12, mu2)`` and ``(2, p, continuity_correction)``.
    Scenarios that share a key share that endpoint's sums and statistic
    (``endpoint_from_draws``).
    """
    return (
        (0, params.mu1),
        (1, params.rho12, params.mu2),
        (2, params.p, continuity_correction),
    )


def endpoint_from_draws(
    key: tuple, schedule: SampleSchedule, z: np.ndarray, u: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Turn ``draw_replicates`` output into one endpoint's sums and statistic.

    ``key`` is one of ``endpoint_keys``.  The first Gaussian endpoint is
    ``z0 + mu1``, the second ``rho * z0 + sqrt(1 - rho**2) * z1 + mu2``,
    and the binary endpoint's successes are ``u < p``; the cumulative
    sums are recorded at every analysis size.  Every step runs element
    by element and row by row, so each replicate's numbers equal what a
    one-replicate call computes.

    The statistic is computed from the recorded sums alone, so
    recomputation from the stored sums reproduces the paths exactly.
    The Gaussian endpoints' statistic is S_n / sqrt(n).  The binary
    endpoint's is (S_n - n/2) / sqrt(n/4), the count centered and scaled
    under success probability one half; the continuity correction
    subtracts another half success before scaling.

    Returns:
        ``(sums, values)``, each of shape ``(replicates, len(schedule))``.
    """
    cols = np.asarray(schedule.analyses, dtype=int) - 1
    ns = np.asarray(schedule.analyses, dtype=float)
    if key[0] == 2:
        _, p, continuity_correction = key
        x = (u < p).astype(float)
    elif key[0] == 1:
        _, rho, mu2 = key
        x = rho * z[:, 0]
        x += math.sqrt(1.0 - rho * rho) * z[:, 1]
        x += mu2
    else:
        x = z[:, 0] + key[1]
    # In place: with a second (replicates, observations) array for the
    # running sums, one endpoint of 3,744 x 35 took 1.3 ms, against 0.65
    # ms in place (2-core host); the sums are the same.
    sums = np.cumsum(x, axis=1, out=x)[:, cols]
    if key[0] < 2:
        return sums, sums / np.sqrt(ns)
    shift = 0.5 if continuity_correction else 0.0
    return sums, (sums - ns / 2.0 - shift) / np.sqrt(ns / 4.0)


def paths_from_draws(
    params: ScenarioParams,
    schedule: SampleSchedule,
    z: np.ndarray,
    u: np.ndarray,
    *,
    continuity_correction: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Turn ``draw_replicates`` output into sums and statistics for one scenario.

    The three endpoints' ``endpoint_from_draws`` results, stacked.

    Returns:
        ``(sums, values)``, each of shape ``(replicates, 3, len(schedule))``.
    """
    keys = endpoint_keys(params, continuity_correction)
    sums, values = zip(*(endpoint_from_draws(key, schedule, z, u) for key in keys))
    return np.stack(sums, axis=1), np.stack(values, axis=1)


def generate_paths(
    params: ScenarioParams,
    schedule: SampleSchedule,
    stream: RngStream,
    *,
    continuity_correction: bool = False,
) -> StatisticPaths:
    """Simulate one replicate of the trial and return its statistic paths.

    ``draw_replicates`` for the one replicate, then ``paths_from_draws``:
    the same statistics a block of replicates gets.

    Args:
        params: True scenario parameters.
        schedule: Analysis sizes; sampling runs to the largest.
        stream: Per-replicate random stream.
        continuity_correction: Applied to the binary statistic.
    """
    r = stream.replicate
    z, u = draw_replicates(stream.master_seed, (r, r + 1), schedule.sup)
    _sums, values = paths_from_draws(
        params, schedule, z, u, continuity_correction=continuity_correction
    )
    return StatisticPaths(analyses=schedule.analyses, values=values[0])
