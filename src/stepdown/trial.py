"""A three-endpoint trial model for exercising the multistage procedures.

Each subject contributes three measurements: two unit-variance Gaussian
endpoints (optionally correlated with each other) and one binary
endpoint.  The null hypotheses are one-sided: no positive mean shift on
either Gaussian endpoint, and success probability at most one half on
the binary endpoint.  All three statistics are standardized cumulative
sums, so under the null boundary each behaves like a driftless
standardized Gaussian walk (exactly for the Gaussian endpoints, by
normal approximation for the binary one).

The procedures read an endpoint only at its analyses, so a replicate
draws one increment per endpoint and look, in key blocks: replicate r of
a run with master seed s reads row ``r % KEY_BLOCK`` of the Philox
stream keyed ``[s, r // KEY_BLOCK]`` (``draw_replicates``).  Each seed in
[0, 2**64) is one key word, so no two share a stream.  The draws do not
depend on the scenario, so scenarios run on the same seed share them
(common random numbers).  ``endpoint_from_draws`` is the one definition
of an endpoint's sums and statistic, one row per look.  It reads only
that endpoint's parameters, its key in ``endpoint_keys``, so scenarios
that share a mean, a correlation or a success rate share that endpoint's
path.  ``generate_paths`` is one replicate's draw and its three
endpoints' statistics, as ``harness.run_cells`` forms them a block of
replicates at a time.  A replicate's numbers do not depend on which
function drew it or on what else was drawn with it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import SampleSchedule, StatisticPaths, check_integer

__all__ = [
    "KEY_BLOCK",
    "ScenarioParams",
    "RngStream",
    "check_seed",
    "draw_replicates",
    "endpoint_from_draws",
    "endpoint_keys",
    "generate_paths",
]


# Replicates per Philox key: a fixed part of the random-stream contract.
KEY_BLOCK = 1024


def check_seed(seed: int) -> int:
    """Validate a master seed, one Philox key word: an integer, 0 <= seed < 2**64."""
    return check_integer(seed, "seed", 0, 2**64)


def philox(seed: int, index: int, step: int = 0) -> np.random.Philox:
    """The Philox bit generator keyed ``[seed, index]`` as uint64 words,
    at counter ``[0, step, 0, 0]``."""
    # A plain list would send ints of 2**63 and above through float64.
    key = np.array([seed, index], dtype=np.uint64)
    return np.random.Philox(key=key, counter=[0, step, 0, 0])


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
    """The Philox stream keyed ``[master_seed, replicate]``, counter 0.

    A trial replicate reads a row of a key block (``draw_replicates``),
    and ``generate_paths`` takes an ``RngStream`` as the replicate's
    name.  No simulated Paulson path reads it: ``paulson.classify_paths``
    deals each pass of a group of paths from one keyed draw.
    """

    master_seed: int
    replicate: int

    def __post_init__(self) -> None:
        check_seed(self.master_seed)
        check_integer(self.replicate, "replicate index", 0)

    def generator(self) -> np.random.Generator:
        return np.random.Generator(philox(self.master_seed, self.replicate))


def draw_replicates(
    master_seed: int, rep_range: tuple[int, int], looks: int
) -> tuple[np.ndarray, np.ndarray]:
    """Draw the raw numbers of replicates ``lo <= r < hi``, one per endpoint and look.

    Key block b, the Philox stream keyed ``[master_seed, b]``, draws
    standard normals of shape ``(KEY_BLOCK, 2, looks)`` for the Gaussian
    endpoints, then uniforms of shape ``(KEY_BLOCK, looks)`` for the
    binary one; replicate r reads row ``r % KEY_BLOCK`` of block
    ``r // KEY_BLOCK``.  The block size and the draw order are part of
    the reproducibility contract.

    Returns:
        ``(z, u)`` of shapes ``(hi - lo, 2, looks)`` and ``(hi - lo, looks)``.
    """
    check_seed(master_seed)
    lo = check_integer(rep_range[0], "rep_range start", 0)
    hi = check_integer(rep_range[1], "rep_range end", lo)
    z, u = np.empty((hi - lo, 2, looks)), np.empty((hi - lo, looks))
    for block in range(lo // KEY_BLOCK, -(-hi // KEY_BLOCK)):
        first = block * KEY_BLOCK
        a, b = max(lo, first), min(hi, first + KEY_BLOCK)
        rng = np.random.Generator(philox(master_seed, block))
        z[a - lo : b - lo] = rng.standard_normal((KEY_BLOCK, 2, looks))[a - first : b - first]
        u[a - lo : b - lo] = rng.random((KEY_BLOCK, looks))[a - first : b - first]
    return z, u


# Tables hold at most 1 MB each; the bound keeps many runs from growing it.
@functools.lru_cache(maxsize=256)
def _binomial_cdf(n: int, p: float) -> np.ndarray:
    """P(Bin(n, p) <= c) for c = 0..n-1, read-only.

    A uniform u inverts to the count ``searchsorted(cdf, u, "right")``.
    The masses are products of neighbouring terms' ratios, outward from
    the mode so that none exceeds 1, normalised to sum to 1.
    """
    if p == 1.0:
        cdf = np.zeros(n)
    else:
        c = np.arange(n)
        up = (n - c) / (c + 1) * (p / (1.0 - p))  # P(c + 1) / P(c)
        mode = min(int((n + 1) * p), n)
        mass = np.ones(n + 1)
        mass[mode + 1 :] = np.cumprod(up[mode:])
        mass[:mode] = np.cumprod(1.0 / up[:mode][::-1])[::-1]
        cdf = np.cumsum(mass)[:-1] / mass.sum()
    cdf.flags.writeable = False
    return cdf


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

    ``key`` is one of ``endpoint_keys``.  Look j adds dn = n_j - n_{j-1}
    observations.  The first Gaussian endpoint's increment is
    ``sqrt(dn) * z0 + mu1 * dn``, the second's ``sqrt(dn) * (rho * z0 +
    sqrt(1 - rho**2) * z1) + mu2 * dn``, and the binary endpoint's is a
    Bin(dn, p) count, the uniform inverted through its cumulative
    distribution (``_binomial_cdf``); the sums cumulate the increments
    over the looks, one in-place row add a look, which gives the
    sequential sums of ``np.cumsum``.  Every step runs element by element,
    so each replicate's numbers equal what a one-replicate call computes.

    The statistic is computed from the recorded sums alone, so
    recomputation from the stored sums reproduces the paths exactly.
    The Gaussian endpoints' statistic is S_n / sqrt(n).  The binary
    endpoint's is (S_n - n/2) / sqrt(n/4), the count centered and scaled
    under success probability one half; the continuity correction
    subtracts another half success before scaling.

    Returns:
        ``(sums, values)``, each of shape ``(len(schedule), replicates)``:
        one contiguous row per look.
    """
    analyses = schedule.analyses
    steps = [n - m for m, n in zip((0, *analyses), analyses)]
    ns, dn = np.asarray(analyses, dtype=float)[:, None], np.asarray(steps, dtype=float)[:, None]
    x = np.empty((len(steps), len(u)))
    if key[0] == 2:
        _, p, continuity_correction = key
        for j, step in enumerate(steps):
            x[j] = np.searchsorted(_binomial_cdf(step, p), u[:, j], side="right")
    elif key[0] == 1:
        _, rho, mu2 = key
        np.multiply(rho, z[:, 0].T, out=x)
        x += math.sqrt(1.0 - rho * rho) * z[:, 1].T
        x *= np.sqrt(dn)
        x += mu2 * dn
    else:
        np.multiply(z[:, 0].T, np.sqrt(dn), out=x)
        x += key[1] * dn
    sums = x
    for j in range(1, len(sums)):  # in place, in np.cumsum's order
        sums[j] += sums[j - 1]
    if key[0] < 2:
        return sums, sums / np.sqrt(ns)
    shift = 0.5 if continuity_correction else 0.0
    return sums, (sums - ns / 2.0 - shift) / np.sqrt(ns / 4.0)


def generate_paths(
    params: ScenarioParams,
    schedule: SampleSchedule,
    stream: RngStream,
    *,
    continuity_correction: bool = False,
) -> StatisticPaths:
    """One replicate's statistic paths: replicate ``stream.replicate`` of
    ``stream.master_seed`` through ``draw_replicates`` and
    ``endpoint_from_draws`` on its three ``endpoint_keys``, the same
    statistics a block of replicates gets.
    """
    r = stream.replicate
    z, u = draw_replicates(stream.master_seed, (r, r + 1), len(schedule))
    keys = endpoint_keys(params, continuity_correction)
    values = np.stack([endpoint_from_draws(key, schedule, z, u)[1][:, 0] for key in keys])
    return StatisticPaths(analyses=schedule.analyses, values=values)
