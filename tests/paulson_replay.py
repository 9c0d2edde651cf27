"""A test-side replay of ``classify_paths``, apart from its kernels.

``dealt_paths`` deals each pass's normals as ``classify_paths``
documents them and decides every path one observation at a time by the
paper's direct rule (``PaperDirect``), never through ``_decide``.
"""

import math

import numpy as np

from stepdown.paulson import CHUNK, GROUP_OBSERVATIONS, PaulsonResult, classify_by_mean

GROUP = GROUP_OBSERVATIONS // CHUNK  # paths classify_paths decides per pass


class PaperDirect:
    """The direct rule as the paper writes it, one observation at a time.

    u_n is the running maximum of S_m/m - delta/2 - A/m and v_n the
    running minimum of S_m/m + delta/2 + A/m; the path stops at the
    first n where (u_n, v_n) fits inside a widened target, and falls
    back to S_n/n on a tie or at the horizon.  This is the paper's rule
    as written: S_n = S_{n-1} + x_n, one observation at a time.
    """

    def __init__(self, config):
        th, delta = config.thresholds, config.delta
        self.config = config
        lows = [-math.inf] + [t - delta for t in th]
        self.targets = list(zip(lows, [t + delta for t in th] + [math.inf]))
        self.n, self.s, self.u, self.v = 0, 0.0, -math.inf, math.inf

    def observe(self, x):
        """Take the next observation; the result once the path stops, else None."""
        config = self.config
        half, a = config.delta / 2.0, config.critical_value
        n = self.n = self.n + 1
        s = self.s = self.s + x
        self.u = max(self.u, s / n - half - a / n)
        self.v = min(self.v, s / n + half + a / n)
        fits = [i for i, (lo, hi) in enumerate(self.targets) if lo <= self.u and self.v <= hi]
        if len(fits) == 1:
            return PaulsonResult(fits[0], n, False)
        if fits or n == config.horizon:
            return self.fall_back()
        return None

    def fall_back(self):
        """The S_n/n decision after the observations seen so far."""
        decision = classify_by_mean(self.s / self.n, self.config.thresholds)
        return PaulsonResult(int(decision), self.n, True)


def paper_direct(observations, config):
    """The paper's direct rule on one path given as an array."""
    rule = PaperDirect(config)
    for x in observations[: config.horizon].tolist():
        result = rule.observe(x)
        if result is not None:
            return result
    return rule.fall_back()


def dealt_paths(theta, config, seed, reps):
    """The rows ``classify_paths`` must return, and each path's observations.

    Paths go in groups of GROUP.  The pass of the group whose first path
    is ``first`` that starts at observation count c draws
    ``standard_normal((live, size))`` from the Philox stream keyed
    ``[seed, first]`` at counter ``[0, c, 0, 0]``, adds theta, and deals
    row i to the i-th live path by index.  Blocks end at observations 16,
    32, 64, 128 and CHUNK, then every CHUNK, and at the horizon.  Returns
    ``(rows, observations)``: one ``(decision, stop_n, fallback_used)``
    per path, and every observation it was dealt, as an array.
    """
    rows, observations = [], []
    for first in range(0, reps, GROUP):
        paths = min(GROUP, reps - first)
        rules = [PaperDirect(config) for _ in range(paths)]
        results = [None] * paths
        dealt = [[] for _ in range(paths)]
        key = np.array([seed, first], dtype=np.uint64)
        count = 0
        while None in results:
            live = [i for i, result in enumerate(results) if result is None]
            size = min(max(count, 16), CHUNK, config.horizon - count)
            rng = np.random.Generator(np.random.Philox(key=key, counter=[0, count, 0, 0]))
            block = theta + rng.standard_normal((len(live), size))
            for i, row in zip(live, block.tolist()):
                dealt[i] += row
                for x in row:
                    results[i] = rules[i].observe(x)
                    if results[i] is not None:
                        break
            count += size
        rows += [(r.decision, r.stop_n, r.fallback_used) for r in results]
        observations += [np.array(path) for path in dealt]
    return rows, observations
