"""Sequentially classify a normal mean into one of several intervals.

Thresholds 0 and 1 split the line into three targets, widened by delta
on each side.  The demo traces a few individual paths, then estimates
how often each interval is chosen and how long sampling runs for a
range of true means, comparing the direct evidence-interval rule with
its step-down reformulation (the two agree path by path, except at a
rounding tie of a one-sided test).  The
operating characteristics come from ``classify_paths``, which decides
a group of simulated paths per pass.
"""

import numpy as np

from stepdown.paulson import (
    PaulsonConfig,
    classify_paths,
    paulson_via_stepdown,
    run_paulson_direct,
)


def main():
    config = PaulsonConfig(
        thresholds=(0.0, 1.0), delta=0.15, critical_value=3.0, horizon=5000
    )
    names = ("below 0", "between", "above 1")

    print("single paths (true mean 0.5):")
    for rep in range(3):
        rng = np.random.Generator(np.random.Philox(key=[12, rep]))
        path = 0.5 + rng.standard_normal(config.horizon)
        direct = run_paulson_direct(path, config)
        staged = paulson_via_stepdown(path, config)
        assert (direct.stop_n, direct.decision) == (staged.stop_n, staged.decision)
        print(f"  path {rep}: chose '{names[direct.decision]}' "
              f"after {direct.stop_n} observations")

    reps = 1_000
    print(f"\noperating characteristics ({reps} paths per mean):")
    print(f"{'mean':>6} {'below 0':>9} {'between':>9} {'above 1':>9} {'avg n':>8}")
    for theta in (-0.3, 0.0, 0.2, 0.5, 0.8, 1.0, 1.3):
        # Seed 13: each group of 128 paths deals its passes from the
        # Philox stream keyed [13, the group's first path].  Every mean
        # gives a path the same first 16 normals; later ones depend on
        # which of the group's paths are still sampling.
        decision, stop_n, _fallback = classify_paths(theta, config, 13, reps)
        freq = np.bincount(decision, minlength=config.k) / reps
        print(f"{theta:6.2f} {freq[0]:9.3f} {freq[1]:9.3f} {freq[2]:9.3f} "
              f"{stop_n.sum() / reps:8.1f}")
    print("\nmeans on a threshold may take either adjacent label; means")
    print("outside the widened targets are classified reliably.")


if __name__ == "__main__":
    main()
