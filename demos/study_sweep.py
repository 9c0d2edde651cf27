"""Reduced-replicate sweep of the three-endpoint study grid.

Runs every scenario under the fixed-sample rule (H), the single-level
staged rule (Mult), and the staged step-down rule (MultH), then prints
expected measurements, per-hypothesis rejection rates, and familywise
error.  Replicates default to 4,000 so the sweep finishes in seconds;
pass a count on the command line for tighter estimates.
"""

import sys
import time

from stepdown.boundary import calibrate_levels
from stepdown.core import SampleSchedule
from stepdown.harness import ScenarioSpec, run_scenario_parallel
from stepdown.trial import ScenarioParams

ALPHA = 0.05
SCHEDULE = SampleSchedule((26, 29, 35))
GRID = (
    ScenarioParams(0.0, 0.0, 0.5),
    ScenarioParams(0.0, 0.0, 0.75),
    ScenarioParams(0.0, 0.65, 0.5),
    ScenarioParams(0.0, 0.5, 0.75),
    ScenarioParams(0.5, 0.5, 0.5),
    ScenarioParams(0.4, 0.4, 0.75),
    ScenarioParams(0.5, 0.5, 0.75),
    ScenarioParams(0.0, 0.5, 0.75, 0.75),
)


def main():
    reps = int(sys.argv[1]) if len(sys.argv) > 1 else 4_000
    critical = calibrate_levels(SCHEDULE, (ALPHA / 3.0, ALPHA / 2.0, ALPHA), "flat")
    start = time.perf_counter()

    header = f"{'scenario':>16} {'proc':>6} {'EM':>7} {'P(rej H1)':>10} " \
             f"{'P(rej H2)':>10} {'P(rej H3)':>10} {'FWE':>7}"
    print(f"{reps} replicates per cell\n\n{header}")
    procedures = ("H", "Mult", "MultH")
    specs = [
        ScenarioSpec(
            params=params,
            schedule=SCHEDULE,
            procedure=procedure,
            alpha=ALPHA,
            replicates=reps,
            master_seed=1,
        )
        for params in GRID
        for procedure in procedures
    ]
    # One run draws each block of replicates once for every cell.
    summaries = iter(run_scenario_parallel(specs, critical=critical))
    for params in GRID:
        for procedure in procedures:
            s = next(summaries)
            fwe = "NA" if s.fwe is None else f"{100 * s.fwe:6.2f}%"
            print(f"{params.label():>16} {procedure:>6} {s.em:7.2f} "
                  f"{100 * s.p_reject(0):9.2f}% {100 * s.p_reject(1):9.2f}% "
                  f"{100 * s.p_reject(2):9.2f}% {fwe:>7}")
        print()
    print(f"elapsed: {time.perf_counter() - start:.1f}s")


if __name__ == "__main__":
    main()
