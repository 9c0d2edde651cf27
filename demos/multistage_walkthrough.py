"""Walk one synthetic trial through the multistage step-down procedure.

Three hypotheses are monitored on the schedule N = {26, 29, 35}.  The
first statistic is strong from the start, the second becomes strong
late, and the third never does.  The walkthrough prints each executed
stage and contrasts the step-down rule with the single-level variant
that keeps every threshold at the most conservative level.
"""

import numpy as np

from stepdown.boundary import calibrate_levels
from stepdown.core import HypothesisFamily, SampleSchedule, StatisticPaths
from stepdown.procedures import run_multistage

ALPHA = 0.05


def describe(result, labels):
    for record in result.stages:
        rejected = [labels[i] for i in record.rejected] or ["nothing"]
        print(f"  stage {record.stage}: n = {record.n}, "
              f"active = {[labels[i] for i in record.active]}, "
              f"rejected {', '.join(rejected)}")
    for i, label in enumerate(labels):
        print(f"  {label}: {result.decisions[i]} "
              f"(stage {result.decision_stage[i]}, n = {result.endpoint_final_n[i]})")
    print(f"  measurements consumed: {result.total_measurements}")


def main():
    schedule = SampleSchedule((26, 29, 35))
    labels = ("H1", "H2", "H3")
    paths = StatisticPaths(
        analyses=schedule.analyses,
        values=np.array([
            [2.60, 2.70, 2.80],   # strong immediately
            [1.80, 2.10, 2.25],   # moderate: clears alpha/2 but not alpha/3
            [0.40, 0.10, 0.60],   # never convincing
        ]),
    )
    family = HypothesisFamily(3, labels)
    critical = calibrate_levels(schedule, (ALPHA / 3.0, ALPHA / 2.0, ALPHA), "flat")

    print("step-down thresholds (relax as hypotheses fall):")
    result = run_multistage(paths, family, schedule, critical, ALPHA, "holm")
    describe(result, labels)

    print("\nsingle-level thresholds (always alpha / 3):")
    result = run_multistage(paths, family, schedule, critical, ALPHA, "mult")
    describe(result, labels)


if __name__ == "__main__":
    main()
