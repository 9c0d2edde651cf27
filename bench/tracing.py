"""In-memory span tracing of the stepdown layers, from outside the package.

Each public entry point a workload reaches is replaced, on the attribute
its caller looks it up by, with a wrapper that records a span (name,
start, end, parent) while tracing is on and calls straight through while
it is off.  Spans and counters are kept in lists and folded into
per-layer metrics only after the run, so the traced code pays for one
``perf_counter`` pair and a few list appends per call.

A span's self time is its duration minus the durations of its direct
children.  Calls nest strictly in one thread, so the self times of all
spans under a root add up to the root's duration exactly.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

ROOT_SPAN = "bench"

# Span names, in report order: one per traced public function.
SPANS = (
    "cli.main",
    "harness.run_scenario_parallel",
    "harness.run_scenario",
    "trial.generate_paths",
    "trial.RngStream.generator",
    "procedures.run_multistage",
    "procedures.holm_fixed",
    "boundary.calibrate_levels",
    "boundary.crossing_probability",
    "paulson.run_paulson_direct",
    "paulson.paulson_via_stepdown",
)

# Every per-layer metric a traced run reports, with its unit.
PER_LAYER = (
    [(f"{name}.calls", "count") for name in SPANS]
    + [(f"{name}.self_s", "s") for name in SPANS]
    + [
        ("procedures.run_multistage.stages", "count"),
        ("harness.replicates", "count"),
        ("boundary.calibrate_levels.levels", "count"),
        ("boundary.calibrate_levels.useful_ratio", "ratio"),
        ("paulson.observations_used_ratio", "ratio"),
        ("bench.self_s", "s"),
        ("trace.wall_s", "s"),
        ("trace.overhead_pct", "%"),
    ]
)


class Tracer:
    """Span and counter store; ``section`` tags everything recorded.

    Section 0 is the workload's set-up, section i >= 1 its i-th traced
    round.  Nothing is recorded while ``active`` is false.
    """

    def __init__(self) -> None:
        self.active = False
        self.section = 0
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.sections: list[int] = []
        self._stack: list[int] = []
        self.counts: defaultdict[tuple[int, str], float] = defaultdict(float)
        self.keys: defaultdict[int, set] = defaultdict(set)

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.sections.append(self.section)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    def add(self, key: str, amount: float) -> None:
        self.counts[(self.section, key)] += amount

    def run_root(self, section: int, body):
        """Run ``body()`` traced, under a root span tagged ``section``."""
        self.section = section
        self.active = True
        index = self.open(ROOT_SPAN)
        try:
            return body()
        finally:
            self.close(index)
            self.active = False

    def report(self, rounds: list[int]) -> dict[str, float]:
        """Per-layer metrics for one set-up plus one round, averaged over ``rounds``.

        Also returns ``_self_total_s``: the sum of every span's self time,
        which must equal ``trace.wall_s``.
        """
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        child_time = [0.0] * len(durations)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child_time[parent] += durations[i]
        per_round = []
        for rnd in rounds:
            keep = (0, rnd)
            calls: defaultdict[str, int] = defaultdict(int)
            self_s: defaultdict[str, float] = defaultdict(float)
            wall = 0.0
            for i, name in enumerate(self.names):
                if self.sections[i] not in keep:
                    continue
                calls[name] += 1
                self_s[name] += durations[i] - child_time[i]
                if self.parents[i] < 0:
                    wall += durations[i]
            counts = defaultdict(float)
            for (section, key), value in self.counts.items():
                if section in keep:
                    counts[key] += value
            distinct = len(self.keys[0] | self.keys[rnd])
            metrics = {f"{name}.calls": float(calls[name]) for name in SPANS}
            metrics.update({f"{name}.self_s": self_s[name] for name in SPANS})
            cal_calls = calls["boundary.calibrate_levels"]
            drawn = counts["paulson.observations_drawn"]
            metrics.update(
                {
                    "procedures.run_multistage.stages": counts["stages"],
                    "harness.replicates": counts["replicates"],
                    "boundary.calibrate_levels.levels": counts["levels"],
                    "boundary.calibrate_levels.useful_ratio": (
                        distinct / cal_calls if cal_calls else 0.0
                    ),
                    "paulson.observations_used_ratio": (
                        counts["stop_n"] / drawn if drawn else 0.0
                    ),
                    "bench.self_s": self_s[ROOT_SPAN],
                    "trace.wall_s": wall,
                    "_self_total_s": sum(self_s.values()),
                }
            )
            per_round.append(metrics)
        return {key: sum(m[key] for m in per_round) / len(per_round) for key in per_round[0]}


def _wrap(tracer: Tracer, owner, attr: str, name: str, after=None) -> None:
    original = getattr(owner, attr)

    @functools.wraps(original)
    def traced(*args, **kwargs):
        if not tracer.active:
            return original(*args, **kwargs)
        index = tracer.open(name)
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.close(index)
        if after is not None:
            after(args, kwargs, result)
        return result

    setattr(owner, attr, traced)


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point on the attribute its caller uses."""
    import stepdown.boundary
    import stepdown.cli
    import stepdown.harness
    import stepdown.procedures
    import stepdown.trial

    def stages(args, kwargs, result):
        tracer.add("stages", len(result.stages))

    def replicates(args, kwargs, result):
        tracer.add("replicates", result.replicates)

    def stop_n(args, kwargs, result):
        tracer.add("stop_n", result.stop_n)

    def calibrate(original):
        # Record the (schedule, levels, shape, grid) request before the
        # call, materialising ``levels`` in case it is an iterator.
        @functools.wraps(original)
        def with_key(schedule, levels, *args, **kwargs):
            levels = tuple(float(x) for x in levels)
            result = original(schedule, levels, *args, **kwargs)
            if tracer.active:
                analyses = tuple(int(n) for n in getattr(schedule, "analyses", schedule))
                shape = args[0] if args else kwargs.get("shape", "flat")
                grid = kwargs.get("grid_points", 512)
                tracer.keys[tracer.section].add((analyses, levels, shape, grid))
                tracer.add("levels", len(result.table))
            return result

        return with_key

    def counted_draws(original):
        @functools.wraps(original)
        def draws(*args, **kwargs):
            for block in original(*args, **kwargs):
                if tracer.active:
                    tracer.add("paulson.observations_drawn", block.size)
                yield block

        return draws

    for module in (stepdown.harness, stepdown.cli, stepdown.boundary):
        module.calibrate_levels = calibrate(module.calibrate_levels)
        _wrap(tracer, module, "calibrate_levels", "boundary.calibrate_levels")
    stepdown.cli.simulate_observations = counted_draws(stepdown.cli.simulate_observations)

    _wrap(tracer, stepdown.cli, "main", "cli.main")
    _wrap(tracer, stepdown.cli, "run_scenario_parallel", "harness.run_scenario_parallel")
    _wrap(tracer, stepdown.harness, "run_scenario", "harness.run_scenario", replicates)
    _wrap(tracer, stepdown.harness, "generate_paths", "trial.generate_paths")
    _wrap(tracer, stepdown.trial.RngStream, "generator", "trial.RngStream.generator")
    for module in (stepdown.harness, stepdown.procedures):
        _wrap(tracer, module, "run_multistage", "procedures.run_multistage", stages)
    _wrap(tracer, stepdown.harness, "holm_fixed", "procedures.holm_fixed")
    _wrap(tracer, stepdown.boundary, "crossing_probability", "boundary.crossing_probability")
    _wrap(tracer, stepdown.cli, "run_paulson_direct", "paulson.run_paulson_direct", stop_n)
    _wrap(tracer, stepdown.cli, "paulson_via_stepdown", "paulson.paulson_via_stepdown", stop_n)
