"""The four benchmark workloads: set-up, one timed round, and checks.

A workload's ``setup`` makes its inputs from the seed, ``round`` runs
one fixed batch of operations through the package's public entry points
and returns how many it attempted and how many failed, and ``check``
compares the outputs with the independent references in
``reference.py``.  Every round of one run repeats the same operations on
the same inputs, so rounds can be timed against each other and their
outputs must agree byte for byte.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np
from scipy import special

import reference as ref
import stepdown.boundary
import stepdown.cli
import stepdown.paulson
import stepdown.procedures
from stepdown import HypothesisFamily, PaulsonConfig, SampleSchedule, StatisticPaths

ALPHA = 0.05
CAL_TOL = 1e-4  # the tolerance calibrate_levels and crossing_probability check against


def _read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _parse_cfg(path: str) -> dict[str, str]:
    entries = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            key, value = line.split("=", 1)
            entries[key.strip()] = value.strip()
    return entries


def _scenarios(text: str) -> dict[str, tuple[float, ...]]:
    out = {}
    for token in text.split():
        fields = tuple(float(x) for x in token.strip("()").split(","))
        out[token] = fields if len(fields) == 4 else fields + (0.0,)
    return out


class Workload:
    name = ""
    KERNEL = "interpreter"  # the clock kernel that resembles the workload's work

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work
        self.outputs: bytes | None = None
        self.failures: list[str] = []

    def keep(self, outputs: bytes) -> None:
        """Record one round's outputs; every later round must repeat them."""
        if self.outputs is None:
            self.outputs = outputs
        elif outputs != self.outputs:
            self.failures.append(f"{self.name}: a repeated round wrote different outputs")


class Sweep(Workload):
    """``stepdown simulate`` on the bundled table1.cfg at reduced replicates."""

    name = "sweep"
    REPS = 600

    def setup(self) -> None:
        self.config = stepdown.cli.default_table_config()
        cfg = _parse_cfg(self.config)
        self.scenarios = _scenarios(cfg["scenarios"])
        self.procedures = cfg["procedures"].split(",")
        self.schedule = tuple(int(n) for n in cfg["schedule"].split(","))
        self.shape = cfg["shape"]
        self.alpha = float(cfg["alpha"])
        self.out = self.work / "sweep.csv"
        self.argv = [
            "simulate", "--config", self.config, "--reps", str(self.REPS),
            "--seed", str(self.seed), "--workers", "1", "--out", str(self.out),
        ]

    def round(self) -> tuple[int, int]:
        ops = len(self.scenarios) * len(self.procedures) * self.REPS
        status = stepdown.cli.main(self.argv)
        return ops, (0 if status == 0 else ops)

    def after_round(self) -> None:
        self.keep(self.out.read_bytes())

    def check(self) -> list[str]:
        bad = []
        rows = {(r["scenario"], r["procedure"]): r for r in _read_csv(self.out)}
        reps = self.REPS
        if len(rows) != len(self.scenarios) * len(self.procedures):
            return [f"sweep: expected {len(self.scenarios) * len(self.procedures)} rows, got {len(rows)}"]
        sup = self.schedule[-1]
        k = 3
        b = ref.calibrate_boundary(self.schedule, self.alpha / k, self.shape)
        for label, (mu1, mu2, p, _rho12) in self.scenarios.items():
            truth = (mu1 <= 0.0, mu2 <= 0.0, p <= 0.5)
            for proc in self.procedures:
                row = rows[(label, proc)]
                em = float(row["EM"])
                if int(row["replicates"]) != reps:
                    bad.append(f"sweep {label} {proc}: {row['replicates']} replicates, not {reps}")
                if any(truth):
                    count = round(float(row["fwe"]) * reps)
                    if ref.upper_tail(count, reps, self.alpha) < ref.TAIL_P:
                        bad.append(f"sweep {label} {proc}: FWE {row['fwe']} exceeds alpha {self.alpha}")
                elif row["fwe"] != "NA":
                    bad.append(f"sweep {label} {proc}: FWE reported with no true null")
                if proc == "H":
                    if em != k * sup or float(row["se_EM"]) != 0.0:
                        bad.append(f"sweep {label} H: EM {em} is not {k * sup}")
                    continue
                if not k * self.schedule[0] <= em <= k * sup:
                    bad.append(f"sweep {label} {proc}: EM {em} outside [{k * self.schedule[0]}, {k * sup}]")
                if proc != "Mult":
                    continue
                # Under Mult every endpoint meets the alpha/k boundary on
                # its own, so each one's rejection probability and
                # stopping size follow from its own walk.
                ends = [
                    ref.gaussian_endpoint(self.schedule, b, mu1),
                    ref.gaussian_endpoint(self.schedule, b, mu2),
                    ref.binary_endpoint(self.schedule, b, p),
                ]
                for i, (prej, _mean, _var) in enumerate(ends):
                    count = round(float(row[f"prej{i + 1}"]) * reps)
                    if ref.count_tail(count, reps, prej) < ref.TAIL_P:
                        bad.append(
                            f"sweep {label} Mult: P(reject H{i + 1}) {count / reps} "
                            f"against reference {prej:.4f}"
                        )
                em_ref = sum(e[1] for e in ends)
                sd_bound = sum(math.sqrt(e[2]) for e in ends)  # Cauchy-Schwarz
                if abs(em - em_ref) > ref.TAIL_Z * sd_bound / math.sqrt(reps) + 1e-9:
                    bad.append(f"sweep {label} Mult: EM {em} against reference {em_ref:.3f}")
        return bad + self._worker_check()

    def _worker_check(self) -> list[str]:
        """One and two workers must write byte-identical CSVs (not timed)."""
        texts = []
        for workers in (1, 2):
            out = self.work / f"workers{workers}.csv"
            status = stepdown.cli.main([
                "simulate", "--scenarios", "(0,.5,.75,.75)", "--procedure", "H,Mult,MultH",
                "--reps", "40", "--seed", str(self.seed), "--workers", str(workers),
                "--out", str(out),
            ])
            if status != 0:
                return [f"sweep: simulate with {workers} workers exited {status}"]
            texts.append(out.read_bytes())
        return [] if texts[0] == texts[1] else ["sweep: 1 and 2 workers wrote different CSVs"]


class Calibrate(Workload):
    """``stepdown boundary`` on seeded schedules, verified by crossing_probability."""

    name = "calibrate"
    KERNEL = "stream"
    LEVELS = tuple(ALPHA / m for m in range(1, 6))

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 1])
        self.specs = []  # (analyses, shape, grid, levels)
        for looks in (1, 3, 5):
            # Each analysis adds 15-60% to the sample, which keeps the
            # increments well resolved on the default grid.
            sizes = [int(rng.integers(15, 41))]
            for _ in range(looks - 1):
                sizes.append(int(math.ceil(sizes[-1] * rng.uniform(1.15, 1.6))))
            for shape in ("flat", "obrien-fleming"):
                self.specs.append((tuple(sizes), shape, 512, self.LEVELS))
            if looks == 3:
                self.specs.append((tuple(sizes), "flat", 768, (ALPHA,)))
        self.verified: list[tuple[tuple[int, ...], str, float, np.ndarray]] = []

    def round(self) -> tuple[int, int]:
        ops = failed = 0
        verified = []
        for i, (analyses, shape, grid, levels) in enumerate(self.specs):
            out = self.work / f"boundary{i}.csv"
            ops += len(levels)
            status = stepdown.cli.main([
                "boundary", "--schedule", ",".join(map(str, analyses)),
                "--rho", ",".join(repr(r) for r in levels), "--shape", shape,
                "--grid", str(grid), "--out", str(out),
            ])
            if status != 0:
                failed += len(levels)
                continue
            table: dict[float, list[float]] = {}
            for row in _read_csv(out):
                table.setdefault(float(row["rho"]), []).append(float(row["critical_value"]))
            for rho in levels:
                bound = np.asarray(table[rho])
                try:
                    achieved = stepdown.boundary.crossing_probability(
                        analyses, bound, grid_points=grid, tol=CAL_TOL
                    )
                except stepdown.boundary.GridError:
                    failed += 1
                    continue
                if abs(achieved - rho) > CAL_TOL:
                    failed += 1
                verified.append((analyses, shape, rho, bound))
        self.verified = verified
        return ops, failed

    def after_round(self) -> None:
        self.keep(repr([(a, s, r, b.tolist()) for a, s, r, b in self.verified]).encode())

    def check(self) -> list[str]:
        bad = []
        for analyses, shape, rho, bound in self.verified:
            if len(analyses) == 1:
                gap = abs(float(bound[0]) - float(special.ndtri(1.0 - rho)))
                allowed = CAL_TOL / float(np.exp(-0.5 * bound[0] ** 2) / math.sqrt(2 * math.pi))
            else:
                gap = abs(1.0 - ref.below_probability(analyses, bound) - rho)
                allowed = CAL_TOL
            if gap > allowed:
                bad.append(f"calibrate {analyses} {shape} rho={rho:.5g}: off by {gap:.3g}")
            ratio = bound / ref.shape_multipliers(shape, analyses)
            if not np.allclose(ratio, ratio[0], rtol=1e-12):
                bad.append(f"calibrate {analyses} {shape}: boundary is not c * g(n)")
        return bad


class ClosedFwe(Workload):
    """One run_multistage(CLOSED) call per replicate on seeded closed families."""

    name = "closed-fwe"
    SCHEDULES = ((20, 30, 45), (26, 29, 35), (15, 25, 40))
    KS = (2, 3, 4, 5, 2, 3, 4, 5)
    REPS = 1250

    def setup(self) -> None:
        self.criticals = {
            s: stepdown.boundary.calibrate_levels(SampleSchedule(s), (ALPHA,), "flat")
            for s in self.SCHEDULES
        }
        self.families = []  # (family, schedule, j, stats, paths)
        for f, k in enumerate(self.KS):
            rng = np.random.default_rng([self.seed, 2, f])
            sched = self.SCHEDULES[f % len(self.SCHEDULES)]
            j = f % k  # the true mean sits on cut j: the least favourable null
            cuts = 0.7 * np.arange(1, k + 1)
            root_n = np.sqrt(np.asarray(sched, dtype=float))
            increments = rng.standard_normal((self.REPS, sched[-1])) + cuts[j]
            sums = np.cumsum(increments, axis=1)[:, [n - 1 for n in sched]]
            stats = (sums[:, None, :] - np.outer(cuts, sched)[None]) / root_n
            paths = [StatisticPaths(sched, stats[r]) for r in range(self.REPS)]
            family = HypothesisFamily(k=k, closed_monotone=True)
            self.families.append((family, SampleSchedule(sched), j, stats, paths))
        self.results: list[list[tuple[bool, ...]]] = []

    def round(self) -> tuple[int, int]:
        closed = stepdown.procedures.CLOSED
        results = []
        for family, schedule, _j, _stats, paths in self.families:
            critical = self.criticals[schedule.analyses]
            out = []
            for p in paths:
                out.append(
                    stepdown.procedures.run_multistage(p, family, schedule, critical, ALPHA, closed).rejected
                )
            results.append(out)
        self.results = results
        return len(self.KS) * self.REPS, 0

    def after_round(self) -> None:
        self.keep(repr(self.results).encode())

    def check(self) -> list[str]:
        bad = []
        hits_total = 0
        for f, ((family, schedule, j, stats, _paths), rejected) in enumerate(zip(self.families, self.results)):
            # No containment and level alpha at every stage: the family
            # errs exactly when the driftless walk j meets the boundary.
            bound = self.criticals[schedule.analyses].boundary(ALPHA)
            crossed = (stats[:, j, :] >= bound).any(axis=1)
            hit = np.array([any(r[j:]) for r in rejected])
            if not np.array_equal(hit, crossed):
                bad.append(
                    f"closed-fwe family {f}: {int((hit != crossed).sum())} replicates err "
                    "other than when the least favourable walk crosses"
                )
            hits = int(hit.sum())
            hits_total += hits
            if ref.count_tail(hits, self.REPS, ALPHA) < ref.TAIL_P:
                bad.append(f"closed-fwe family {f} (k={family.k}): FWE {hits / self.REPS} far from {ALPHA}")
        total = len(self.KS) * self.REPS
        if ref.count_tail(hits_total, total, ALPHA) < ref.TAIL_P:
            bad.append(f"closed-fwe: pooled FWE {hits_total / total} far from {ALPHA}")
        return bad


class Classify(Workload):
    """``stepdown paulson`` under both methods, short and long paths."""

    name = "classify"
    # (label, thresholds, delta, critical value, theta, paths per method)
    REGIMES = (
        ("short", (0.0, 1.0, 2.0), 0.15, 3.0, 1.5, 2000),
        ("long", (0.0, 1.0), 0.02, 40.0, 0.0, 1500),
    )
    SAMPLE = 100  # reference paths per regime
    SAMPLE_HORIZON = 4096

    def setup(self) -> None:
        self.calls = []  # (regime, method, out, argv, reps)
        for label, th, delta, crit, theta, reps in self.REGIMES:
            for method in ("direct", "stepdown"):
                out = self.work / f"{label}-{method}.csv"
                argv = [
                    "paulson", "--thresholds", ",".join(map(repr, th)), "--delta", repr(delta),
                    "--critical-value", repr(crit), "--theta", repr(theta), "--reps", str(reps),
                    "--seed", str(self.seed), "--method", method, "--out", str(out),
                ]
                self.calls.append((label, method, out, argv, reps))
        rng = np.random.default_rng([self.seed, 3])
        self.samples = {
            label: theta + rng.standard_normal((self.SAMPLE, self.SAMPLE_HORIZON))
            for label, _th, _d, _c, theta, _r in self.REGIMES
        }

    def round(self) -> tuple[int, int]:
        ops = failed = 0
        for _label, _method, _out, argv, reps in self.calls:
            ops += reps
            if stepdown.cli.main(argv) != 0:
                failed += reps
        return ops, failed

    def after_round(self) -> None:
        self.keep(b"".join(out.read_bytes() for _l, _m, out, _a, _r in self.calls))

    def check(self) -> list[str]:
        bad = []
        texts = {(label, method): out.read_bytes() for label, method, out, _a, _r in self.calls}
        for label, th, delta, crit, _theta, reps in self.REGIMES:
            if texts[(label, "direct")] != texts[(label, "stepdown")]:
                bad.append(f"classify {label}: direct and stepdown CSVs differ")
            if len(texts[(label, "direct")].splitlines()) != reps + 2:
                bad.append(f"classify {label}: expected {reps} path rows")
            config = PaulsonConfig(th, delta, crit, horizon=self.SAMPLE_HORIZON)
            for i, obs in enumerate(self.samples[label]):
                want = ref.classify_loop(obs, th, delta, crit, self.SAMPLE_HORIZON)
                for route in (stepdown.paulson.run_paulson_direct, stepdown.paulson.paulson_via_stepdown):
                    got = route(obs, config)
                    if (got.decision, got.stop_n, got.fallback_used) != want:
                        bad.append(
                            f"classify {label} path {i}: {route.__name__} gave "
                            f"{(got.decision, got.stop_n, got.fallback_used)}, loop gave {want}"
                        )
        return bad


WORKLOADS = {w.name: w for w in (Sweep, Calibrate, ClosedFwe, Classify)}
