"""Benchmark the stepdown package end to end and layer by layer.

Run from the root of a checkout:

    python3 bench/run.py --workload sweep --seed 1 --seconds 12 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 12 --trace 0

One run sets the workload up three times (a fresh-interpreter import of
``stepdown`` plus input generation; ``setup_s`` is the median), runs one
untimed warm-up round, repeats whole rounds for ``--seconds``
(``norm_ops_per_s`` is the median over rounds), records the process's
peak resident memory, and then checks the outputs against references
computed apart from the package.  Times are in nominal seconds, corrected
for the host's drifting speed (see ``clock.py``).  With ``--trace 1`` it
instead alternates untraced and traced rounds and reports per-layer
metrics (see ``tracing.py``) for one set-up plus one round.
``--workload all`` runs each workload in turn in its own process.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 when every check passed, 1 when a check failed and 2 when the package
source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from clock import SpeedClock

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
NAMES = ("sweep", "calibrate", "closed-fwe", "classify")
SETUPS = 3

IMPORT_PROBE = """
import sys
sys.path[:0] = sys.argv[1:3]
from clock import SpeedClock
with SpeedClock() as clock:
    import stepdown
print(clock.nominal)
"""


def import_seconds() -> float:
    """Nominal time of ``import stepdown`` in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(BENCH), str(SRC)],
        capture_output=True, text=True, check=True, timeout=120, cwd=ROOT,
    )
    return float(done.stdout.split()[-1])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, seconds: float, tracer=None) -> dict:
    """Repeat whole rounds for ``seconds``; alternate tracing if a tracer is given."""
    plain, rates, raw, traced, traced_ids = [], [], [], [], []
    # The first round runs slower (lazy imports, allocator growth), so one
    # untimed round precedes the timed ones; its operations still count.
    attempted, failed = workload.round()
    workload.after_round()
    start = time.perf_counter()
    while True:
        trace_this = tracer is not None and len(plain) > len(traced)
        with SpeedClock(workload.KERNEL) as clock:
            if trace_this:
                ops, bad = tracer.run_root(len(traced) + 1, workload.round)
            else:
                ops, bad = workload.round()
        workload.after_round()
        attempted += ops
        failed += bad
        if trace_this:
            traced.append(clock.nominal)
            traced_ids.append(len(traced))
        else:
            plain.append(clock.nominal)
            rates.append((ops - bad) / clock.nominal)
            raw.append((ops - bad) / clock.wall)
        if time.perf_counter() - start >= seconds and (tracer is None or traced):
            break
    return {
        "attempted": attempted,
        "failed": failed,
        "norm_ops_per_s": statistics.median(rates),
        "raw_ops_per_s": statistics.median(raw),
        "plain_wall": statistics.median(plain),
        "traced_wall": statistics.median(traced) if traced else None,
        "traced_rounds": traced_ids,
    }


def run_one(args) -> int:
    if not (SRC / "stepdown" / "__init__.py").is_file():
        print(f"bench: no stepdown package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import stepdown

    if Path(stepdown.__file__).resolve().parent != SRC / "stepdown":
        print(f"bench: imported stepdown from {stepdown.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, work)
        metrics: dict[str, tuple[float, str]] = {}
        correct = True
        if args.trace:
            tracer = tracing.Tracer()
            tracing.install(tracer)
            tracer.run_root(0, workload.setup)
            result = measure(workload, args.seconds, tracer)
            layers = tracer.report(result["traced_rounds"])
            layers["trace.overhead_pct"] = 100.0 * (result["traced_wall"] / result["plain_wall"] - 1.0)
            self_total = layers.pop("_self_total_s")
            if abs(self_total - layers["trace.wall_s"]) > 1e-6 * layers["trace.wall_s"]:
                print(f"bench: self times sum to {self_total}, wall is {layers['trace.wall_s']}",
                      file=sys.stderr)
                correct = False
            for name, unit in tracing.PER_LAYER:
                metrics[name] = (layers[name], unit)
        else:
            setups = []
            for _ in range(SETUPS):
                imported = import_seconds()
                with SpeedClock() as clock:
                    workload.setup()
                setups.append(imported + clock.nominal)
            result = measure(workload, args.seconds)
            metrics["norm_ops_per_s"] = (result["norm_ops_per_s"], "ops/s")
            metrics["setup_s"] = (statistics.median(setups), "s")
            metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
        failures = workload.failures + workload.check()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    for line in failures:
        print(f"bench: FAILED {line}", file=sys.stderr)
    correct = correct and not failures
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:<11} {name:<40} {value:>16.6f} {unit}")
    print(f"{args.workload:<11} attempted {result['attempted']}  failed {result['failed']}  "
          f"correct {correct}  (uncorrected {result['raw_ops_per_s']:.6f} ops/s)")
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in NAMES:
        done = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        lines = done.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            print(f"bench: workload {name} exited {done.returncode} without a result", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]), flush=True)
        out = json.loads(lines[-1])
        correct = correct and out["correct"]
        attempted += out["attempted"]
        failed += out["failed"]
        metrics.update({f"{name}.{key}": value for key, value in out["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
