"""Steadiness of the benchmark: repeat each workload over several seeds.

Run from the root of a checkout:

    python3 bench/steady.py --runs 10
    python3 bench/steady.py --runs 5 --workloads classify --first-seed 101

Each run is ``bench/run.py`` with its own seed and the run length from
``BENCHMARK.json``.  For every end-to-end metric the report gives the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread, the distance between the quartiles as a share of the median,
next to the metric's bound.  A metric is steady when its spread is below
a third of its bound; ``setup_s`` has no spread rule, only a bound on
its median.  The share of failed operations must be the same in every
run.  The last line is a JSON summary.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary, steady = {}, True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {name: [] for name in bounds}
        shares, walls = set(), []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            t0 = time.perf_counter()
            done = subprocess.run(
                [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                stdout=subprocess.PIPE, text=True, cwd=ROOT,
            )
            walls.append(time.perf_counter() - t0)
            out = json.loads(done.stdout.strip().splitlines()[-1])
            if not out["correct"]:
                print(f"{workload} seed {seed}: checks failed", file=sys.stderr)
                steady = False
            shares.add(Fraction(out["failed"], out["attempted"]))
            for name in bounds:
                values[name].append(out["metrics"][name]["value"])
        if len(shares) != 1:
            print(f"{workload}: the failed share differs between runs: {shares}", file=sys.stderr)
            steady = False
        summary[workload] = {"run_wall_s_max": max(walls)}
        print(f"{workload}: {args.runs} runs, longest {max(walls):.1f} s")
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            ok = name == "setup_s" or spread < bounds[name] / 3.0
            steady = steady and ok
            summary[workload][name] = {
                "median": median, "q1": q1, "q3": q3, "spread": spread, "values": vals,
            }
            print(f"  {name:<12} median {median:14.6f}  q1 {q1:14.6f}  q3 {q3:14.6f}  "
                  f"spread {100 * spread:6.2f}%  bound {100 * bounds[name]:5.1f}%  "
                  f"{'ok' if ok else 'UNSTEADY'}")
    print(json.dumps({"steady": steady, "workloads": summary}))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
