"""Command-line front end: boundary calibration, data analysis, simulation.

Four subcommands share one configuration style: an optional flat
``key = value`` file (``#`` comments) whose values are overridden by
command-line flags.  Unknown keys are rejected.  Every run writes its
fully resolved configuration next to the output file (``<out>.meta.txt``)
so any result can be reproduced from its sidecar alone.

Exit status: 0 on success, 2 for configuration errors (bad keys, bad
values, malformed input files), 1 for runtime failures (calibration
breakdown, unwritable output).  Floats are written with ``repr`` so
parsing the CSV back recovers them bit for bit.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from importlib import resources
from typing import Iterable, Sequence

import numpy as np

from .boundary import (
    SHAPES,
    CalibrationError,
    CriticalFunction,
    GridError,
    _check_grid_points,
    _check_levels,
    calibrate_levels,
)
from .core import (
    HypothesisFamily,
    SampleSchedule,
    StatisticPaths,
    check_alpha,
    parse_float_list,
    parse_int_list,
    parse_kv_text,
)
from .harness import (
    PROCEDURES,
    ScenarioSpec,
    SimulationSummary,
    needed_levels,
    run_scenario_parallel,
)
from .paulson import (
    PaulsonConfig,
    paulson_via_stepdown,
    run_paulson_direct,
    simulate_observations,
)
from .procedures import ProcedureVariant, run_multistage, stage_levels
from .trial import RngStream, ScenarioParams

WORKERS_ENV = "STEPDOWN_WORKERS"

# Parser attributes that are not configuration keys.
_NOT_KEYS = {"config", "handler", "subcommand"}


def fmt(value: object) -> str:
    """Render a CSV field: floats via repr (round-trip exact)."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _resolve(args: argparse.Namespace, subcommand: str) -> dict[str, str]:
    """Merge config-file values and flags; flags win; each key must name a flag."""
    known = vars(args).keys() - _NOT_KEYS
    resolved: dict[str, str] = {}
    if getattr(args, "config", None):
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                entries = parse_kv_text(fh.read())
        except OSError as exc:
            raise ValueError(f"cannot read config file {args.config}: {exc}") from exc
        for key, value in entries.items():
            if key not in known:
                raise ValueError(
                    f"unknown config key {key!r} for subcommand {subcommand!r}"
                )
            resolved[key] = value
    for key in known:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            resolved[key] = str(flag_value)
    return resolved


def _require(resolved: dict[str, str], key: str) -> str:
    if key not in resolved or resolved[key] == "":
        raise ValueError(f"missing required key {key!r}")
    return resolved[key]


def _boolean(text: str) -> bool:
    text = text.strip().lower()
    if text in ("true", "1", "yes", "on"):
        return True
    if text in ("false", "0", "no", "off"):
        return False
    raise ValueError(text)


_KINDS = {int: "an integer", float: "numeric", _boolean: "a boolean"}


def _get(resolved: dict[str, str], key: str, kind, default=None, *, minimum: int | None = None):
    """Convert ``resolved[key]`` with ``kind`` (int, float or _boolean).

    A missing key yields ``default``, or is an error when there is none.
    Every error names the key.
    """
    if key not in resolved:
        if default is None:
            raise ValueError(f"missing required key {key!r}")
        return default
    try:
        value = kind(resolved[key])
    except ValueError:
        raise ValueError(f"key {key!r} must be {_KINDS[kind]}, got {resolved[key]!r}") from None
    if minimum is not None and value < minimum:
        raise ValueError(f"key {key!r} must be at least {minimum}, got {value}")
    return value


def _write_rows(path: str, header: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(v) for v in row])


def _write_sidecar(out_path: str, subcommand: str, resolved: dict[str, str]) -> None:
    lines = [f"subcommand = {subcommand}"]
    lines.extend(f"{key} = {resolved[key]}" for key in sorted(resolved))
    with open(out_path + ".meta.txt", "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def parse_scenarios(text: str) -> list[ScenarioParams]:
    """Parse scenario tokens like ``(0,0,.5) (0,.5,.75,.75)``.

    Each token carries mu1, mu2, p, and optionally the Gaussian
    correlation.
    """
    tokens = [tok for tok in text.replace("(", " (").split() if tok]
    params: list[ScenarioParams] = []
    for token in tokens:
        inner = token.strip()
        if not (inner.startswith("(") and inner.endswith(")")):
            raise ValueError(f"scenario token {token!r} must look like (mu1,mu2,p[,rho12])")
        fields = parse_float_list(inner[1:-1])
        if len(fields) == 3:
            params.append(ScenarioParams(*fields))
        elif len(fields) == 4:
            params.append(ScenarioParams(fields[0], fields[1], fields[2], fields[3]))
        else:
            raise ValueError(
                f"scenario token {token!r} needs 3 or 4 numbers, got {len(fields)}"
            )
    if not params:
        raise ValueError("no scenarios given")
    return params


def default_table_config() -> str:
    """Path-like handle to the bundled full-study configuration."""
    return str(resources.files("stepdown").joinpath("configs/table1.cfg"))


def _cmd_boundary(args: argparse.Namespace) -> int:
    resolved = _resolve(args, "boundary")
    schedule = SampleSchedule(parse_int_list(_require(resolved, "schedule")))
    rho = _require(resolved, "rho")
    try:
        levels = _check_levels(parse_float_list(rho))
    except ValueError as exc:
        raise ValueError(f"key 'rho': {exc}") from None
    shape = resolved.get("shape", "flat")
    if shape not in SHAPES:
        raise ValueError(f"key 'shape' must be one of {SHAPES}, got {shape!r}")
    grid = _get(resolved, "grid", int, 512, minimum=1)
    out = _require(resolved, "out")

    critical = calibrate_levels(schedule, levels, shape, grid_points=grid)
    rows = []
    for rho in levels:
        bound = critical.boundary(rho)
        for n, value in zip(schedule.analyses, bound):
            rows.append((n, float(rho), float(value), shape))
    _write_rows(out, ("n", "rho", "critical_value", "shape"), rows)
    resolved.setdefault("shape", shape)
    resolved.setdefault("grid", str(grid))
    _write_sidecar(out, "boundary", resolved)
    return 0


def _read_statistics_csv(path: str) -> tuple[StatisticPaths, tuple[str, ...]]:
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip() for h in header] != ["hypothesis", "n", "statistic"]:
                raise ValueError(
                    f"statistics file {path} must start with header 'hypothesis,n,statistic'"
                )
            rows = [row for row in reader if row]
    except OSError as exc:
        raise ValueError(f"cannot read statistics file {path}: {exc}") from exc

    order: list[str] = []
    cells: dict[tuple[str, int], float] = {}
    ns: set[int] = set()
    for row in rows:
        if len(row) != 3:
            raise ValueError(f"statistics row {row!r} must have 3 fields")
        label = row[0].strip()
        try:
            n = int(row[1])
            value = float(row[2])
        except ValueError:
            raise ValueError(f"bad statistics row {row!r}") from None
        if label not in order:
            order.append(label)
        if (label, n) in cells:
            raise ValueError(f"duplicate statistic for hypothesis {label!r} at n={n}")
        cells[(label, n)] = value
        ns.add(n)
    if not order:
        raise ValueError(f"statistics file {path} contains no data rows")
    analyses = tuple(sorted(ns))
    values = np.empty((len(order), len(analyses)))
    for i, label in enumerate(order):
        for j, n in enumerate(analyses):
            if (label, n) not in cells:
                raise ValueError(
                    f"statistics file {path} is missing hypothesis {label!r} at n={n}"
                )
            values[i, j] = cells[(label, n)]
    return StatisticPaths(analyses=analyses, values=values), tuple(order)


def _read_boundary_csv(path: str, analyses: tuple[int, ...]) -> CriticalFunction:
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip() for h in header] != [
                "n",
                "rho",
                "critical_value",
                "shape",
            ]:
                raise ValueError(
                    f"boundary file {path} must start with header 'n,rho,critical_value,shape'"
                )
            rows = [row for row in reader if row]
    except OSError as exc:
        raise ValueError(f"cannot read boundary file {path}: {exc}") from exc

    table: dict[float, dict[int, float]] = {}
    shapes = set()
    for row in rows:
        if len(row) != 4:
            raise ValueError(f"boundary row {row!r} must have 4 fields")
        try:
            n = int(row[0])
            rho = float(row[1])
            value = float(row[2])
        except ValueError:
            raise ValueError(f"bad boundary row {row!r}") from None
        per_n = table.setdefault(rho, {})
        if n in per_n:
            raise ValueError(f"duplicate critical value for level {rho!r} at n={n}")
        per_n[n] = value
        shapes.add(row[3].strip())
    if not table:
        raise ValueError(f"boundary file {path} contains no data rows")
    full: dict[float, tuple[float, ...]] = {}
    for rho, per_n in table.items():
        missing = [n for n in analyses if n not in per_n]
        if missing:
            raise ValueError(
                f"boundary file {path} lacks critical values at n={missing} for level {rho}"
            )
        full[rho] = tuple(per_n[n] for n in analyses)
    shape = shapes.pop() if len(shapes) == 1 else "custom"
    return CriticalFunction.from_table(analyses, full, shape=shape)


def _cmd_analyze(args: argparse.Namespace) -> int:
    resolved = _resolve(args, "analyze")
    paths, labels = _read_statistics_csv(_require(resolved, "statistics"))
    critical = _read_boundary_csv(_require(resolved, "boundary"), paths.analyses)
    alpha = check_alpha(_get(resolved, "alpha", float, 0.05))
    variant_tag = resolved.get("variant", "holm")
    if variant_tag not in ("holm", "mult", "closed"):
        raise ValueError(
            f"key 'variant' must be one of ('holm', 'mult', 'closed'), got {variant_tag!r}"
        )
    if "family" in resolved:
        try:
            with open(resolved["family"], "r", encoding="utf-8") as fh:
                family = HypothesisFamily.from_text(fh.read())
        except OSError as exc:
            raise ValueError(f"cannot read family file {resolved['family']}: {exc}") from exc
        if family.k != paths.k:
            raise ValueError(
                f"family has {family.k} hypotheses but statistics cover {paths.k}"
            )
    else:
        family = HypothesisFamily.simple(paths.k, labels)

    schedule = SampleSchedule(paths.analyses)
    for level in stage_levels(variant_tag, alpha, family.k):
        try:
            critical.boundary(level)
        except KeyError:
            raise ValueError(
                f"boundary file lacks critical values for level {level!r}; "
                f"calibrate it with rho = {level!r}"
            ) from None

    result = run_multistage(
        paths, family, schedule, critical, alpha, ProcedureVariant(variant_tag)
    )
    out = _require(resolved, "out")
    rows = [
        (
            labels[i],
            result.decisions[i],
            result.decision_stage[i],
            result.endpoint_final_n[i],
        )
        for i in range(paths.k)
    ]
    _write_rows(out, ("hypothesis", "decision", "stage", "final_n"), rows)
    resolved.setdefault("alpha", fmt(alpha))
    resolved.setdefault("variant", variant_tag)
    _write_sidecar(out, "analyze", resolved)
    return 0


def _summary_row(summary: SimulationSummary) -> tuple[object, ...]:
    fwe = summary.fwe
    fwe_se = summary.fwe_se
    return (
        summary.spec.label,
        summary.spec.procedure,
        summary.em,
        summary.em_se,
        summary.p_reject(0),
        summary.p_reject_se(0),
        summary.p_reject(1),
        summary.p_reject_se(1),
        summary.p_reject(2),
        summary.p_reject_se(2),
        "NA" if fwe is None else fwe,
        "NA" if fwe_se is None else fwe_se,
        summary.replicates,
        summary.spec.master_seed,
    )


def _cmd_simulate(args: argparse.Namespace) -> int:
    resolved = _resolve(args, "simulate")
    scenarios = parse_scenarios(_require(resolved, "scenarios"))
    procedures_text = resolved.get("procedures", "MultH")
    procedures = tuple(tok.strip() for tok in procedures_text.split(",") if tok.strip())
    for proc in procedures:
        if proc not in PROCEDURES:
            raise ValueError(f"unknown procedure {proc!r}; expected one of {PROCEDURES}")
    schedule = SampleSchedule(parse_int_list(resolved.get("schedule", "26,29,35")))
    alpha = _get(resolved, "alpha", float, 0.05)
    shape = resolved.get("shape", "flat")
    if shape not in SHAPES:
        raise ValueError(f"key 'shape' must be one of {SHAPES}, got {shape!r}")
    reps = _get(resolved, "reps", int, 50_000, minimum=1)
    seed = _get(resolved, "seed", int, 1, minimum=0)
    grid = _get(resolved, "grid", int, 512, minimum=1)
    # Checked here too: with --procedure H alone nothing is calibrated.
    _check_grid_points(grid)
    cc = _get(resolved, "continuity_correction", _boolean, False)
    if "workers" in resolved:
        workers = _get(resolved, "workers", int, minimum=1)
    else:
        workers = _get({WORKERS_ENV: os.environ.get(WORKERS_ENV, "1")}, WORKERS_ENV, int, minimum=1)
    out = _require(resolved, "out")

    # One calibration serves every cell: a level's boundary does not
    # depend on the other levels calibrated with it.
    levels = needed_levels(procedures, alpha)
    critical = calibrate_levels(schedule, levels, shape, grid_points=grid) if levels else None
    specs = [
        ScenarioSpec(
            params=params,
            schedule=schedule,
            procedure=proc,
            alpha=alpha,
            replicates=reps,
            master_seed=seed,
            shape=shape,
            continuity_correction=cc,
            grid_points=grid,
        )
        for params in scenarios
        for proc in procedures
    ]
    summaries = run_scenario_parallel(specs, workers=workers, critical=critical)
    rows = [_summary_row(summary) for summary in summaries]
    _write_rows(
        out,
        (
            "scenario",
            "procedure",
            "EM",
            "se_EM",
            "prej1",
            "se1",
            "prej2",
            "se2",
            "prej3",
            "se3",
            "fwe",
            "se_fwe",
            "replicates",
            "seed",
        ),
        rows,
    )
    for key, value in (
        ("procedures", ",".join(procedures)),
        ("schedule", ",".join(str(n) for n in schedule.analyses)),
        ("alpha", fmt(alpha)),
        ("shape", shape),
        ("reps", str(reps)),
        ("seed", str(seed)),
        ("grid", str(grid)),
        ("continuity_correction", fmt(cc)),
        ("workers", str(workers)),
    ):
        resolved.setdefault(key, value)
    _write_sidecar(out, "simulate", resolved)
    return 0


def _cmd_paulson(args: argparse.Namespace) -> int:
    resolved = _resolve(args, "paulson")
    config = PaulsonConfig(
        thresholds=parse_float_list(_require(resolved, "thresholds")),
        delta=_get(resolved, "delta", float),
        critical_value=_get(resolved, "critical_value", float),
        horizon=_get(resolved, "horizon", int, 100_000, minimum=1),
    )
    theta = _get(resolved, "theta", float)
    reps = _get(resolved, "reps", int, 10_000, minimum=1)
    seed = _get(resolved, "seed", int, 1, minimum=0)
    method = resolved.get("method", "direct")
    if method not in ("direct", "stepdown"):
        raise ValueError(f"key 'method' must be 'direct' or 'stepdown', got {method!r}")
    out = _require(resolved, "out")
    run = run_paulson_direct if method == "direct" else paulson_via_stepdown

    decisions = np.zeros(config.k, dtype=int)
    stop_total = 0
    rows: list[tuple[object, ...]] = []
    for r in range(reps):
        gen = RngStream(seed, r).generator()
        result = run(simulate_observations(theta, config.horizon, gen), config)
        rows.append((result.decision, result.stop_n, result.fallback_used))
        decisions[result.decision] += 1
        stop_total += result.stop_n
    freqs = ";".join(repr(int(decisions[i]) / reps) for i in range(config.k))
    rows.append(("summary", stop_total / reps, freqs))
    _write_rows(out, ("decision", "stop_n", "fallback_used"), rows)
    for key, value in (
        ("horizon", str(config.horizon)),
        ("reps", str(reps)),
        ("seed", str(seed)),
        ("method", method),
    ):
        resolved.setdefault(key, value)
    _write_sidecar(out, "paulson", resolved)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stepdown",
        description=(
            "Multistage step-down multiple testing: boundary calibration, "
            "data analysis, trial simulation, sequential classification."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_boundary = sub.add_parser(
        "boundary", help="calibrate group-sequential critical values to CSV"
    )
    p_boundary.add_argument("--config", help="flat key = value config file")
    p_boundary.add_argument("--schedule", help="analysis sizes, e.g. 26,29,35")
    p_boundary.add_argument("--rho", help="crossing probabilities, e.g. 0.05 or 0.05,0.025")
    p_boundary.add_argument("--shape", choices=SHAPES, default=None, help="boundary shape")
    p_boundary.add_argument("--grid", type=int, default=None, help="integration grid points")
    p_boundary.add_argument("--out", help="output CSV path")
    p_boundary.set_defaults(handler=_cmd_boundary)

    p_analyze = sub.add_parser(
        "analyze", help="run the multistage procedure on staged statistics"
    )
    p_analyze.add_argument("--config", help="flat key = value config file")
    p_analyze.add_argument("--statistics", help="CSV of hypothesis,n,statistic")
    p_analyze.add_argument("--boundary", help="CSV from the boundary subcommand")
    p_analyze.add_argument("--alpha", type=float, default=None, help="familywise level")
    p_analyze.add_argument(
        "--variant", choices=("holm", "mult", "closed"), default=None, help="stage-level rule"
    )
    p_analyze.add_argument("--family", help="family description file (key = value lines)")
    p_analyze.add_argument("--out", help="output CSV path")
    p_analyze.set_defaults(handler=_cmd_analyze)

    p_sim = sub.add_parser("simulate", help="Monte Carlo evaluation of the procedures")
    p_sim.add_argument("--config", help="flat key = value config file")
    p_sim.add_argument("--scenarios", help="tokens like (0,0,.5) (0,.5,.75,.75)")
    p_sim.add_argument("--procedure", dest="procedures", help="comma list from H,Mult,MultH")
    p_sim.add_argument("--schedule", help="analysis sizes, e.g. 26,29,35")
    p_sim.add_argument("--alpha", type=float, default=None, help="familywise level")
    p_sim.add_argument("--shape", choices=SHAPES, default=None, help="boundary shape")
    p_sim.add_argument("--reps", type=int, default=None, help="replicates per cell")
    p_sim.add_argument("--seed", type=int, default=None, help="master seed")
    p_sim.add_argument("--grid", type=int, default=None, help="integration grid points")
    p_sim.add_argument(
        "--continuity-correction",
        dest="continuity_correction",
        choices=("true", "false"),
        default=None,
        help="half-count correction on the binary endpoint",
    )
    p_sim.add_argument(
        "--workers", type=int, default=None, help=f"worker processes (default ${WORKERS_ENV} or 1)"
    )
    p_sim.add_argument("--out", help="output CSV path")
    p_sim.set_defaults(handler=_cmd_simulate)

    p_paulson = sub.add_parser(
        "paulson", help="sequential classification of a normal mean"
    )
    p_paulson.add_argument("--config", help="flat key = value config file")
    p_paulson.add_argument("--thresholds", help="interval cutpoints, e.g. 0,1,2")
    p_paulson.add_argument("--delta", type=float, default=None, help="target widening")
    p_paulson.add_argument(
        "--critical-value", dest="critical_value", type=float, default=None,
        help="evidence threshold per one-sided test",
    )
    p_paulson.add_argument("--theta", type=float, default=None, help="true mean")
    p_paulson.add_argument("--reps", type=int, default=None, help="simulated paths")
    p_paulson.add_argument("--seed", type=int, default=None, help="master seed")
    p_paulson.add_argument("--horizon", type=int, default=None, help="max observations per path")
    p_paulson.add_argument(
        "--method", choices=("direct", "stepdown"), default=None, help="implementation route"
    )
    p_paulson.add_argument("--out", help="output CSV path")
    p_paulson.set_defaults(handler=_cmd_paulson)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"stepdown {args.subcommand}: {exc}", file=sys.stderr)
        return 2
    except (OSError, CalibrationError, GridError) as exc:
        print(f"stepdown {args.subcommand}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
