"""Command-line front end: boundary calibration, data analysis, simulation.

Four subcommands share one configuration style: an optional flat
``key = value`` file (``#`` comments) whose values are overridden by
command-line flags.  Unknown keys are rejected.  Each key is declared
once, in ``COMMANDS``; its flag, its config-file spelling, its checks and
its default all derive from that declaration, so a key accepts the same
text and fails with the same message either way.  Every run writes its
resolved configuration next to the output file (``<out>.meta.txt``):
each key as given, or its default when it has one, so any result can be
reproduced from its sidecar alone.  ``boundary`` adds ``achieved``: each
level's crossing probability on the doubled grid, in ``rho`` order.

Exit status: 0 on success, 2 for configuration errors (bad keys, bad
values, malformed input files), 1 for runtime failures (calibration
breakdown, unwritable output).  Floats are written with ``repr`` so
parsing the CSV back recovers them bit for bit.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import math
import os
import sys
from dataclasses import dataclass
from importlib import resources
from typing import Any, Callable, Iterable, Sequence

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
# run_paulson_direct, paulson_via_stepdown and simulate_observations are
# not called here; they stay bound because bench/tracing.py wraps them on
# this module.
from .paulson import (
    _ROUTES,
    PaulsonConfig,
    classify_paths,
    paulson_via_stepdown,
    run_paulson_direct,
    simulate_observations,
)
from .procedures import RULES, run_multistage
from .trial import ScenarioParams, check_seed

WORKERS_ENV = "STEPDOWN_WORKERS"


def fmt(value: object) -> str:
    """Render a CSV field: floats via repr (round-trip exact)."""
    if isinstance(value, float):
        return repr(value)
    return str(value)


# Key kinds: each converts a key's text and raises ValueError on bad input.


def _text(text: str) -> str:
    if not text:
        raise ValueError("must not be empty")
    return text


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"expected an integer, got {text!r}") from None


def _number(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def _boolean(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected true or false, got {text!r}")


def _schedule(text: str) -> SampleSchedule:
    return SampleSchedule(parse_int_list(text))


def _names(text: str) -> tuple[str, ...]:
    names = tuple(tok.strip() for tok in text.split(",") if tok.strip())
    if not names:
        raise ValueError(f"expected at least one name, got {text!r}")
    return names


def _pairs(text: str) -> list[tuple[int, int]]:
    """1-based ``a>b;...`` pairs as written; ``none`` is no pair."""
    pairs = text.split(";") if text != "none" else []
    try:
        return [(int(a), int(b)) for a, b in (pair.split(">") for pair in pairs)]
    except ValueError:
        raise ValueError(f"expected none or pairs a>b;..., got {text!r}") from None


@dataclass(frozen=True)
class Key:
    """One key, given as a ``--flag`` or a line of a config or family file.

    Every source goes through ``convert``.  A key without a ``default`` must
    be given unless it is ``optional``; ``env`` names an environment
    variable that, when set, replaces the default.
    """

    name: str
    help: str
    kind: Callable[[str], Any] = _text
    default: str | None = None
    choices: tuple[str, ...] = ()
    minimum: int | None = None
    flag: str = ""
    env: str = ""
    optional: bool = False

    def convert(self, text: str, source: str) -> Any:
        try:
            if self.choices and text not in self.choices:
                raise ValueError(f"expected one of {', '.join(self.choices)}, got {text!r}")
            value = self.kind(text)
            if self.minimum is not None and value < self.minimum:
                raise ValueError(f"must be at least {self.minimum}, got {value}")
        except ValueError as exc:
            raise ValueError(f"{source}: {exc}") from None
        return value

    def describe(self) -> str:
        notes = [self.help]
        if self.choices:
            notes.append("one of " + ", ".join(self.choices))
        if self.default is not None:
            notes.append("default " + (f"${self.env} or " if self.env else "") + self.default)
        return "; ".join(notes)


def _resolve(args: argparse.Namespace, keys: Sequence[Key]) -> tuple[dict[str, Any], dict[str, str]]:
    """Merge config-file values and flags (flags win), then convert every key.

    Returns the converted values and the text of every key that was given
    or has a default: the sidecar records exactly that text.
    """
    texts = parse_kv_text(_read_text(args.config, "config")) if args.config else {}
    unknown = f"unknown config key {{!r}} for subcommand {args.subcommand!r}"
    for key in keys:
        if getattr(args, key.name) is not None:
            texts[key.name] = getattr(args, key.name)
    return _convert(keys, texts, unknown), texts


def _convert(keys: Sequence[Key], texts: dict[str, str], unknown: str) -> dict[str, Any]:
    """Convert the text of every key; ``texts`` gains each default used.

    A name in ``texts`` that no key declares raises ``unknown.format(name)``.
    """
    names = [key.name for key in keys]
    for name in texts:
        if name not in names:
            raise ValueError(unknown.format(name))
    values: dict[str, Any] = {}
    for key in keys:
        source = f"key {key.name!r}"
        if key.name not in texts:
            if key.env in os.environ:
                texts[key.name], source = os.environ[key.env], key.env
            elif key.default is not None:
                texts[key.name] = key.default
            elif key.optional:
                continue
            else:
                raise ValueError(f"missing required key {key.name!r}")
        values[key.name] = key.convert(texts[key.name], source)
    return values


def _read_text(path: str, kind: str) -> str:
    # Line endings are kept as written, which the csv module needs.
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            return fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {kind} file {path}: {exc}") from exc


def _write_rows(path: str, header: Sequence[str], rows: Iterable[Sequence[str]]) -> None:
    # Each row builder formats its own fields, by fmt or an equivalent.
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


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
        if not (token.startswith("(") and token.endswith(")")):
            raise ValueError(f"scenario token {token!r} must look like (mu1,mu2,p[,rho12])")
        fields = parse_float_list(token[1:-1])
        if len(fields) not in (3, 4):
            raise ValueError(
                f"scenario token {token!r} needs 3 or 4 numbers, got {len(fields)}"
            )
        params.append(ScenarioParams(*fields))
    if not params:
        raise ValueError("no scenarios given")
    return params


def default_table_config() -> str:
    """Path-like handle to the bundled full-study configuration."""
    return str(resources.files("stepdown").joinpath("configs/table1.cfg"))


def _cmd_boundary(values: dict[str, Any]) -> dict[str, str]:
    schedule, levels, shape = values["schedule"], values["rho"], values["shape"]
    critical = calibrate_levels(schedule, levels, shape, grid_points=values["grid"])
    rows = [
        (fmt(n), fmt(float(rho)), fmt(float(value)), shape)
        for rho in levels
        for n, value in zip(schedule.analyses, critical.boundary(rho))
    ]
    _write_rows(values["out"], ("n", "rho", "critical_value", "shape"), rows)
    return {"achieved": ",".join(fmt(critical.achieved[rho]) for rho in levels)}


def _read_long_csv(
    path: str,
    kind: str,
    header: tuple[str, ...],
    parse: Callable[[list[str]], tuple[Any, int, float]],
    duplicate: str,
    missing: str,
    analyses: tuple[int, ...] | None = None,
) -> tuple[tuple[int, ...], dict[Any, tuple[float, ...]]]:
    """Read a CSV of one value per (key, n) row; ``parse(row)`` returns them.

    Every key needs a value at each of ``analyses`` (default: every n in
    the file).  ``duplicate`` and ``missing`` word those errors.  Returns
    the sizes and each key's values at them by first-seen key.
    """
    reader = csv.reader(io.StringIO(_read_text(path, kind), newline=""))
    first = next(reader, None)
    if first is None or tuple(h.strip() for h in first) != header:
        raise ValueError(f"{kind} file {path} must start with header '{','.join(header)}'")
    cells: dict[Any, dict[int, float]] = {}
    for row in filter(None, reader):
        if len(row) != len(header):
            raise ValueError(f"{kind} row {row!r} in {path} must have {len(header)} fields")
        try:
            key, n, value = parse(row)
        except ValueError as exc:
            raise ValueError(f"bad {kind} row {row!r} in {path}: {exc}") from None
        per_n = cells.setdefault(key, {})
        if n in per_n:
            raise ValueError(f"{duplicate.format(key=key, n=n)} in {path}")
        per_n[n] = value
    if not cells:
        raise ValueError(f"{kind} file {path} contains no data rows")
    if analyses is None:
        analyses = tuple(sorted({n for per_n in cells.values() for n in per_n}))
    for key, per_n in cells.items():
        ns = [n for n in analyses if n not in per_n]
        if ns:
            raise ValueError(f"{kind} file {path} " + missing.format(key=key, ns=ns))
    table = {key: tuple(per_n[n] for n in analyses) for key, per_n in cells.items()}
    return analyses, table


def _read_statistics_csv(path: str) -> tuple[tuple[int, ...], dict[str, tuple[float, ...]]]:
    analyses, table = _read_long_csv(
        path, "statistics", ("hypothesis", "n", "statistic"),
        lambda row: (row[0].strip(), int(row[1]), float(row[2])),
        "duplicate statistic for hypothesis {key!r} at n={n}",
        "is missing hypothesis {key!r} at n={ns[0]}",
    )
    try:
        return SampleSchedule(analyses).analyses, table
    except ValueError as exc:
        raise ValueError(f"{exc} in {path}") from None


def _read_boundary_csv(path: str, analyses: tuple[int, ...]) -> CriticalFunction:
    shapes: dict[float, str] = {}

    def parse(row: list[str]) -> tuple[float, int, float]:
        rho, shape = float(row[1]), row[3].strip()
        if shape not in SHAPES:
            raise ValueError(f"shape {shape!r} is not one of {', '.join(SHAPES)}")
        if shapes.setdefault(rho, shape) != shape:
            raise ValueError(f"level {rho} mixes shapes {shapes[rho]} and {shape}")
        return rho, int(row[0]), float(row[2])

    _analyses, table = _read_long_csv(
        path, "boundary", ("n", "rho", "critical_value", "shape"), parse,
        "duplicate critical value for level {key!r} at n={n}",
        "lacks critical values at n={ns} for level {key}",
        analyses,
    )
    try:
        return CriticalFunction(analyses, table)
    except ValueError as exc:
        raise ValueError(f"{exc} in {path}") from None


# The keys of the family file ``analyze --family`` reads, converted as
# the subcommands' keys are.
_FAMILY_KEYS = (
    Key("k", "number of hypotheses", _integer, minimum=1),
    Key("labels", "hypothesis names in family order", _names, optional=True),
    Key("contains_complement", "pairs a>b: b contains the complement of a", _pairs, default="none"),
    Key("closed_monotone", "closed family, monotone statistics", _boolean, default="false"),
)


def _read_family(path: str, labels: tuple[str, ...]) -> tuple[HypothesisFamily, tuple[str, ...]]:
    """The family a file describes, and the statistics' hypotheses in its order.

    A family that sets ``labels`` is matched with the statistics by label,
    and the hypotheses take its order; one that does not, by position.
    """
    text = _read_text(path, "family")
    try:
        values = _convert(_FAMILY_KEYS, parse_kv_text(text), "unknown family key {!r}")
        k, pairs = values["k"], values["contains_complement"]
        for a, b in pairs:
            if not (1 <= a <= k and 1 <= b <= k):
                raise ValueError(f"key 'contains_complement': pair {a}>{b} is out of range for k={k}")
        rel = [[(a, b) in pairs for b in range(1, k + 1)] for a in range(1, k + 1)]
        family = HypothesisFamily(k, values.get("labels", ()), rel, values["closed_monotone"])
        if k != len(labels):
            raise ValueError(f"family has {k} hypotheses but statistics cover {len(labels)}")
        if "labels" in values and set(family.labels) != set(labels):
            raise ValueError(
                f"family labels {','.join(family.labels)} do not match "
                f"the statistics hypotheses {','.join(labels)}"
            )
    except ValueError as exc:
        raise ValueError(f"{exc} in family file {path}") from None
    return family, family.labels if "labels" in values else labels


def _cmd_analyze(values: dict[str, Any]) -> None:
    analyses, table = _read_statistics_csv(values["statistics"])
    critical = _read_boundary_csv(values["boundary"], analyses)
    alpha, rule = values["alpha"], values["variant"]
    labels = tuple(table)
    if "family" in values:
        family, labels = _read_family(values["family"], labels)
        if rule == "closed" and not family.closed_monotone:
            raise ValueError(
                "the closed variant requires key 'closed_monotone' = true "
                f"in family file {values['family']}"
            )
    elif rule == "closed":
        raise ValueError(
            "the closed variant requires --family (config key 'family'): a closed_monotone family"
        )
    else:
        family = HypothesisFamily.simple(len(labels), labels)
    try:
        paths = StatisticPaths(analyses=analyses, values=[table[label] for label in labels])
    except ValueError as exc:
        raise ValueError(f"{exc} in {values['statistics']}") from None
    result = run_multistage(paths, family, critical.schedule, critical, alpha, rule)
    columns = (labels, result.decisions, result.decision_stage, result.endpoint_final_n)
    rows = zip(*(map(fmt, column) for column in columns))
    _write_rows(values["out"], ("hypothesis", "decision", "stage", "final_n"), rows)


# The simulate CSV: one (column, value of a summary) pair per column.
_SUMMARY_COLUMNS: tuple[tuple[str, Callable[[SimulationSummary], object]], ...] = (
    ("scenario", lambda s: s.spec.params.label()),
    ("procedure", lambda s: s.spec.procedure),
    ("EM", lambda s: s.em),
    ("se_EM", lambda s: s.em_se),
    ("prej1", lambda s: s.p_reject(0)),
    ("se1", lambda s: s.p_reject_se(0)),
    ("prej2", lambda s: s.p_reject(1)),
    ("se2", lambda s: s.p_reject_se(1)),
    ("prej3", lambda s: s.p_reject(2)),
    ("se3", lambda s: s.p_reject_se(2)),
    ("fwe", lambda s: "NA" if s.fwe is None else s.fwe),
    ("se_fwe", lambda s: "NA" if s.fwe_se is None else s.fwe_se),
    ("replicates", lambda s: s.replicates),
    ("seed", lambda s: s.spec.master_seed),
)


def _cmd_simulate(values: dict[str, Any]) -> None:
    procedures, schedule, alpha = values["procedures"], values["schedule"], values["alpha"]
    specs = [
        ScenarioSpec(
            params=params,
            schedule=schedule,
            procedure=proc,
            alpha=alpha,
            replicates=values["reps"],
            master_seed=values["seed"],
            continuity_correction=values["continuity_correction"],
        )
        for params in values["scenarios"]
        for proc in procedures
    ]
    # One calibration serves every cell: a level's boundary does not
    # depend on the other levels calibrated with it.
    levels = needed_levels(procedures, alpha)
    critical = (
        calibrate_levels(schedule, levels, values["shape"], grid_points=values["grid"])
        if levels
        else None
    )
    summaries = run_scenario_parallel(specs, workers=values["workers"], critical=critical)
    rows = [[fmt(value(summary)) for _, value in _SUMMARY_COLUMNS] for summary in summaries]
    _write_rows(values["out"], [name for name, _ in _SUMMARY_COLUMNS], rows)


def _cmd_paulson(values: dict[str, Any]) -> None:
    config = PaulsonConfig(
        thresholds=values["thresholds"],
        delta=values["delta"],
        critical_value=values["critical_value"],
        horizon=values["horizon"],
    )
    reps = values["reps"]
    decision, stop_n, fallback = classify_paths(
        values["theta"], config, values["seed"], reps, values["method"]
    )
    # Each column formatted once: ints by str, flags as false/true by lookup.
    flag = ("false", "true").__getitem__
    rows = list(
        zip(map(str, decision.tolist()), map(str, stop_n.tolist()), map(flag, fallback.tolist()))
    )
    counts = np.bincount(decision, minlength=config.k)
    freqs = ";".join(repr(int(counts[i]) / reps) for i in range(config.k))
    rows.append(("summary", fmt(int(stop_n.sum()) / reps), freqs))
    _write_rows(values["out"], ("decision", "stop_n", "fallback_used"), rows)


_OUT = Key("out", "output CSV path")
_ALPHA = Key("alpha", "familywise level", lambda text: check_alpha(_number(text)), default="0.05")
_SHAPE = Key("shape", "boundary shape", choices=SHAPES, default="flat")
_GRID = Key("grid", "integration points on the narrowest look's grid",
            lambda text: _check_grid_points(_integer(text)), default="512")
_SEED = Key("seed", "master seed in [0, 2**64)", lambda text: check_seed(_integer(text)),
            default="1")

# Subcommand -> (help, handler, keys).  The handlers look the package
# functions they call up as module globals at call time, so a tracer can
# wrap them on this module.  A handler may return what the run found, for
# the sidecar.
COMMANDS: dict[str, tuple[str, Callable[[dict[str, Any]], dict | None], tuple[Key, ...]]] = {
    "boundary": (
        "calibrate group-sequential critical values to CSV",
        _cmd_boundary,
        (
            Key("schedule", "analysis sizes, e.g. 26,29,35", _schedule),
            Key(
                "rho",
                "crossing probabilities, e.g. 0.05 or 0.05,0.025",
                lambda text: _check_levels(parse_float_list(text)),
            ),
            _SHAPE,
            _GRID,
            _OUT,
        ),
    ),
    "analyze": (
        "run the multistage procedure on staged statistics",
        _cmd_analyze,
        (
            Key("statistics", "CSV of hypothesis,n,statistic"),
            Key("boundary", "CSV from the boundary subcommand"),
            _ALPHA,
            Key("variant", "stage-level rule", choices=RULES, default="holm"),
            Key("family", "family description file (key = value lines)", optional=True),
            _OUT,
        ),
    ),
    "simulate": (
        "Monte Carlo evaluation of the procedures",
        _cmd_simulate,
        (
            Key("scenarios", "tokens like (0,0,.5) (0,.5,.75,.75)", parse_scenarios),
            # ScenarioSpec rejects an unknown procedure before anything runs.
            Key("procedures", "comma list from " + ",".join(PROCEDURES), _names,
                default="MultH", flag="--procedure"),
            Key("schedule", "analysis sizes", _schedule, default="26,29,35"),
            _ALPHA,
            _SHAPE,
            Key("reps", "replicates per cell", _integer, default="50000", minimum=1),
            _SEED,
            _GRID,
            Key("continuity_correction", "half-count correction on the binary endpoint",
                _boolean, default="false"),
            Key("workers", "worker processes", _integer, default="1", minimum=1, env=WORKERS_ENV),
            _OUT,
        ),
    ),
    "paulson": (
        "sequential classification of a normal mean",
        _cmd_paulson,
        (
            Key("thresholds", "interval cutpoints, e.g. 0,1,2", parse_float_list),
            Key("delta", "target widening", _number),
            Key("critical_value", "evidence threshold per one-sided test", _number),
            Key("theta", "true mean", _number),
            Key("reps", "simulated paths", _integer, default="10000", minimum=1),
            _SEED,
            Key("horizon", "max observations per path", _integer, default="100000", minimum=1),
            Key("method", "implementation route", choices=tuple(_ROUTES), default="direct"),
            _OUT,
        ),
    ),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``stepdown`` parser, built once per process from the static ``COMMANDS``."""
    parser = argparse.ArgumentParser(
        prog="stepdown",
        description=(
            "Multistage step-down multiple testing: boundary calibration, "
            "data analysis, trial simulation, sequential classification."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help_text, _handler, keys) in COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        command.add_argument("--config", help="flat key = value config file")
        for key in keys:
            flag = key.flag or "--" + key.name.replace("_", "-")
            command.add_argument(flag, dest=key.name, help=key.describe())
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    _help, handler, keys = COMMANDS[args.subcommand]
    try:
        values, texts = _resolve(args, keys)
        found = handler(values) or {}
        _write_sidecar(values["out"], args.subcommand, {**texts, **found})
    except ValueError as exc:
        print(f"stepdown {args.subcommand}: {exc}", file=sys.stderr)
        return 2
    except (OSError, CalibrationError, GridError) as exc:
        print(f"stepdown {args.subcommand}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
