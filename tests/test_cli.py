import csv
import os
import subprocess
import sys

import numpy as np
import pytest

import stepdown.boundary
import stepdown.cli
import stepdown.harness
from stepdown.boundary import calibrate_levels
from stepdown.cli import default_table_config, main, parse_scenarios
from stepdown.core import SampleSchedule, parse_kv_text
from stepdown.paulson import (
    PaulsonConfig,
    paulson_via_stepdown,
    run_paulson_direct,
    simulate_observations,
)
from stepdown.trial import RngStream, ScenarioParams


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_parse_scenarios():
    params = parse_scenarios("(0,0,.5) (0,.5,.75,.75)")
    assert params[0] == ScenarioParams(0.0, 0.0, 0.5)
    assert params[1] == ScenarioParams(0.0, 0.5, 0.75, 0.75)
    with pytest.raises(ValueError, match="3 or 4 numbers"):
        parse_scenarios("(1,2)")
    with pytest.raises(ValueError, match="must look like"):
        parse_scenarios("1,2,3")
    with pytest.raises(ValueError, match="no scenarios"):
        parse_scenarios("  ")


def test_boundary_subcommand(tmp_path):
    out = tmp_path / "bound.csv"
    code = main(
        [
            "boundary",
            "--schedule",
            "26,29,35",
            "--rho",
            "0.05,0.025",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    rows = read_csv(out)
    assert rows[0] == ["n", "rho", "critical_value", "shape"]
    assert len(rows) == 1 + 6
    critical = calibrate_levels(SampleSchedule((26, 29, 35)), (0.05, 0.025), "flat")
    expect = list(critical.boundary(0.05)) + list(critical.boundary(0.025))
    got = [float(r[2]) for r in rows[1:]]
    assert got == expect  # repr round-trip is exact
    meta = parse_kv_text((tmp_path / "bound.csv.meta.txt").read_text())
    assert meta["subcommand"] == "boundary"
    assert meta["shape"] == "flat"
    assert meta["grid"] == "512"


def _write_boundary(tmp_path, rho, name="bound.csv"):
    out = tmp_path / name
    code = main(
        ["boundary", "--schedule", "26,29,35", "--rho", rho, "--out", str(out)]
    )
    assert code == 0
    return out


def test_analyze_subcommand(tmp_path):
    bound = _write_boundary(tmp_path, "0.025,0.05")
    stats = tmp_path / "stats.csv"
    lines = ["hypothesis,n,statistic"]
    values = {"A": (3.0, 3.0, 3.0), "B": (0.0, 0.5, 1.0)}
    for label, row in values.items():
        for n, v in zip((26, 29, 35), row):
            lines.append(f"{label},{n},{v}")
    stats.write_text("\n".join(lines) + "\n")

    out = tmp_path / "decisions.csv"
    code = main(
        [
            "analyze",
            "--statistics",
            str(stats),
            "--boundary",
            str(bound),
            "--variant",
            "holm",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    rows = read_csv(out)
    assert rows[0] == ["hypothesis", "decision", "stage", "final_n"]
    assert rows[1] == ["A", "rejected", "1", "26"]
    assert rows[2][0] == "B"
    assert rows[2][1] == "accepted"


def test_analyze_missing_level(tmp_path, capsys):
    bound = _write_boundary(tmp_path, "0.05")  # holm with k=2 also needs 0.025
    stats = tmp_path / "stats.csv"
    stats.write_text(
        "hypothesis,n,statistic\nA,26,1.0\nA,29,1.0\nA,35,1.0\n"
        "B,26,1.0\nB,29,1.0\nB,35,1.0\n"
    )
    code = main(
        [
            "analyze",
            "--statistics",
            str(stats),
            "--boundary",
            str(bound),
            "--out",
            str(tmp_path / "d.csv"),
        ]
    )
    assert code == 2
    assert "lacks critical values" in capsys.readouterr().err


def test_simulate_worker_invariance(tmp_path):
    args = [
        "simulate",
        "--scenarios",
        "(0,.65,.5)",
        "--procedure",
        "MultH",
        "--reps",
        "120",
        "--seed",
        "5",
    ]
    out1 = tmp_path / "w1.csv"
    out2 = tmp_path / "w2.csv"
    assert main(args + ["--workers", "1", "--out", str(out1)]) == 0
    assert main(args + ["--workers", "2", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    rows = read_csv(out1)
    assert rows[0] == [
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
    ]
    assert len(rows) == 2
    assert rows[1][0] == "(0,.65,.5)"
    assert rows[1][12] == "120"
    meta = parse_kv_text((tmp_path / "w1.csv.meta.txt").read_text())
    assert meta["workers"] == "1"
    assert meta["reps"] == "120"


def test_simulate_rejects_bad_input(tmp_path, capsys):
    base = ["simulate", "--scenarios", "(0,0,.5)", "--out", str(tmp_path / "x.csv")]
    assert main(base + ["--procedure", "Bonf"]) == 2
    assert "unknown procedure" in capsys.readouterr().err
    assert main(base + ["--reps", "0"]) == 2
    assert "'reps'" in capsys.readouterr().err


def test_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("schedule = 26,29,35\nbogus = 1\n")
    code = main(["boundary", "--config", str(cfg), "--out", str(tmp_path / "b.csv")])
    assert code == 2
    assert "unknown config key 'bogus'" in capsys.readouterr().err


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "thresholds = 0\ndelta = 0.2\ncritical_value = 3\ntheta = 0.6\n"
        "reps = 40\nseed = 9\n# comment line\n"
    )
    out = tmp_path / "p.csv"
    code = main(["paulson", "--config", str(cfg), "--reps", "25", "--out", str(out)])
    assert code == 0
    rows = read_csv(out)
    assert rows[0] == ["decision", "stop_n", "fallback_used"]
    assert len(rows) == 1 + 25 + 1  # header, one row per path, summary
    assert rows[-1][0] == "summary"
    meta = parse_kv_text(out.with_suffix(".csv.meta.txt").read_text())
    assert meta["reps"] == "25"  # flag wins over the config file
    assert meta["seed"] == "9"


def test_paulson_methods_agree(tmp_path):
    base = [
        "paulson",
        "--thresholds",
        "0,1",
        "--delta",
        "0.15",
        "--critical-value",
        "2.5",
        "--theta",
        "0.5",
        "--reps",
        "30",
        "--seed",
        "3",
    ]
    out_d = tmp_path / "direct.csv"
    out_s = tmp_path / "stepdown.csv"
    assert main(base + ["--method", "direct", "--out", str(out_d)]) == 0
    assert main(base + ["--method", "stepdown", "--out", str(out_s)]) == 0
    assert read_csv(out_d) == read_csv(out_s)


@pytest.mark.parametrize("method", ["direct", "stepdown"])
def test_paulson_writes_the_one_path_loops_bytes(tmp_path, method):
    # 130 paths cross a path-group boundary; at a mean on a threshold,
    # horizon 300 makes some of them fall back after a partial second
    # block.
    config = PaulsonConfig((0.0, 1.0), 0.05, 20.0, horizon=300)
    theta, seed, reps = 0.0, 4, 130
    route = run_paulson_direct if method == "direct" else paulson_via_stepdown
    lines = ["decision,stop_n,fallback_used"]
    counts = [0] * config.k
    stop_total = 0
    for r in range(reps):
        observations = simulate_observations(theta, config.horizon, RngStream(seed, r).generator())
        result = route(observations, config)
        lines.append(f"{result.decision},{result.stop_n},{str(result.fallback_used).lower()}")
        counts[result.decision] += 1
        stop_total += result.stop_n
    freqs = ";".join(repr(c / reps) for c in counts)
    lines.append(f"summary,{stop_total / reps!r},{freqs}")
    assert any(line.endswith(",300,true") for line in lines)

    out = tmp_path / "p.csv"
    argv = [
        "paulson", "--thresholds", "0,1", "--delta", "0.05", "--critical-value", "20",
        "--theta", "0", "--seed", "4", "--reps", "130", "--horizon", "300",
        "--method", method, "--out", str(out),
    ]
    assert main(argv) == 0
    assert out.read_text() == "\n".join(lines) + "\n"


def test_unwritable_output_is_runtime_error(tmp_path, capsys):
    code = main(
        [
            "paulson",
            "--thresholds",
            "0",
            "--delta",
            "0.2",
            "--critical-value",
            "2",
            "--theta",
            "1",
            "--reps",
            "2",
            "--out",
            str(tmp_path / "missing" / "deep" / "p.csv"),
        ]
    )
    assert code == 1
    assert "p.csv" in capsys.readouterr().err


def test_bundled_study_config():
    path = default_table_config()
    assert os.path.exists(path)
    with open(path) as fh:
        entries = parse_kv_text(fh.read())
    assert "scenarios" in entries
    assert entries["reps"] == "50000"
    assert entries["seed"] == "1"
    scenarios = parse_scenarios(entries["scenarios"])
    assert len(scenarios) == 8
    rhos = [s.rho12 for s in scenarios]
    assert rhos.count(0.75) == 1  # one correlated case


def test_module_entry_point(tmp_path):
    out = tmp_path / "p.csv"
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "stepdown",
            "paulson",
            "--thresholds",
            "0",
            "--delta",
            "0.3",
            "--critical-value",
            "2",
            "--theta",
            "1.5",
            "--reps",
            "3",
            "--out",
            str(out),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()


def test_statistics_csv_validation(tmp_path, capsys):
    bound = _write_boundary(tmp_path, "0.05")
    bad = tmp_path / "bad.csv"
    bad.write_text("hypothesis,n,statistic\nA,26,1.0\nA,26,2.0\n")
    code = main(
        [
            "analyze",
            "--statistics",
            str(bad),
            "--boundary",
            str(bound),
            "--out",
            str(tmp_path / "d.csv"),
        ]
    )
    assert code == 2
    assert "duplicate statistic" in capsys.readouterr().err


@pytest.mark.parametrize("grid", ["3", "4097"])
def test_grid_size_is_a_configuration_error(tmp_path, capsys, grid):
    out = tmp_path / "b.csv"
    code = main(
        ["boundary", "--schedule", "26,29,35", "--rho", "0.05", "--grid", grid, "--out", str(out)]
    )
    assert code == 2
    assert "grid_points" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "rho, message",
    [
        ("0.05,0.05", "levels 0.05 and 0.05 name the same level"),
        ("0.05,2", "level must lie strictly between 0 and 1, got 2.0"),
    ],
)
def test_boundary_checks_every_level_first(tmp_path, capsys, monkeypatch, rho, message):
    def no_integration(*args):
        raise AssertionError("every level must be checked before integrating")

    monkeypatch.setattr(stepdown.boundary, "_crossing_recursion", no_integration)
    out = tmp_path / "b.csv"
    code = main(["boundary", "--schedule", "26,29,35", "--rho", rho, "--out", str(out)])
    assert code == 2
    assert f"key 'rho': {message}" in capsys.readouterr().err
    assert not out.exists()


def _analyze_with_boundary(tmp_path, boundary_text):
    bound = tmp_path / "bound.csv"
    bound.write_text("n,rho,critical_value,shape\n" + boundary_text)
    stats = tmp_path / "stats.csv"
    stats.write_text("hypothesis,n,statistic\nA,26,9.0\nA,29,9.0\nA,35,9.0\n")
    out = tmp_path / "d.csv"
    code = main(
        ["analyze", "--statistics", str(stats), "--boundary", str(bound), "--out", str(out)]
    )
    return code, out


def test_boundary_csv_rejects_nan(tmp_path, capsys):
    code, out = _analyze_with_boundary(
        tmp_path, "26,0.05,nan,flat\n29,0.05,nan,flat\n35,0.05,nan,flat\n"
    )
    assert code == 2
    assert "NaN" in capsys.readouterr().err
    assert not out.exists()


def test_boundary_csv_rejects_duplicate_rows(tmp_path, capsys):
    code, out = _analyze_with_boundary(
        tmp_path, "26,0.05,1.0,flat\n29,0.05,1.0,flat\n35,0.05,1.0,flat\n26,0.05,99.0,flat\n"
    )
    assert code == 2
    assert "duplicate critical value" in capsys.readouterr().err
    assert not out.exists()


# A valid pair of analyze inputs, two hypotheses and the two levels holm
# needs for them: the header line, then one line per (key, n) cell.
_READER_INPUTS = {
    "statistics": [
        "hypothesis,n,statistic",
        *(f"{h},{n},9.0" for h in "AB" for n in (26, 29, 35)),
    ],
    "boundary": [
        "n,rho,critical_value,shape",
        *(f"{n},{rho},1.0,flat" for rho in (0.025, 0.05) for n in (26, 29, 35)),
    ],
}
_N_COLUMN = {"statistics": 1, "boundary": 0}


def _with_field(line, column, text):
    fields = line.split(",")
    fields[column] = text
    return ",".join(fields)


_BREAK_READER_INPUT = {
    "header": lambda lines, which: ["bogus," + lines[0]] + lines[1:],
    "field count": lambda lines, which: lines[:2] + [lines[2] + ",extra"] + lines[3:],
    "non-numeric n": lambda lines, which: lines[:2]
    + [_with_field(lines[2], _N_COLUMN[which], "x")]
    + lines[3:],
    "non-numeric value": lambda lines, which: lines[:2]
    + [_with_field(lines[2], 2, "abc")]
    + lines[3:],
    "missing cell": lambda lines, which: lines[:-1],
    "no data rows": lambda lines, which: lines[:1],
    "duplicate row": lambda lines, which: lines + [lines[1]],
    "NaN value": lambda lines, which: lines[:2] + [_with_field(lines[2], 2, "nan")] + lines[3:],
}


def _analyze_inputs(tmp_path, broken=None, how=None):
    paths = {}
    for which, lines in _READER_INPUTS.items():
        if which == broken:
            lines = _BREAK_READER_INPUT[how](lines, which)
        paths[which] = tmp_path / f"{which}.csv"
        paths[which].write_text("\n".join(lines) + "\n")
    return paths


def test_analyze_reader_inputs_are_valid(tmp_path):
    paths = _analyze_inputs(tmp_path)
    out = tmp_path / "d.csv"
    argv = ["analyze", "--statistics", str(paths["statistics"]), "--boundary",
            str(paths["boundary"]), "--out", str(out)]
    assert main(argv) == 0
    assert read_csv(out)[1:] == [["A", "rejected", "1", "26"], ["B", "rejected", "1", "26"]]


@pytest.mark.parametrize("how", sorted(_BREAK_READER_INPUT) + ["unreadable"])
@pytest.mark.parametrize("which", sorted(_READER_INPUTS))
def test_analyze_reader_errors_name_the_file(tmp_path, capsys, which, how):
    if how == "unreadable":
        paths = _analyze_inputs(tmp_path)
        paths[which] = tmp_path / "absent" / f"{which}.csv"
    else:
        paths = _analyze_inputs(tmp_path, which, how)
    out = tmp_path / "d.csv"
    argv = ["analyze", "--statistics", str(paths["statistics"]), "--boundary",
            str(paths["boundary"]), "--out", str(out)]
    assert main(argv) == 2
    assert str(paths[which]) in capsys.readouterr().err
    assert not out.exists()


def _count_calibrations(monkeypatch):
    calls = []

    def counted(original):
        def wrapper(schedule, levels, *args, **kwargs):
            calls.append(tuple(levels))
            return original(schedule, levels, *args, **kwargs)

        return wrapper

    for module in (stepdown.cli, stepdown.harness):
        monkeypatch.setattr(module, "calibrate_levels", counted(module.calibrate_levels))
    return calls


def test_simulate_calibrates_once_per_run(tmp_path, monkeypatch):
    calls = _count_calibrations(monkeypatch)
    args = ["simulate", "--config", default_table_config(), "--reps", "3", "--workers", "1"]
    assert main(args + ["--out", str(tmp_path / "all.csv")]) == 0
    assert calls == [(0.05 / 3.0, 0.05 / 2.0, 0.05)]
    assert len(read_csv(tmp_path / "all.csv")) == 1 + 8 * 3

    calls.clear()
    assert main(args + ["--procedure", "H", "--out", str(tmp_path / "h.csv")]) == 0
    assert calls == []


def test_analyze_checks_alpha_before_levels(tmp_path, capsys):
    code, out = _analyze_with_boundary(
        tmp_path, "26,0.05,1.0,flat\n29,0.05,1.0,flat\n35,0.05,1.0,flat\n"
    )
    assert code == 0
    code = main(
        [
            "analyze",
            "--statistics",
            str(tmp_path / "stats.csv"),
            "--boundary",
            str(tmp_path / "bound.csv"),
            "--alpha",
            "2",
            "--out",
            str(tmp_path / "bad.csv"),
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "alpha must lie strictly between 0 and 1, got 2.0" in err
    assert "lacks critical values" not in err
    assert not (tmp_path / "bad.csv").exists()


@pytest.mark.parametrize("procedure", ["H", "MultH"])
def test_simulate_checks_grid_without_calibration(tmp_path, capsys, procedure):
    out = tmp_path / "s.csv"
    code = main(
        [
            "simulate", "--scenarios", "(0,0,.5)", "--procedure", procedure,
            "--reps", "5", "--grid", "3", "--out", str(out),
        ]
    )
    assert code == 2
    assert "grid_points" in capsys.readouterr().err
    assert not out.exists()



@pytest.mark.parametrize("alpha", ["2", "nan"])
def test_simulate_names_alpha_out_of_range(tmp_path, capsys, alpha):
    out = tmp_path / "s.csv"
    code = main(
        [
            "simulate", "--scenarios", "(0,0,.5)", "--procedure", "MultH",
            "--alpha", alpha, "--out", str(out),
        ]
    )
    assert code == 2
    assert "alpha" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_bounds_the_horizon_before_drawing(tmp_path, capsys, monkeypatch):
    calls = _count_calibrations(monkeypatch)
    out = tmp_path / "s.csv"
    code = main(
        [
            "simulate", "--scenarios", "(0,0,.5)", "--procedure", "MultH",
            "--schedule", "26,29,200000", "--out", str(out),
        ]
    )
    assert code == 2
    assert "schedule 26,29,200000" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


def _quick_start_keys(tmp_path, subcommand):
    """The README quick-start keys, with fewer replicates."""
    if subcommand == "boundary":
        return {"schedule": "26,29,35", "rho": "0.05,0.025"}
    if subcommand == "analyze":
        stats = tmp_path / "stats.csv"
        stats.write_text(
            "hypothesis,n,statistic\nA,26,3.0\nA,29,3.0\nA,35,3.0\n"
            "B,26,0.0\nB,29,0.5\nB,35,1.0\n"
        )
        bound = _write_boundary(tmp_path, "0.05,0.025")
        return {"statistics": str(stats), "boundary": str(bound), "alpha": "0.05", "variant": "holm"}
    if subcommand == "simulate":
        return {
            "scenarios": "(0,0,.5) (0,.5,.75,.75)", "procedures": "Mult,MultH", "reps": "200",
            "seed": "1", "workers": "1", "continuity_correction": "yes",
        }
    return {"thresholds": "0,1", "delta": "0.15", "critical_value": "3", "theta": "0.5", "reps": "200"}


def _run(tmp_path, subcommand, keys, way, out):
    if way == "flags":
        argv = [subcommand]
        for key, value in keys.items():
            argv += ["--" + ("procedure" if key == "procedures" else key.replace("_", "-")), value]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{key} = {value}\n" for key, value in keys.items()))
        argv = [subcommand, "--config", str(cfg)]
    return main(argv + ["--out", str(out)])


@pytest.mark.parametrize(
    "subcommand, bad_key, bad_value",
    [
        ("boundary", "shape", "bogus"),
        ("analyze", "variant", "x"),
        ("simulate", "grid", "abc"),
        ("simulate", "procedures", ","),
        ("paulson", "method", "x"),
    ],
)
def test_flags_and_config_file_agree(tmp_path, capsys, subcommand, bad_key, bad_value):
    keys = _quick_start_keys(tmp_path, subcommand)
    out = tmp_path / "out.csv"
    outputs = []
    for way in ("flags", "config"):
        assert _run(tmp_path, subcommand, keys, way, out) == 0
        outputs.append((out.read_bytes(), (tmp_path / "out.csv.meta.txt").read_bytes()))
    assert outputs[0] == outputs[1]

    bad = tmp_path / "bad.csv"
    for way in ("flags", "config"):
        assert _run(tmp_path, subcommand, {**keys, bad_key: bad_value}, way, bad) == 2
        assert f"key {bad_key!r}: " in capsys.readouterr().err
        assert not bad.exists()


@pytest.mark.parametrize(
    "key, value",
    [("thresholds", "0,nan"), ("delta", "nan"), ("critical_value", "inf"), ("theta", "nan")],
)
def test_paulson_rejects_non_finite_numbers(tmp_path, capsys, key, value):
    keys = {**_quick_start_keys(tmp_path, "paulson"), key: value}
    out = tmp_path / "p.csv"
    assert _run(tmp_path, "paulson", keys, "flags", out) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


def test_simulate_rejects_non_finite_mean_before_calibrating(tmp_path, capsys, monkeypatch):
    calls = _count_calibrations(monkeypatch)
    out = tmp_path / "s.csv"
    code = main(["simulate", "--scenarios", "(0,0,.5) (nan,0,.5)", "--out", str(out)])
    assert code == 2
    assert "mean mu1 must be finite" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


_FAMILY_ROWS = {"A": "A,26,3.0\nA,29,3.0\nA,35,3.0\n", "B": "B,26,0.0\nB,29,0.5\nB,35,1.0\n"}


def _analyze_family(tmp_path, order, family_text):
    """Decisions by hypothesis under ``closed``, statistics rows in ``order``."""
    bound = tmp_path / "bound.csv"
    if not bound.exists():
        _write_boundary(tmp_path, "0.05,0.025")
    family = tmp_path / "family.txt"
    family.write_text(family_text)
    stats = tmp_path / f"{order}.csv"
    stats.write_text("hypothesis,n,statistic\n" + "".join(_FAMILY_ROWS[h] for h in order))
    out = tmp_path / f"{order}-decisions.csv"
    argv = ["analyze", "--statistics", str(stats), "--boundary", str(bound),
            "--variant", "closed", "--family", str(family), "--out", str(out)]
    code = main(argv)
    return code, ({row[0]: row[1:] for row in read_csv(out)[1:]} if code == 0 else None)


def test_analyze_pairs_a_named_family_by_label(tmp_path):
    # Rejecting A (family index 1) accepts B at once, whichever row
    # order the statistics file uses.
    text = "k = 2\nlabels = A,B\ncontains_complement = 1>2\nclosed_monotone = true\n"
    by_order = [_analyze_family(tmp_path, order, text) for order in ("AB", "BA")]
    assert by_order[0] == by_order[1] == (
        0, {"A": ["rejected", "1", "26"], "B": ["accepted", "1", "26"]}
    )


def test_analyze_pairs_an_unnamed_family_by_position(tmp_path):
    unnamed = "k = 2\ncontains_complement = 1>2\nclosed_monotone = true\n"
    for order in ("AB", "BA"):
        named = f"k = 2\nlabels = {','.join(order)}\ncontains_complement = 1>2\nclosed_monotone = true\n"
        assert _analyze_family(tmp_path, order, unnamed) == _analyze_family(tmp_path, order, named)


def test_analyze_rejects_family_labels_the_statistics_lack(tmp_path, capsys):
    text = "k = 2\nlabels = A,C\nclosed_monotone = true\n"
    assert _analyze_family(tmp_path, "AB", text) == (2, None)
    assert "family labels A,C do not match" in capsys.readouterr().err
    assert not (tmp_path / "AB-decisions.csv").exists()


def _paulson_bytes(tmp_path, seed):
    out = tmp_path / "p.csv"
    argv = ["paulson", "--thresholds", "0,1", "--delta", "0.15", "--critical-value", "3",
            "--theta", "0.5", "--reps", "20", "--seed", str(seed), "--out", str(out)]
    assert main(argv) == 0
    return out.read_bytes()


def test_paulson_seeds_at_and_above_two_to_the_63_are_distinct(tmp_path):
    outputs = [_paulson_bytes(tmp_path, seed) for seed in (0, 2**63, 2**63 + 1, 2**64 - 1)]
    assert len(set(outputs)) == len(outputs)


@pytest.mark.parametrize("subcommand", ["simulate", "paulson"])
@pytest.mark.parametrize("seed", ["-1", str(2**64), str(2**70)])
def test_out_of_range_seed_is_a_configuration_error(tmp_path, capsys, subcommand, seed):
    keys = {**_quick_start_keys(tmp_path, subcommand), "seed": seed}
    out = tmp_path / "o.csv"
    assert _run(tmp_path, subcommand, keys, "flags", out) == 2
    assert "key 'seed': seed must lie in [0, 2**64)" in capsys.readouterr().err
    assert not out.exists()
