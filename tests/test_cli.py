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
from stepdown.trial import ScenarioParams


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
