import csv
import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import stepdown.boundary
import stepdown.cli
import stepdown.harness
from stepdown.boundary import calibrate_levels
from stepdown.cli import default_table_config, main, parse_kv_text, parse_scenarios
from stepdown.core import HypothesisFamily, SampleSchedule
from stepdown.paulson import PaulsonConfig
from stepdown.procedures import RULES
from stepdown.trial import ScenarioParams

from paulson_replay import dealt_paths


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


def test_labels_keep_the_digits_that_tell_scenarios_apart(tmp_path):
    out = tmp_path / "s.csv"
    argv = ["simulate", "--scenarios", "(0.1234567,0,.5) (0.1234568,0,.5)", "--procedure", "H",
            "--reps", "10", "--out", str(out)]
    assert main(argv) == 0
    assert [row[0] for row in read_csv(out)[1:]] == ["(.1234567,0,.5)", "(.1234568,0,.5)"]


_finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(st.builds(ScenarioParams, _finite, _finite, st.floats(0.0, 1.0), st.floats(-1.0, 1.0)))
def test_a_label_reads_back_as_its_scenario(params):
    assert parse_scenarios(params.label()) == [params]


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
    # Each level's crossing probability on the doubled grid, in rho order.
    achieved = [float(v) for v in meta["achieved"].split(",")]
    assert achieved == [critical.achieved[0.05], critical.achieved[0.025]]


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


def test_analyze_round_trips_labels_with_a_comma_and_a_newline(tmp_path):
    # csv.writer quotes such a label in the output, and csv.reader reads it back.
    bound = _write_boundary(tmp_path, "0.025,0.05")
    labels = ["A, 12wk", "B\n24wk"]
    stats = tmp_path / "stats.csv"
    with open(stats, "w", newline="") as fh:
        csv.writer(fh).writerows(
            [("hypothesis", "n", "statistic")]
            + [(label, n, v) for label, v in zip(labels, (3.0, 0.0)) for n in (26, 29, 35)]
        )
    out = tmp_path / "decisions.csv"
    assert main(["analyze", "--statistics", str(stats), "--boundary", str(bound),
                 "--out", str(out)]) == 0
    head = 'hypothesis,decision,stage,final_n\n"A, 12wk",rejected,1,26\n'
    assert out.read_text().startswith(head)
    assert [row[0] for row in read_csv(out)[1:]] == labels


def test_analyze_refuses_an_empty_label_naming_the_file(tmp_path, capsys):
    bound = _write_boundary(tmp_path, "0.025,0.05")
    stats = tmp_path / "stats.csv"
    stats.write_text("hypothesis,n,statistic\n,26,3.0\nB,26,0.0\n")
    out = tmp_path / "decisions.csv"
    assert main(["analyze", "--statistics", str(stats), "--boundary", str(bound),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"stepdown analyze: hypothesis labels must be nonempty in {stats}\n"
    )
    assert not out.exists()


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


def test_simulate_worker_invariance(tmp_path, monkeypatch):
    # Key blocks of 16 replicates: two workers run two ranges in a pool.
    monkeypatch.setattr(stepdown.harness, "KEY_BLOCK", 16)
    assert len(stepdown.harness.split_ranges(120, 2)) == 2
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


def test_workers_default_ignores_the_environment(tmp_path, monkeypatch):
    # STEPDOWN_WORKERS, valid or not, leaves the default of 1 worker, and the
    # sidecar records the count used; --workers overrides the default.
    seen = []
    run = stepdown.cli.run_scenario_parallel

    def recording(specs, **kwargs):
        seen.append(kwargs["workers"])
        return run(specs, **kwargs)

    monkeypatch.setattr(stepdown.cli, "run_scenario_parallel", recording)
    args = ["simulate", "--scenarios", "(0,.65,.5)", "--procedure", "MultH", "--reps", "40"]
    for value in ("2", "0"):
        monkeypatch.setenv("STEPDOWN_WORKERS", value)
        assert main(args + ["--out", str(tmp_path / f"env{value}.csv")]) == 0
    assert main(args + ["--workers", "2", "--out", str(tmp_path / "flag.csv")]) == 0
    assert seen == [1, 1, 2]
    for name, workers in (("env2", "1"), ("env0", "1"), ("flag", "2")):
        meta = parse_kv_text((tmp_path / f"{name}.csv.meta.txt").read_text())
        assert meta["workers"] == workers
        assert (tmp_path / f"{name}.csv").read_bytes() == (tmp_path / "flag.csv").read_bytes()


def test_simulate_byte_lock(tmp_path):
    # Frozen from `simulate --config table1.cfg --reps 3745 --seed 1`: three
    # full key blocks of 1,024 replicates and part of a fourth, drawn as
    # per-look increments.  Any change to the random-stream contract or to
    # how paths are formed or decided that moves a byte must re-pin this
    # hash and say why.
    out = tmp_path / "t1.csv"
    args = ["simulate", "--config", default_table_config(), "--reps", "3745", "--seed", "1"]
    assert main(args + ["--workers", "1", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "605ff85ad8219d37414185880f8ed86ee409aa99a20d844f822c630b71df627c"
    )


@pytest.mark.parametrize("method", ["direct", "stepdown"])
@pytest.mark.parametrize(
    "regime, digest",
    [
        (
            ["--thresholds", "0.0,1.0", "--delta", "0.02", "--critical-value", "40.0",
             "--theta", "0.0"],
            "7934a73db8009e72128fb9c72c18b3e06b0ba1d4db05cb255dc7f08b8cf1e4f5",
        ),
        (
            ["--thresholds", "0.0,1.0,2.0", "--delta", "0.15", "--critical-value", "3.0",
             "--theta", "1.5"],
            "00b9748254c93bc05b41b5798dd9d124f37bbd858f25272041351bc030349130",
        ),
    ],
    ids=["long", "short"],
)
def test_paulson_byte_lock(tmp_path, method, regime, digest):
    # Frozen from `paulson --reps 300 --seed 1` on the benchmark's long
    # (multi-CHUNK) and short regimes: three path groups, the last one
    # partial.  Any change to the random-stream contract, the block cuts
    # or the summation that moves a byte must re-pin these hashes and
    # say why.
    out = tmp_path / "p.csv"
    argv = ["paulson", *regime, "--reps", "300", "--seed", "1", "--method", method]
    assert main(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


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
    # block.  The rows are the test-side replay's: each pass dealt to the
    # live paths, each path decided by the paper's rule.
    config = PaulsonConfig((0.0, 1.0), 0.05, 20.0, horizon=300)
    theta, seed, reps = 0.0, 4, 130
    lines = ["decision,stop_n,fallback_used"]
    counts = [0] * config.k
    stop_total = 0
    for decision, stop_n, fallback in dealt_paths(theta, config, seed, reps)[0]:
        lines.append(f"{decision},{stop_n},{str(fallback).lower()}")
        counts[decision] += 1
        stop_total += stop_n
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


def test_boundary_unbracketable_level_exits_1(tmp_path, capsys):
    out = tmp_path / "b.csv"
    assert main(["boundary", "--schedule", "26,29,35", "--rho", "1e-30", "--out", str(out)]) == 1
    assert "[-10, 10] calibrates level 1e-30" in capsys.readouterr().err
    assert not out.exists()
    assert not (tmp_path / "b.csv.meta.txt").exists()


def test_boundary_unsettled_root_search_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(stepdown.boundary, "_MAX_STEPS", 1)
    out = tmp_path / "b.csv"
    assert main(["boundary", "--schedule", "26,29,35", "--rho", "0.05", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "stepdown boundary: no boundary constant in [-10, 10] calibrates level 0.05: "
        "the root search did not settle in 1 steps\n"
    )
    assert not out.exists()
    assert not (tmp_path / "b.csv.meta.txt").exists()


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


def test_module_entry_point(tmp_path, src_env):
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
        env=src_env,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
    proc = subprocess.run(
        [sys.executable, "-m", "stepdown", "boundary", "-h"],
        capture_output=True, text=True, env=src_env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "--schedule" in proc.stdout


def test_one_parser_serves_every_run_in_a_process(tmp_path, monkeypatch, capsys):
    # main reuses one parser; after a bad flag, each run must still give
    # the exit code, output and files of a fresh interpreter.
    monkeypatch.setenv("COLUMNS", "80")
    runs = [
        ["simulate", "--bogus", "1"],
        ["boundary", "--schedule", "26,29,35", "--rho", "0.05,0.025", "--out", "b.csv"],
        ["simulate", "--scenarios", "(0,.5,.75) (0,0,.5)", "--procedure", "H,Mult,MultH",
         "--reps", "300", "--out", "s.csv"],
        ["simulate", "--help"],
    ]
    src = os.path.dirname(os.path.dirname(stepdown.cli.__file__))
    env = {**os.environ, "COLUMNS": "80", "PYTHONPATH": src}
    same, fresh = tmp_path / "same", tmp_path / "fresh"
    same.mkdir()
    fresh.mkdir()
    monkeypatch.chdir(same)
    for argv in runs:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        proc = subprocess.run(
            [sys.executable, "-m", "stepdown", *argv], cwd=fresh, capture_output=True,
            text=True, env=env,
        )
        assert (code, out, err) == (proc.returncode, proc.stdout, proc.stderr)
    assert stepdown.cli.build_parser() is stepdown.cli.build_parser()
    names = sorted(path.name for path in fresh.iterdir())
    assert names == sorted(path.name for path in same.iterdir())
    assert names == ["b.csv", "b.csv.meta.txt", "s.csv", "s.csv.meta.txt"]
    for name in names:
        assert (same / name).read_bytes() == (fresh / name).read_bytes()


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

    monkeypatch.setattr(stepdown.boundary, "_crossing_rows", no_integration)
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


@pytest.mark.parametrize(
    "shapes, message",
    [
        (("banana", "", "flat"), "shape 'banana' is not one of flat, obrien-fleming"),
        (("flat", "", "flat"), "shape '' is not one of flat, obrien-fleming"),
        (("flat", "obrien-fleming", "flat"), "level 0.05 mixes shapes flat and obrien-fleming"),
    ],
)
def test_boundary_csv_rejects_unknown_and_mixed_shapes(tmp_path, capsys, shapes, message):
    rows = "".join(f"{n},0.05,9.0,{shape}\n" for n, shape in zip((26, 29, 35), shapes))
    code, out = _analyze_with_boundary(tmp_path, rows)
    assert code == 2
    err = capsys.readouterr().err
    assert str(tmp_path / "bound.csv") in err
    assert message in err
    assert not out.exists()


def test_boundary_csv_levels_may_differ_in_shape(tmp_path):
    rows = "".join(
        f"{n},{rho},9.0,{shape}\n"
        for rho, shape in ((0.05, "flat"), (0.025, "obrien-fleming"))
        for n in (26, 29, 35)
    )
    code, out = _analyze_with_boundary(tmp_path, rows)
    assert code == 0
    assert read_csv(out)[1] == ["A", "rejected", "1", "26"]


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
    # The first data row: a cell that every run reads.
    "missing cell": lambda lines, which: lines[:1] + lines[2:],
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


def test_analyze_bad_statistics_size_names_the_statistics_file(tmp_path, capsys):
    # A row at n = 0 is an error of the statistics file, found before the
    # boundary is read at the statistics' sizes.
    paths = _analyze_inputs(tmp_path)
    lines = _READER_INPUTS["statistics"] + ["A,0,9.0", "B,0,9.0"]
    paths["statistics"].write_text("\n".join(lines) + "\n")
    out = tmp_path / "d.csv"
    argv = ["analyze", "--statistics", str(paths["statistics"]), "--boundary",
            str(paths["boundary"]), "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.rstrip().endswith(f"analysis sizes must be positive in {paths['statistics']}")
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


def _run(tmp_path, subcommand, keys, way, out=None):
    """Run with ``keys`` given one way, and ``--out out`` unless ``out`` is None."""
    if way == "flags":
        argv = [subcommand]
        for key, value in keys.items():
            argv += ["--" + ("procedure" if key == "procedures" else key.replace("_", "-")), value]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{key} = {value}\n" for key, value in keys.items()))
        argv = [subcommand, "--config", str(cfg)]
    return main(argv + (["--out", str(out)] if out else []))


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
    "subcommand, key, value, message",
    [
        ("boundary", "rho", "0.05,x", "expected a comma-separated numeric list, got '0.05,x'"),
        ("boundary", "schedule", "26,x", "expected a comma-separated integer list, got '26,x'"),
        ("simulate", "procedures", ",", "expected at least one name, got ','"),
        ("boundary", "rho", ",", "expected at least one number, got ','"),
        ("paulson", "thresholds", ",", "expected at least one number, got ','"),
        ("paulson", "critical_value", "abc", "expected a finite number, got 'abc'"),
        ("paulson", "critical_value", "inf", "expected a finite number, got 'inf'"),
        ("paulson", "out", "", "must not be empty"),
        ("simulate", "reps", "0", "must be at least 1, got 0"),
        ("simulate", "workers", "0", "must be at least 1, got 0"),
        ("paulson", "reps", "0", "must be at least 1, got 0"),
        ("paulson", "horizon", "0", "must be at least 1, got 0"),
    ],
)
def test_key_errors_quote_the_text(tmp_path, capsys, subcommand, key, value, message):
    out = tmp_path / "out.csv"
    keys = {**_quick_start_keys(tmp_path, subcommand), "out": str(out), key: value}
    for way in ("flags", "config"):
        assert _run(tmp_path, subcommand, keys, way) == 2
        assert capsys.readouterr().err == f"stepdown {subcommand}: key {key!r}: {message}\n"
        assert not out.exists()


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
    assert "family labels 'A','C' do not match" in capsys.readouterr().err
    assert not (tmp_path / "AB-decisions.csv").exists()
    # Each label is quoted, so one that holds a comma reads as one label.
    stats = tmp_path / "comma.csv"
    stats.write_text("hypothesis,n,statistic\n"
                     + _FAMILY_ROWS["A"].replace("A,", '"A, 12wk",') + _FAMILY_ROWS["B"])
    family, out = tmp_path / "family.txt", tmp_path / "comma-decisions.csv"
    assert main(["analyze", "--statistics", str(stats), "--boundary", str(tmp_path / "bound.csv"),
                 "--variant", "closed", "--family", str(family), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "stepdown analyze: family labels 'A','C' do not match the statistics hypotheses "
        f"'A, 12wk','B' in family file {family}\n"
    )
    assert not out.exists()


def test_analyze_family_accepts_config_booleans(tmp_path):
    text = "k = 2\nlabels = A,B\ncontains_complement = 1>2\nclosed_monotone = {}\n"
    assert _analyze_family(tmp_path, "AB", text.format("yes")) == _analyze_family(
        tmp_path, "AB", text.format("true")
    )


@pytest.mark.parametrize(
    "text, key",
    [
        ("k = 2\nbogus = 1\n", "bogus"),
        ("labels = A,B\n", "k"),
        ("k = x\n", "k"),
        ("k = 0\n", "k"),
        ("k = 2\ncontains_complement = 1-2\n", "contains_complement"),
        ("k = 2\ncontains_complement = 1>3\n", "contains_complement"),
        ("k = 2\nclosed_monotone = maybe\n", "closed_monotone"),
        ("k = 2\nclosed_monotone = false\n", "closed_monotone"),
    ],
)
def test_analyze_family_errors_name_the_file_and_key(tmp_path, capsys, text, key):
    assert _analyze_family(tmp_path, "AB", text) == (2, None)
    err = capsys.readouterr().err
    assert err.rstrip().endswith(f"in family file {tmp_path / 'family.txt'}")
    assert f"key '{key}'" in err
    if text == "k = 0\n":
        assert err == ("stepdown analyze: key 'k': must be at least 1, got 0 "
                       f"in family file {tmp_path / 'family.txt'}\n")
    assert not (tmp_path / "AB-decisions.csv").exists()


def test_analyze_closed_without_family_names_the_family_key(tmp_path, capsys):
    paths = _analyze_inputs(tmp_path)
    out = tmp_path / "d.csv"
    argv = ["analyze", "--statistics", str(paths["statistics"]), "--boundary",
            str(paths["boundary"]), "--variant", "closed", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "--family" in err and "key 'family'" in err
    assert not out.exists()


def _analyze_rows(tmp_path, rows, variant="holm", family=None):
    """analyze on statistics ``rows`` of (hypothesis, n, statistic) against
    a boundary at 26, 29, 35 for alpha, alpha/2 and alpha/3: the exit code
    and, on success, the rows by hypothesis."""
    bound = tmp_path / "bound3.csv"
    if not bound.exists():
        _write_boundary(tmp_path, "0.05,0.025,0.016666666666666666", "bound3.csv")
    stats = tmp_path / "interim.csv"
    stats.write_text("hypothesis,n,statistic\n" + "".join(f"{h},{n},{v}\n" for h, n, v in rows))
    out = tmp_path / "interim-decisions.csv"
    argv = ["analyze", "--statistics", str(stats), "--boundary", str(bound),
            "--variant", variant, "--out", str(out)]
    if family is not None:
        (tmp_path / "family.txt").write_text(family)
        argv += ["--family", str(tmp_path / "family.txt")]
    code = main(argv)
    return code, ({row[0]: row[1:] for row in read_csv(out)[1:]} if code == 0 else None)


def test_analyze_reports_an_interim_look_as_continuing(tmp_path):
    # At n = 26 of (26, 29, 35) nothing crosses: both hypotheses go on
    # to the next look, they are not accepted.
    assert _analyze_rows(tmp_path, [("A", 26, 1.1), ("B", 26, 0.2)]) == (
        0, {"A": ["continue", "1", "29"], "B": ["continue", "1", "29"]}
    )
    # A is rejected at n = 26; B, in stage 2 at n = 29, goes on to 35.
    rows = [("A", 26, 3.1), ("B", 26, 0.2), ("A", 29, 0.0), ("B", 29, 0.3)]
    assert _analyze_rows(tmp_path, rows) == (
        0, {"A": ["rejected", "1", "26"], "B": ["continue", "2", "35"]}
    )


@pytest.mark.parametrize("variant", ["holm", "closed"])
def test_analyze_keeps_an_implied_acceptance_at_an_interim_look(tmp_path, variant):
    # Rejecting A accepts B, which contains its complement: under closed
    # at once, and under holm because no survivor is left to test.
    family = "k = 2\nlabels = A,B\ncontains_complement = 1>2\nclosed_monotone = true\n"
    assert _analyze_rows(tmp_path, [("A", 26, 3.1), ("B", 26, 0.2)], variant, family) == (
        0, {"A": ["rejected", "1", "26"], "B": ["accepted", "1", "26"]}
    )


@pytest.mark.parametrize(
    "looks, message",
    [
        ((26, 35), "look 2 of statistics file {stats} is at n=35, but boundary file {bound} has n=29"),
        ((29,), "look 1 of statistics file {stats} is at n=29, but boundary file {bound} has n=26"),
        ((26, 29, 35, 40), "look 4 of statistics file {stats} is at n=40, but boundary file "
                           "{bound} has none"),
    ],
)
def test_analyze_refuses_looks_off_the_boundary_schedule(tmp_path, capsys, looks, message):
    code, _ = _analyze_rows(tmp_path, [(h, n, 0.0) for h in "AB" for n in looks])
    assert code == 2
    paths = {"stats": tmp_path / "interim.csv", "bound": tmp_path / "bound3.csv"}
    assert message.format(**paths) in capsys.readouterr().err
    assert not (tmp_path / "interim-decisions.csv").exists()


@pytest.mark.parametrize("variant", ["holm", "mult", "closed"])
def test_analyze_at_each_look_agrees_with_the_complete_trial(tmp_path, variant):
    # Cut at look J, a trial keeps every row the complete trial decided
    # by n_J, and every other hypothesis continues to look J + 1.
    looks = (26, 29, 35)
    family = "k = 3\nlabels = A,B,C\ncontains_complement = 1>3\nclosed_monotone = true\n"
    rng = np.random.default_rng(41)
    for _ in range(15):
        stats = {h: rng.normal(1.5, 1.2, size=3).round(2) for h in "ABC"}
        rows = [(h, n, v) for h, values in stats.items() for n, v in zip(looks, values)]
        code, complete = _analyze_rows(tmp_path, rows, variant, family)
        assert code == 0
        for cut in (1, 2):
            code, interim = _analyze_rows(
                tmp_path, [row for row in rows if row[1] <= looks[cut - 1]], variant, family
            )
            assert code == 0
            for h, row in complete.items():
                if int(row[2]) <= looks[cut - 1]:
                    assert interim[h] == row
                else:
                    assert interim[h][0] == "continue" and interim[h][2] == str(looks[cut])


def test_analyze_reader_input_needs_no_cell_after_a_decision(tmp_path):
    # Both hypotheses are rejected at n = 26, so the run never reads B at
    # n = 35, the reader input's last row: without it the output is the same.
    paths = _analyze_inputs(tmp_path)
    paths["statistics"].write_text("\n".join(_READER_INPUTS["statistics"][:-1]) + "\n")
    out = tmp_path / "d.csv"
    argv = ["analyze", "--statistics", str(paths["statistics"]), "--boundary",
            str(paths["boundary"]), "--out", str(out)]
    assert main(argv) == 0
    assert read_csv(out)[1:] == [["A", "rejected", "1", "26"], ["B", "rejected", "1", "26"]]


def test_analyze_takes_a_stream_that_stops_at_its_rejection(tmp_path):
    # A is rejected at n = 26 and measured no further; B, alone in stage
    # 2, is rejected at n = 35.  Padding A's stream changes no byte.
    bound = _write_boundary(tmp_path, "0.05,0.025")
    stats = tmp_path / "stats.csv"
    out = tmp_path / "decisions.csv"
    argv = ["analyze", "--statistics", str(stats), "--boundary", str(bound), "--out", str(out)]
    b_rows = "B,26,1.2\nB,29,1.4\nB,35,2.1\n"
    written = []
    for a_pads in ("", "A,29,0.0\nA,35,0.0\n", "A,29,9.0\nA,35,-9.0\n"):
        stats.write_text("hypothesis,n,statistic\nA,26,3.1\n" + a_pads + b_rows)
        assert main(argv) == 0
        written.append(out.read_bytes())
    assert read_csv(out)[1:] == [["A", "rejected", "1", "26"], ["B", "rejected", "2", "35"]]
    assert written[0] == written[1] == written[2]


@pytest.mark.parametrize(
    "rows, label, n",
    [
        # B, still under test in stage 2, lacks its statistic at n = 29.
        ([("A", 26, 3.1), ("A", 29, 0.0), ("B", 26, 1.2), ("B", 35, 2.1)], "B", 29),
        # Every run reads every hypothesis at the first look.
        ([("A", 26, 3.1), ("A", 29, 3.1), ("B", 29, 1.4)], "B", 26),
        # B is accepted at n = 35, the last look, which it lacks.
        ([("A", 26, 0.1), ("A", 29, 0.2), ("A", 35, 0.3), ("B", 26, 0.1), ("B", 29, 0.2)], "B", 35),
    ],
)
def test_analyze_refuses_a_lacking_cell_the_run_reads(tmp_path, capsys, rows, label, n):
    assert _analyze_rows(tmp_path, rows) == (2, None)
    stats = tmp_path / "interim.csv"
    message = f"statistics file {stats} is missing hypothesis {label!r} at n={n}"
    assert capsys.readouterr().err.rstrip().endswith(message)
    assert not (tmp_path / "interim-decisions.csv").exists()


def test_analyze_keeps_an_implied_acceptance_whose_stream_stops(tmp_path):
    # Rejecting A at n = 26 accepts B there under closed; B's stream stops,
    # while C is tested on to n = 35.
    family = "k = 3\nlabels = A,B,C\ncontains_complement = 1>2\nclosed_monotone = true\n"
    rows = [("A", 26, 3.1), ("B", 26, 0.2), ("C", 26, 0.1), ("C", 29, 0.2), ("C", 35, 0.3)]
    assert _analyze_rows(tmp_path, rows, "closed", family) == (
        0,
        {"A": ["rejected", "1", "26"], "B": ["accepted", "1", "26"],
         "C": ["accepted", "2", "35"]},
    )


# Three hypotheses over (26, 29, 35) under every rule, with statistics
# around the boundaries, so that runs end at every look and stage, and
# pads of any finite value.
@settings(max_examples=40, deadline=None)
@given(
    variant=st.sampled_from(RULES),
    relation=st.sampled_from(["none", "1>3", "2>1"]),
    values=st.lists(st.floats(-1.0, 4.0), min_size=9, max_size=9),
    pads=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=9, max_size=9),
)
def test_analyze_reads_no_cell_after_its_hypothesis_is_decided(
    tmp_path_factory, variant, relation, values, pads
):
    work = tmp_path_factory.mktemp("frozen")
    family = f"k = 3\nlabels = A,B,C\ncontains_complement = {relation}\nclosed_monotone = true\n"
    cells = list(zip([(h, n) for h in "ABC" for n in (26, 29, 35)], values, pads))
    code, complete = _analyze_rows(work, [(h, n, v) for (h, n), v, _ in cells], variant, family)
    assert code == 0
    written = (work / "interim-decisions.csv").read_bytes()
    decided = {h: int(row[2]) for h, row in complete.items()}
    kept = [(h, n, v) for (h, n), v, _ in cells if n <= decided[h]]
    padded = [(h, n, v if n <= decided[h] else pad) for (h, n), v, pad in cells]
    for rows in (kept, padded):
        assert _analyze_rows(work, rows, variant, family) == (0, complete)
        assert (work / "interim-decisions.csv").read_bytes() == written


def _family(tmp_path, text, labels):
    path = tmp_path / "family.txt"
    path.write_text(text)
    return stepdown.cli._read_family(str(path), labels)[0]


def test_family_round_trip(tmp_path):
    rel = ((False, True), (False, False))
    fam = HypothesisFamily(
        k=2, labels=("low dose", "high dose"), contains_complement=rel, closed_monotone=True
    )
    text = (
        "k = 2\nlabels = low dose,high dose\n"
        "contains_complement = 1>2\nclosed_monotone = true\n"
    )
    assert _family(tmp_path, text, fam.labels) == fam

    plain = HypothesisFamily(4)
    text = "k = 4\nlabels = H1,H2,H3,H4\ncontains_complement = none\nclosed_monotone = false\n"
    assert _family(tmp_path, text, plain.labels) == plain
    assert _family(tmp_path, "k = 4\n", plain.labels) == plain


def test_family_text_rejects_garbage(tmp_path):
    with pytest.raises(ValueError, match="unknown family key"):
        _family(tmp_path, "k = 2\nbogus = 1\n", ("a", "b"))
    with pytest.raises(ValueError, match="missing required key 'k'"):
        _family(tmp_path, "labels = a,b\n", ("a", "b"))
    with pytest.raises(ValueError, match="key 'contains_complement': expected none or pairs"):
        _family(tmp_path, "k = 2\ncontains_complement = 1-2\n", ("a", "b"))
    with pytest.raises(ValueError, match="out of range"):
        _family(tmp_path, "k = 2\ncontains_complement = 1>3\n", ("a", "b"))
    message = "family has 3 hypotheses but statistics cover 2 in family file"
    with pytest.raises(ValueError, match=message):
        _family(tmp_path, "k = 3\n", ("a", "b"))


def _distinct_levels(levels):
    try:
        stepdown.boundary._check_levels(levels)
    except ValueError:
        return False
    return True


# Large magnitudes, subnormals and both zeros, mixed into the drawn values.
_EXTREMES = [-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1e-310, 1.7976931348623157e308, -1e300]


@settings(max_examples=60, deadline=None)
@given(
    analyses=st.lists(st.integers(1, 10**6), min_size=1, max_size=4, unique=True).map(sorted),
    levels=st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                    min_size=1, max_size=3).filter(_distinct_levels),
    values=st.lists(st.sampled_from(_EXTREMES) | st.floats(allow_nan=False, allow_infinity=False),
                    min_size=20, max_size=20),
)
@example(analyses=[26, 29, 35], levels=[0.05, 0.025, 5e-324], values=_EXTREMES * 3)
def test_csv_round_trip_is_bit_exact(tmp_path_factory, analyses, levels, values):
    cells = iter(values)
    # Critical values must not increase with the level at any analysis:
    # sorting each analysis' column keeps every bit pattern.
    columns = [sorted((next(cells) for _ in levels), reverse=True) for _ in analyses]
    table = {rho: tuple(col[i] for col in columns) for i, rho in enumerate(sorted(levels))}
    stats = {h: tuple(next(cells) for _ in analyses) for h in ("H1", "H2")}

    # The rows hold plain values, as the handlers write them: Python
    # floats and ints in the boundary, numpy float64 in the statistics.
    work = tmp_path_factory.mktemp("csv")
    stepdown.cli._write_rows(
        work / "b.csv", ("n", "rho", "critical_value", "shape"),
        [(n, rho, vals[j], "flat") for rho, vals in table.items() for j, n in enumerate(analyses)],
    )
    stepdown.cli._write_rows(
        work / "s.csv", ("hypothesis", "n", "statistic"),
        [(h, n, np.float64(vals[j])) for h, vals in stats.items() for j, n in enumerate(analyses)],
    )
    read_analyses, cells = stepdown.cli._read_statistics_csv(str(work / "s.csv"))
    critical = stepdown.cli._read_boundary_csv(str(work / "b.csv"))

    def hexed(mapping):
        return [(key, [v.hex() for v in vals]) for key, vals in mapping.items()]

    assert read_analyses == critical.schedule.analyses == tuple(analyses)
    assert all(list(per_n) == analyses for per_n in cells.values())
    assert hexed({h: per_n.values() for h, per_n in cells.items()}) == hexed(stats)
    assert [rho.hex() for rho in critical.table] == [rho.hex() for rho in table]
    assert hexed(critical.table) == hexed(table)


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
