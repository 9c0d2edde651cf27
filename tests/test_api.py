"""The public API: every exported name resolves, and removed wrappers stay out."""

import dataclasses
import importlib
import inspect
import subprocess
import sys

import numpy as np
import pytest

import stepdown
from stepdown.cli import main
from stepdown.procedures import CLOSED, HOLM, MULT, RULES

MODULES = ("boundary", "core", "harness", "paulson", "procedures", "trial")


@pytest.mark.parametrize("name", ("stepdown",) + tuple(f"stepdown.{m}" for m in MODULES))
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing
    assert len(set(module.__all__)) == len(module.__all__)


def test_package_exports_every_module_all_in_import_order():
    lists = [importlib.import_module(f"stepdown.{m}").__all__ for m in MODULES]
    assert stepdown.__all__ == ["__version__"] + [name for names in lists for name in names]


def test_removed_wrappers_are_gone():
    modules = [stepdown] + [importlib.import_module(f"stepdown.{m}") for m in MODULES]
    for removed in ("ProcedureVariant", "generate_batch"):
        assert not any(hasattr(module, removed) for module in modules), removed
        assert not any(removed in module.__all__ for module in modules), removed
    assert not hasattr(stepdown.CriticalFunction, "from_table")
    assert not hasattr(stepdown.HypothesisFamily, "from_text")
    assert not hasattr(stepdown.boundary, "_as_analyses")
    assert not hasattr(stepdown.harness, "_worker_run")
    assert not hasattr(stepdown.harness, "_draw_key")
    fields = {field.name for field in dataclasses.fields(stepdown.CriticalFunction)}
    assert fields == {"schedule", "table", "constants"}
    assert "tol" not in inspect.signature(stepdown.calibrate_levels).parameters
    paths = stepdown.StatisticPaths((26, 29), np.zeros((1, 2)))
    assert not hasattr(paths, "sums")
    with pytest.raises(TypeError):
        stepdown.StatisticPaths((26, 29), np.zeros((1, 2)), sums=np.zeros((1, 2)))


def test_rules_are_plain_strings():
    assert (HOLM, MULT, CLOSED) == RULES == ("holm", "mult", "closed")
    assert (stepdown.HOLM, stepdown.MULT, stepdown.CLOSED) == RULES


def test_import_loads_neither_scipy_optimize_nor_stats(tmp_path):
    # Calibration has its own root finder, and scipy.stats is imported only
    # where the fixed-sample procedure H runs.  The H rows it then writes
    # are the ones this process, which has scipy.stats loaded, writes.
    args = ["simulate", "--scenarios", "(0,0,.5) (0,.5,.75,.75)", "--procedure", "H",
            "--reps", "40", "--seed", "3", "--workers", "1"]
    fresh = tmp_path / "fresh.csv"
    script = (
        "import sys, stepdown\n"
        "print(sorted(m for m in sys.modules if m.startswith(('scipy.optimize', 'scipy.stats'))))\n"
        "from stepdown.cli import main\n"
        f"sys.exit(main({args + ['--out', str(fresh)]!r}))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "[]"
    assert main(args + ["--out", str(tmp_path / "here.csv")]) == 0
    assert fresh.read_bytes() == (tmp_path / "here.csv").read_bytes()
