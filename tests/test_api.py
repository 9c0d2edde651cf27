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
    for removed in ("ProcedureVariant", "generate_batch", "paths_from_draws", "empty_summary"):
        assert not any(hasattr(module, removed) for module in modules), removed
        assert not any(removed in module.__all__ for module in modules), removed
    assert not hasattr(stepdown.CriticalFunction, "from_table")
    assert not hasattr(stepdown.HypothesisFamily, "from_text")
    assert not hasattr(stepdown.boundary, "_as_analyses")
    assert not hasattr(stepdown.harness, "_worker_run")
    assert not hasattr(stepdown.harness, "_draw_key")
    assert not hasattr(stepdown.procedures, "_check_run")
    assert not hasattr(stepdown.HypothesisFamily, "implied_acceptances")
    assert not hasattr(stepdown.ScenarioSpec, "label")
    assert not hasattr(stepdown.SimulationSummary, "any_true_null")
    fields = {field.name for field in dataclasses.fields(stepdown.CriticalFunction)}
    assert fields == {"schedule", "table", "achieved"}
    assert "tol" not in inspect.signature(stepdown.calibrate_levels).parameters
    paths = stepdown.StatisticPaths((26, 29), np.zeros((1, 2)))
    assert not hasattr(paths, "sums")
    with pytest.raises(TypeError):
        stepdown.StatisticPaths((26, 29), np.zeros((1, 2)), sums=np.zeros((1, 2)))


def test_rules_are_plain_strings():
    assert (HOLM, MULT, CLOSED) == RULES == ("holm", "mult", "closed")
    assert (stepdown.HOLM, stepdown.MULT, stepdown.CLOSED) == RULES


_NO_SCIPY_RUNS = (
    ["simulate", "--scenarios", "(0,0,.5) (0,.5,.75,.75)", "--procedure", "H",
     "--reps", "40", "--seed", "3", "--workers", "1"],
    ["boundary", "--schedule", "26,29,35", "--rho", "0.05,1e-6", "--shape", "obrien-fleming"],
)

# Makes any later import of scipy or a scipy submodule raise ImportError.
_BLOCK_SCIPY = """
class _BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")
sys.meta_path.insert(0, _BlockScipy())
"""


def test_runtime_loads_and_needs_no_scipy(tmp_path, src_env):
    # scipy is a test and bench oracle only: a fresh interpreter that runs
    # H and calibrates boundaries loads no scipy module, and one that
    # cannot import scipy writes the bytes this process, with scipy
    # loaded, writes.
    here = [tmp_path / f"here{i}.csv" for i in range(len(_NO_SCIPY_RUNS))]
    fresh = [tmp_path / f"fresh{i}.csv" for i in range(len(_NO_SCIPY_RUNS))]
    for args, out in zip(_NO_SCIPY_RUNS, here):
        assert main(args + ["--out", str(out)]) == 0
    runs = [args + ["--out", str(out)] for args, out in zip(_NO_SCIPY_RUNS, fresh)]
    for prelude in ("", _BLOCK_SCIPY):
        script = (
            "import sys\n"
            + prelude
            + "import stepdown, stepdown.cli\n"
            f"for args in {runs!r}:\n"
            "    if stepdown.cli.main(args) != 0:\n"
            "        sys.exit(f'{args[0]} failed')\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=src_env
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"
        for got, expected in zip(fresh, here):
            assert got.read_bytes() == expected.read_bytes()


def test_import_loads_neither_multiprocessing_nor_statistics(src_env):
    # Each is imported where it is used: multiprocessing by a run with
    # more than one worker, statistics by normal_quantile, and numpy.fft,
    # unless numpy itself loads it (numpy before 2.0 does), by the
    # boundary recursion.
    script = (
        "import sys, numpy\n"
        "lazy = {'numpy.fft'} - set(sys.modules)\n"
        "import stepdown\n"
        "print(sorted(({'multiprocessing', 'statistics'} | lazy) & set(sys.modules)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=src_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
