"""Each narrative script in demos/ runs to completion.

The demos call the public API the way a user would, so a change that
breaks one of them breaks a documented entry point.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# Replicates per cell for study_sweep.py: enough to touch every scenario
# and procedure, few enough to keep the run short.
ARGS = {"study_sweep.py": ["300"]}


@pytest.mark.parametrize("script", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(script, src_env):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script), *ARGS.get(script, [])],
        capture_output=True,
        text=True,
        env=src_env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
