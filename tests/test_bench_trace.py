"""The benchmark's tracer must still find every name it wraps.

``bench/tracing.py`` wraps package functions on the attributes their
callers look them up by.  Removing or renaming one of those attributes
breaks ``bench/run.py --trace 1``; this test makes that a test failure.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

INSTALL = """
import sys
sys.path[:0] = sys.argv[1:3]
import tracing
tracing.install(tracing.Tracer())
"""


def test_tracer_installs():
    done = subprocess.run(
        [sys.executable, "-c", INSTALL, str(ROOT / "bench"), str(ROOT / "src")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
