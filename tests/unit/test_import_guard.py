"""``import repro`` stays free of SciPy, a test-only dependency.

Algorithm 1 is solved exactly in integers; SciPy backs only the ILP oracle
under ``tests/refilp``.  The guard runs in a fresh interpreter so that
modules other tests imported cannot hide a regression.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"


def test_import_repro_loads_no_scipy():
    code = ("import sys, repro, repro.serve, repro.__main__; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
