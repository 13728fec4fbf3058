"""``import repro`` stays free of SciPy and numpy.

Algorithm 1 is solved exactly in integers; SciPy backs only the ILP oracle
under ``tests/refilp``.  numpy is needed only by the functional PAL
decoder, the cipher's functional references and the FIR/batch kernels, and
is imported on first use: the package import, the CLI, ``repro serve``, a
harness simulation and a generated-corpus sweep never load it.  The guards
run in a fresh interpreter so that modules other tests imported cannot hide
a regression.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

#: prints the loaded numpy/scipy packages, sorted
LOADED = ("print(sorted({m.split('.')[0] for m in sys.modules} "
          "& {'numpy', 'scipy'}))")


def _fresh(code: str) -> str:
    """Run ``code`` in a fresh interpreter on ``src``; return its stdout."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_import_repro_loads_no_scipy():
    code = ("import sys, repro, repro.serve, repro.__main__; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    assert _fresh(code) == "[]"


def test_import_repro_loads_no_numpy():
    assert _fresh(f"import sys, repro, repro.serve, repro.__main__; {LOADED}") == "[]"


def test_simulation_and_generated_sweep_load_no_numpy():
    code = f"""
import sys
from repro import exp
from repro.app.scenarios import build_scenario
from repro.arch.harness import simulate_system

system = build_scenario("scenario://generated?seed=2").system
assert simulate_system(system, blocks=2).chain.entry.blocks_admitted
sweep = exp.scenario_corpus("scenario://generated?seed=0", points=1)
assert exp.run_sweep(sweep, workers=1).payload()[0]["error"] is None
{LOADED}
from repro.accel import FirDecimatorKernel
assert FirDecimatorKernel(factor=8).output_ratio == 0.125
{LOADED}
"""
    assert _fresh(code).splitlines() == ["[]", "['numpy']"]
