"""The BLAS/LAPACK routines load without ``scipy.linalg``, and are scipy's own."""

import json
import os
import subprocess
import sys
from pathlib import Path

import scipy.linalg.blas
import scipy.linalg.lapack

from gpcbf import _lapack
from gpcbf import config as config_mod


def _child_env(**extra):
    src = str(Path(__file__).resolve().parents[1] / "src")
    paths = [src, os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p), **extra)


# Each routine and the scipy.linalg module that hands it out.
ROUTINES = {"dtrsv": "blas", "dpotrf": "lapack", "dtrtrs": "lapack", "dgees": "lapack"}
SAME = "all(getattr(_lapack, n) is getattr(getattr(scipy.linalg, m), n) for n, m in ROUTINES.items())"


def test_routines_are_the_objects_scipy_hands_out():
    assert eval(SAME)
    # In a fresh process gpcbf._lapack loads the extensions before scipy.linalg.
    code = (
        "from gpcbf import _lapack\n"
        "import scipy.linalg.blas, scipy.linalg.lapack\n"
        f"ROUTINES = {ROUTINES!r}\n"
        f"print({SAME})\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=_child_env(), capture_output=True, text=True, timeout=120
    )
    assert proc.stdout == "True\n", proc.stderr


def test_run_loads_neither_scipy_linalg_nor_numpy_f2py(tmp_path):
    # A whole `python -m gpcbf.cli run`; the child lists its modules at exit.
    # The suspension scenario's LQR gain runs LAPACK's dgees.
    cfg = config_mod.defaults("suspension")
    cfg.sim.horizon = 0.5
    path = tmp_path / "suspension.yaml"
    path.write_text(config_mod.dump(cfg))
    modules = tmp_path / "modules.json"
    code = (
        "import json, runpy, sys\n"
        f"sys.argv = ['gpcbf', 'run', {str(path)!r}]\n"
        "try:\n"
        "    runpy.run_module('gpcbf.cli', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        f"open({str(modules)!r}, 'w').write(json.dumps(sorted(sys.modules)))\n"
        "sys.exit(code)\n"
    )
    env = _child_env(GPCBF_OUTPUT_DIR=str(tmp_path / "out"))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "summary.csv").exists()
    loaded = json.loads(modules.read_text())
    assert "gpcbf._lapack" in loaded and "gpcbf.experiment" in loaded
    assert "scipy.linalg" not in loaded
    assert [m for m in loaded if m.startswith("scipy.linalg.")] == [
        "scipy.linalg._fblas",
        "scipy.linalg._flapack",
    ]
    assert not [m for m in loaded if m == "numpy.f2py" or m.startswith("numpy.f2py.")]
