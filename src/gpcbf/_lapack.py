"""The four BLAS/LAPACK routines the library calls, without ``scipy.linalg``.

The safety filter and the GP need BLAS ``dtrsv`` and LAPACK ``dpotrf``,
``dtrtrs`` and ``dgees``.  Importing ``scipy.linalg`` to get them also
imports ``scipy._lib._array_api``, ``numpy.f2py`` and ``numpy.testing``,
which cost a cold process about 0.3 s.  This module loads only scipy's two
compiled f2py extensions, ``scipy/linalg/_fblas`` and ``_flapack``, by file
spec.  ``importlib.util.find_spec("scipy")`` locates scipy without running
its ``__init__``.  Each extension is registered in ``sys.modules`` under
its own name, so a later ``import scipy.linalg`` finds it there; the
routines are then the very objects ``scipy.linalg.blas`` and
``scipy.linalg.lapack`` hand out, and every result keeps its bits.

There is one route: if scipy's file layout changes, importing this module
fails.
"""

import importlib.machinery
import importlib.util
import sys
from pathlib import Path

_SCIPY = importlib.util.find_spec("scipy")
if _SCIPY is None:
    raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
_LINALG = Path(_SCIPY.submodule_search_locations[0]) / "linalg"


def _extension(name: str):
    """The module ``scipy.linalg.<name>``, loaded from its file unless already imported."""
    full = f"scipy.linalg.{name}"
    if full in sys.modules:
        return sys.modules[full]
    spec = importlib.machinery.PathFinder.find_spec(full, [str(_LINALG)])
    if spec is None:
        raise ImportError(f"no compiled {full} in {_LINALG}", name=full)
    module = importlib.util.module_from_spec(spec)
    sys.modules[full] = module
    spec.loader.exec_module(module)
    return module


_fblas = _extension("_fblas")
_flapack = _extension("_flapack")

dtrsv = _fblas.dtrsv
dpotrf = _flapack.dpotrf
dtrtrs = _flapack.dtrtrs
dgees = _flapack.dgees

__all__ = ["dgees", "dpotrf", "dtrsv", "dtrtrs"]
