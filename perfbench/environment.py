"""The environment a benchmark result was measured in.

Records what changes timings without changing the code: the numeric path,
the BLAS library and the threads it uses, the CPUs and their load, the
interpreter and library versions, and which source ran.  Nothing here pins
or changes a setting.
"""

import ctypes
import hashlib
import os
import platform
import subprocess
from pathlib import Path

import numpy
import scipy

import gpcbf

THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "GPCBF_DISABLE_NUMBA",
)


def blas_libraries() -> list:
    """Loaded OpenBLAS builds, with their configuration and thread count.

    Reads the process's memory map for shared libraries named like a BLAS
    and asks each one that exports OpenBLAS's query functions.
    """
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "blas" in line.lower()})
            paths = [p for p in paths if os.path.basename(p).startswith("lib")]
    except OSError:
        return []
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        entry = {"library": os.path.basename(path)}
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if threads is None or config is None:
                    continue
                threads.restype = ctypes.c_int
                config.restype = ctypes.c_char_p
                entry["config"] = config().decode(errors="replace").strip()
                entry["threads"] = int(threads())
                break
            if "threads" in entry:
                break
        found.append(entry)
    return found


def _source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_revision(root: Path):
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def record(root: Path) -> dict:
    """The environment at the start of a run; the caller adds the end load."""
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numba_enabled": bool(gpcbf.NUMBA_ENABLED),
        "blas_vendor": f"{blas.get('name')} {blas.get('version')}",
        "blas_loaded": blas_libraries(),
        "thread_variables": {k: os.environ.get(k) for k in THREAD_VARIABLES},
        "nproc": len(os.sched_getaffinity(0)),
        "load_average_start": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_revision": _git_revision(root),
        "source_sha256": _source_digest(root / "src"),
    }
