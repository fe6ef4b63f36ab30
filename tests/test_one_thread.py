"""The fit and the LQR design run on the calling thread.

OpenBLAS hands some calls to a worker thread, which then busy-waits for
about 0.13 s of CPU; a run pays that on a second core.  Each test sums the
CPU ticks of every thread of this process but the caller's, from
``/proc/self/task/*/stat``, around one call and a 0.3 s sleep that lets a
woken worker spin out.
"""

import os
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from gpcbf.gp import BaseKernelParams, ResidualDataset, fit
from gpcbf.plants import SUSPENSION_NOMINAL, linear_matrices, lqr_gain, make_suspension_plant

TASKS = Path("/proc/self/task")

pytestmark = pytest.mark.skipif(not TASKS.is_dir(), reason="needs /proc/self/task")


def _other_threads_cpu_s() -> float:
    me = threading.get_native_id()
    ticks = 0
    for task in TASKS.iterdir():
        if int(task.name) == me:
            continue
        try:
            fields = (task / "stat").read_text().rsplit(")", 1)[1].split()
        except FileNotFoundError:  # the thread ended meanwhile
            continue
        ticks += int(fields[11]) + int(fields[12])  # utime, stime
    return ticks / os.sysconf("SC_CLK_TCK")


def _worker_cpu_s(call) -> float:
    time.sleep(0.3)  # let a worker that an earlier test woke spin out
    before = _other_threads_cpu_s()
    call()
    time.sleep(0.3)
    return _other_threads_cpu_s() - before


def test_fit_at_n137_wakes_no_worker():
    rng = np.random.default_rng(0)
    N, n, q = 137, 4, 3
    ds = ResidualDataset(
        X=rng.normal(size=(N, n)), Y=rng.normal(size=(N, q)), z=rng.normal(size=N),
        noise_variance=1e-3,
    )  # fmt: skip
    params = [BaseKernelParams(1.0, np.ones(n)) for _ in range(q)]
    assert _worker_cpu_s(lambda: fit(ds, params)) < 0.03


def test_suspension_lqr_wakes_no_worker():
    A, B = linear_matrices(make_suspension_plant(SUSPENSION_NOMINAL, 0.0, 0.0, 1.0))
    assert _worker_cpu_s(lambda: lqr_gain(A, B, 10.0 * np.eye(4), np.array([[1.0]]))) < 0.03
