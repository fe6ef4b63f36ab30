"""Benchmark plants: the true dynamics as one vector field each.

Two closed-loop case studies: adaptive cruise control (keep a safe headway
while tracking a desired speed) and a quarter-car active suspension (bound
the body displacement under a road bump).  A plant is what the runner
integrates: the true-parameter field, with the road disturbance folded in.
The nominal model reaches the filter only through the barrier designs,
whose Lie-derivative chains are hand-derived below (relative degree two
throughout).
"""

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .barrier import HocbfDesign, halfspace_qp_filter

# Parameter sets as reported for the two case studies.
ACC_NOMINAL = dict(m=825.0, f0=0.1, f1=5.0, f2=0.25, v0=16.0)
ACC_TRUE = dict(m=3300.0, f0=0.2, f1=10.0, f2=0.5, v0=14.0)
SUSPENSION_NOMINAL = dict(m1=300.0, m2=60.0, k1=16e3, k2=190e3, b=1e3)
SUSPENSION_TRUE = dict(m1=675.0, m2=135.0, k1=36e3, k2=427.5e3, b=2.25e3)

# (n, m, r) of each plant, by config name: state dimension, input count and
# the relative degree of its barrier.  r fixes the gain count, and r + m the
# number of base kernels.
DIMENSIONS = {"acc": (2, 1, 2), "suspension": (4, 1, 2)}


@dataclass(frozen=True)
class AccParams:
    """Ego-car mass, rolling-resistance coefficients, lead-car speed."""

    m: float
    f0: float
    f1: float
    f2: float
    v0: float

    def __post_init__(self):
        if self.m <= 0.0:
            raise ValueError("mass must be positive")

    def rolling_resistance(self, v: float) -> float:
        return self.f0 + self.f1 * v + self.f2 * v * v


@dataclass(frozen=True)
class SuspensionParams:
    """Body/wheel masses, suspension/tire stiffnesses, damping."""

    m1: float
    m2: float
    k1: float
    k2: float
    b: float

    def __post_init__(self):
        for name in ("m1", "m2", "k1", "k2", "b"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class PlantModel:
    """True dynamics xdot = field(x, u, t), disturbances included.

    field takes the state and the input as float sequences (n and m entries)
    and the time as a float, and returns xdot as a tuple of n floats.
    """

    n: int
    m: int
    field: Callable[[Sequence[float], Sequence[float], float], tuple]


# Each field is one closure over its parameters, on Python floats.  It adds
# the input term as (1/m) u after the drift, never (drift + u) / m: closed-loop
# outputs depend on that rounding.


def make_acc_plant(params: dict = ACC_TRUE) -> PlantModel:
    """x = [v, z]: ego speed and headway; vdot = -F_r(v) / m + u / m, zdot = v0 - v."""
    p = AccParams(**params)
    m, f0, f1, f2, v0 = p.m, p.f0, p.f1, p.f2, p.v0
    inv_m = 1.0 / m

    def field(x, u, t):
        v = x[0]
        return (-(f0 + f1 * v + f2 * v * v) / m + inv_m * u[0], v0 - v)

    return PlantModel(*DIMENSIONS["acc"][:2], field)


def make_suspension_plant(
    params: dict = SUSPENSION_TRUE, road: Optional[Callable[[float], float]] = None
) -> PlantModel:
    """Quarter car driven over the road height profile road(t) (flat when None).

    x = [x1, x2, x3, x4]: body/wheel displacements then velocities; a nonzero
    road height d adds (k2 / m2) d to the wheel acceleration.
    """
    p = SuspensionParams(**params)
    m1, m2, k1, k2, b = p.m1, p.m2, p.k1, p.k2, p.b
    inv_m1, inv_m2, road_gain = 1.0 / m1, 1.0 / m2, k2 / m2

    def field(x, u, t):
        x1, x2, x3, x4 = x
        u0 = u[0]
        wheel = (k1 * (x1 - x2) - k2 * x2 + b * (x3 - x4)) / m2 - inv_m2 * u0
        if road is not None:
            d = road(t)
            if d != 0.0:
                wheel = wheel + road_gain * d
        return (x3, x4, (k1 * (x2 - x1) + b * (x4 - x3)) / m1 + inv_m1 * u0, wheel)

    return PlantModel(*DIMENSIONS["suspension"][:2], field)


# ---------------------------------------------------------------------------
# hand-derived barrier designs (relative degree two throughout)
# ---------------------------------------------------------------------------


def acc_design(params: dict, gains, D: float = 30.0) -> HocbfDesign:
    """Headway barrier h = z - D for the cruise-control model.

    Lf h = v0 - v;  Lf^2 h = F_r(v) / m;  Lg Lf h = -1 / m.
    """
    p = AccParams(**params)

    return HocbfDesign(
        gains=np.asarray(gains, dtype=float),
        h=lambda x: x[1] - D,
        lie_f_chain=(
            lambda x: p.v0 - x[0],
            lambda x: p.rolling_resistance(x[0]) / p.m,
        ),
        lie_g=lambda x: np.array([-1.0 / p.m]),
    )


def suspension_design(params: dict, gains, D: float = 0.06) -> HocbfDesign:
    """Body-displacement barrier h = D - x1.

    Lf h = -x3;  Lf^2 h = -(k1 (x2 - x1) + b (x4 - x3)) / m1;  Lg Lf h = -1 / m1.
    """
    p = SuspensionParams(**params)

    return HocbfDesign(
        gains=np.asarray(gains, dtype=float),
        h=lambda x: D - x[0],
        lie_f_chain=(
            lambda x: -x[2],
            lambda x: -(p.k1 * (x[1] - x[0]) + p.b * (x[3] - x[2])) / p.m1,
        ),
        lie_g=lambda x: np.array([-1.0 / p.m1]),
    )


# ---------------------------------------------------------------------------
# integration and nominal controllers
# ---------------------------------------------------------------------------


# One RK4 hold per state dimension n, built from this source with the state
# and the stages as named float locals, the way dataclasses and namedtuple
# build their methods.  Each stage passes the field a tuple of n floats, and
# every operation keeps the left-to-right order of
# x + (dt/6) (k1 + 2 k2 + 2 k3 + k4).
_RK4_HOLD_SOURCE = """\
def hold(field, x, u, t, dt, substeps):
    half = 0.5 * dt
    sixth = dt / 6.0
    {x} = x
    states = []
    for _ in range(substeps):
        t_mid = t + half
        {k1} = field({x}, u, t)
        {k2} = field({x_half_k1}, u, t_mid)
        {k3} = field({x_half_k2}, u, t_mid)
        {k4} = field({x_dt_k3}, u, t + dt)
{update}
        if not ({finite}):
            break
        states.append({x})
        t = t + dt
    return states
"""


def _rk4_hold_source(n: int) -> str:
    """_RK4_HOLD_SOURCE written out for states of n entries."""

    def tup(items) -> str:
        return "(" + "".join(f"{item}, " for item in items) + ")"

    xs = [f"x{i}" for i in range(n)]
    k1, k2, k3, k4 = ([f"{s}{i}" for i in range(n)] for s in "abcd")
    update = [
        f"        {x} = {x} + sixth * ((({a} + 2.0 * {b}) + 2.0 * {c}) + {d})"
        for x, a, b, c, d in zip(xs, k1, k2, k3, k4)
    ]
    return _RK4_HOLD_SOURCE.format(
        x=tup(xs),
        k1=tup(k1),
        k2=tup(k2),
        k3=tup(k3),
        k4=tup(k4),
        x_half_k1=tup(f"{x} + half * {k}" for x, k in zip(xs, k1)),
        x_half_k2=tup(f"{x} + half * {k}" for x, k in zip(xs, k2)),
        x_dt_k3=tup(f"{x} + dt * {k}" for x, k in zip(xs, k3)),
        update="\n".join(update),
        finite=" and ".join(f"isfinite({x})" for x in xs),
    )


@functools.cache
def _rk4_hold(n: int) -> Callable:
    """The RK4 hold for states of n entries, built on the first call for each n."""
    namespace = {"isfinite": math.isfinite}
    exec(compile(_rk4_hold_source(n), f"<rk4 hold, n={n}>", "exec"), namespace)
    return namespace["hold"]


def rk4_step(field, x, u, t: float, dt: float, substeps: int = 1) -> list:
    """Classical fourth-order Runge-Kutta over one zero-order hold of u.

    Takes substeps steps of dt from (x, t) on Python floats and returns the
    state after each one as a tuple of floats.  The list stops before the
    first non-finite state, so a short list means the state diverged.  Every
    operation follows the left-to-right order of
    x + (dt/6) (k1 + 2 k2 + 2 k3 + k4), with t advanced by t = t + dt per
    step, so the states equal that formula evaluated elementwise in numpy,
    bit for bit.  The stages run on named float locals in a hold built once
    per state dimension; field gets the stage state as a tuple and u as a
    list of floats.
    """
    x = np.asarray(x, dtype=float).ravel().tolist()
    u = np.asarray(u, dtype=float).ravel().tolist()
    return _rk4_hold(len(x))(field, x, u, t, dt, substeps)


def lqr_gain(A, B, Q, R):
    """Continuous-time LQR gain K = R^{-1} B^T P.

    P solves the algebraic Riccati equation
    A^T P + P A - P B R^{-1} B^T P + Q = 0 by the ordered real Schur method
    (Laub, IEEE TAC 1979): the Schur vectors [U11; U21] of the stable
    invariant subspace of the Hamiltonian H = [[A, -B R^{-1} B^T], [-Q, -A^T]]
    give P = U21 U11^{-1}, symmetrized.  It raises ``LinAlgError`` when H
    has fewer than n stable eigenvalues or U11 is singular to working
    precision, where no stabilizing solution exists.

    scipy's ``solve_continuous_are`` ends with ``solve_triangular`` on an
    n x n right-hand side, which OpenBLAS hands to a second thread even at
    4 x 4; that thread then busy-waits for about 0.13 s of CPU.  The real
    Schur decomposition, numpy's ``solve`` (``gesv``) and the SVD behind
    ``cond`` were measured to stay on the calling thread at n = 2 and
    n = 4, the benchmarks' sizes.

    The Schur form is LAPACK ``dgees``, called as
    ``scipy.linalg.schur(H, output="real", sort="lhp")`` calls it: a
    workspace query, then the ordered decomposition with the left
    half-plane selected, and the same checks on H and on ``info``.  It is
    imported here, so the plant tables that config validation reads come
    without loading scipy's LAPACK module.
    """
    from ._lapack import dgees

    A = np.atleast_2d(np.asarray(A, dtype=float))
    n = A.shape[0]
    B = np.asarray(B, dtype=float).reshape(n, -1)
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    R = np.atleast_2d(np.asarray(R, dtype=float))
    H = np.asarray_chkfinite(np.block([[A, -B @ np.linalg.solve(R, B.T)], [-Q, -A.T]]))
    lwork = dgees(lambda x: None, H, lwork=-1)[-2][0].real.astype(np.int_)
    _, sdim, _, _, U, _, info = dgees(lambda x, y=None: x.real < 0.0, H, lwork=lwork, sort_t=1)
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal gees")
    if info == 2 * n + 1:  # H is 2n x 2n
        raise np.linalg.LinAlgError("Eigenvalues could not be separated for reordering.")
    if info == 2 * n + 2:
        raise np.linalg.LinAlgError("Leading eigenvalues do not satisfy sort condition.")
    if info > 0:
        raise np.linalg.LinAlgError("Schur form not found. Possibly ill-conditioned.")
    U11, U21 = U[:n, :n], U[n:, :n]
    if sdim != n or np.linalg.cond(U11) * np.finfo(float).eps >= 1.0:
        raise np.linalg.LinAlgError("the Hamiltonian has no n-dimensional stable subspace")
    P = np.linalg.solve(U11.T, U21.T).T  # P U11 = U21
    P = 0.5 * (P + P.T)
    K = np.linalg.solve(R, B.T @ P)
    return K, P


def suspension_linear_matrices(params: dict):
    """State-space (A, B) of the suspension model (it is linear)."""
    p = SuspensionParams(**params)
    A = np.array(
        [
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [-p.k1 / p.m1, p.k1 / p.m1, -p.b / p.m1, p.b / p.m1],
            [p.k1 / p.m2, -(p.k1 + p.k2) / p.m2, p.b / p.m2, -p.b / p.m2],
        ]
    )
    B = np.array([[0.0], [0.0], [1.0 / p.m1], [-1.0 / p.m2]])
    return A, B


def clf_nominal_acc(x, v_d: float, lambda_rate: float, p: AccParams) -> np.ndarray:
    """Min-norm speed-tracking control for V = (v - v_d)^2 on the nominal model.

    The decay condition Vdot <= -lambda V is the half-space a u + b >= 0 with
    a = -2 (v - v_d) / m and b = 2 (v - v_d) F_r(v) / m - lambda V; the
    projection of u = 0 onto it is closed form.
    """
    v = float(x[0])
    err = v - v_d
    a = -2.0 * err / p.m
    b = 2.0 * err * p.rolling_resistance(v) / p.m - lambda_rate * err * err
    if a == 0.0:
        return np.zeros(1)
    return halfspace_qp_filter(0.0, a, b)


def road_profile(t: float, amplitude: float, start: float, width: float) -> float:
    """Smooth bump: amplitude * sin^2(pi (t - start) / width) inside the window.

    It runs at every RK4 stage inside the bump, so it takes Python floats
    and ``math.sin``, without numpy's per-scalar dispatch.  ``math.sin``
    returned ``np.sin``'s bits at all 2,000,001 evenly spaced times of the
    default bump, on a CPU with AVX-512.
    """
    if start <= t <= start + width:
        s = math.sin(math.pi * (t - start) / width)
        return float(amplitude * s * s)
    return 0.0
