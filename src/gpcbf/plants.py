"""Benchmark plants: the true dynamics as one vector field each.

Two closed-loop case studies: adaptive cruise control (keep a safe headway
while tracking a desired speed) and a quarter-car active suspension (bound
the body displacement under a road bump).  A plant is what the runner
integrates: the true-parameter field, with the road disturbance folded in.
The nominal model reaches the filter only through the barrier designs,
whose Lie-derivative chains are hand-derived below (relative degree two
throughout).  A synthetic double integrator with an optional drift mismatch
rounds out the set for end-to-end sanity checks.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.linalg import solve_continuous_are

from .barrier import HocbfDesign, halfspace_qp_filter

# Parameter sets as reported for the two case studies.
ACC_NOMINAL = dict(m=825.0, f0=0.1, f1=5.0, f2=0.25, v0=16.0)
ACC_TRUE = dict(m=3300.0, f0=0.2, f1=10.0, f2=0.5, v0=14.0)
SUSPENSION_NOMINAL = dict(m1=300.0, m2=60.0, k1=16e3, k2=190e3, b=1e3)
SUSPENSION_TRUE = dict(m1=675.0, m2=135.0, k1=36e3, k2=427.5e3, b=2.25e3)

# State dimension n of each plant, by config name.
STATE_DIMENSION = {"acc": 2, "suspension": 4, "synthetic": 2}
# Relative degree r of each plant's barrier, by config name; it fixes the gain count.
RELATIVE_DEGREE = {"acc": 2, "suspension": 2, "synthetic": 2}


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


# The fields below work on Python floats and add the input term as (1/m) u
# after the drift, never (drift + u) / m: closed-loop outputs depend on that
# rounding.


def acc_dynamics(x, u: float, p: AccParams) -> tuple:
    """x = [v, z]: ego speed and headway; vdot = -F_r(v) / m + u / m, zdot = v0 - v."""
    v = x[0]
    return (-p.rolling_resistance(v) / p.m + (1.0 / p.m) * u, p.v0 - v)


def suspension_dynamics(x, u: float, d: float, p: SuspensionParams) -> tuple:
    """x = [x1, x2, x3, x4]: body/wheel displacements then velocities; d is the road height."""
    x1, x2, x3, x4 = x
    wheel = (p.k1 * (x1 - x2) - p.k2 * x2 + p.b * (x3 - x4)) / p.m2 - (1.0 / p.m2) * u
    if d != 0.0:
        wheel = wheel + (p.k2 / p.m2) * d
    return (x3, x4, (p.k1 * (x2 - x1) + p.b * (x4 - x3)) / p.m1 + (1.0 / p.m1) * u, wheel)


@dataclass(frozen=True)
class PlantModel:
    """True dynamics xdot = field(x, u, t), disturbances included.

    field takes the state and the input as float sequences (n and m entries)
    and the time as a float, and returns xdot as a tuple of n floats.
    """

    name: str
    n: int
    m: int
    field: Callable[[Sequence[float], Sequence[float], float], tuple]


def make_acc_plant(params: dict = ACC_TRUE) -> PlantModel:
    p = AccParams(**params)
    return PlantModel(
        name="acc", n=STATE_DIMENSION["acc"], m=1, field=lambda x, u, t: acc_dynamics(x, u[0], p)
    )


def make_suspension_plant(
    params: dict = SUSPENSION_TRUE, road: Optional[Callable[[float], float]] = None
) -> PlantModel:
    """Quarter car driven over the road height profile road(t) (flat when None)."""
    p = SuspensionParams(**params)

    def field(x, u, t):
        return suspension_dynamics(x, u[0], road(t) if road is not None else 0.0, p)

    return PlantModel(name="suspension", n=STATE_DIMENSION["suspension"], m=1, field=field)


def make_synthetic_plant(mismatch: float = 0.0) -> PlantModel:
    """Double integrator; mismatch scales an extra drift on the acceleration."""

    def field(x, u, t):
        x0 = x[0]  # x0 * x0, not x0 ** 2: float ** raises OverflowError where * gives inf
        return (x[1], mismatch * (1.0 + 0.5 * (x0 * x0)) + u[0])

    return PlantModel(name="synthetic", n=STATE_DIMENSION["synthetic"], m=1, field=field)


# ---------------------------------------------------------------------------
# hand-derived barrier designs (relative degree two throughout)
# ---------------------------------------------------------------------------


def acc_design(params: dict, gains, D: float = 30.0) -> HocbfDesign:
    """Headway barrier h = z - D for the cruise-control model.

    Lf h = v0 - v;  Lf^2 h = F_r(v) / m;  Lg Lf h = -1 / m.
    """
    p = AccParams(**params)

    return HocbfDesign(
        r=RELATIVE_DEGREE["acc"],
        gains=np.asarray(gains, dtype=float),
        h=lambda x: x[1] - D,
        lie_f_chain=(
            lambda x: p.v0 - x[0],
            lambda x: p.rolling_resistance(x[0]) / p.m,
        ),
        lie_g=lambda x: np.array([-1.0 / p.m]),
        m=1,
    )


def suspension_design(params: dict, gains, D: float = 0.06) -> HocbfDesign:
    """Body-displacement barrier h = D - x1.

    Lf h = -x3;  Lf^2 h = -(k1 (x2 - x1) + b (x4 - x3)) / m1;  Lg Lf h = -1 / m1.
    """
    p = SuspensionParams(**params)

    return HocbfDesign(
        r=RELATIVE_DEGREE["suspension"],
        gains=np.asarray(gains, dtype=float),
        h=lambda x: D - x[0],
        lie_f_chain=(
            lambda x: -x[2],
            lambda x: -(p.k1 * (x[1] - x[0]) + p.b * (x[3] - x[2])) / p.m1,
        ),
        lie_g=lambda x: np.array([-1.0 / p.m1]),
        m=1,
    )


def double_integrator_design(gains, D: float = 1.0) -> HocbfDesign:
    """Position barrier h = D - x1 for the synthetic double integrator."""
    return HocbfDesign(
        r=RELATIVE_DEGREE["synthetic"],
        gains=np.asarray(gains, dtype=float),
        h=lambda x: D - x[0],
        lie_f_chain=(lambda x: -x[1], lambda x: 0.0),
        lie_g=lambda x: np.array([-1.0]),
        m=1,
    )


# ---------------------------------------------------------------------------
# integration and nominal controllers
# ---------------------------------------------------------------------------


def rk4_step(field, x, u, t: float, dt: float, substeps: int = 1) -> list:
    """Classical fourth-order Runge-Kutta over one zero-order hold of u.

    Takes substeps steps of dt from (x, t) on Python floats and returns the
    state after each one as a tuple of floats.  The list stops before the
    first non-finite state, so a short list means the state diverged.  Every
    operation follows the left-to-right order of
    x + (dt/6) (k1 + 2 k2 + 2 k3 + k4), with t advanced by t = t + dt per
    step, so the states equal that formula evaluated elementwise in numpy,
    bit for bit.
    """
    x = np.asarray(x, dtype=float).ravel().tolist()
    u = np.asarray(u, dtype=float).ravel().tolist()
    half = 0.5 * dt
    sixth = dt / 6.0
    isfinite = math.isfinite
    states = []
    for _ in range(substeps):
        t_mid = t + half
        k1 = field(x, u, t)
        k2 = field([a + half * k for a, k in zip(x, k1)], u, t_mid)
        k3 = field([a + half * k for a, k in zip(x, k2)], u, t_mid)
        k4 = field([a + dt * k for a, k in zip(x, k3)], u, t + dt)
        x = tuple(
            [
                a + sixth * (((b1 + 2.0 * b2) + 2.0 * b3) + b4)
                for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)
            ]
        )
        if not all(map(isfinite, x)):
            break
        states.append(x)
        t = t + dt
    return states


def lqr_gain(A, B, Q, R):
    """Continuous-time LQR gain K = R^{-1} B^T P.

    P solves the algebraic Riccati equation
    A^T P + P A - P B R^{-1} B^T P + Q = 0 (scipy's Schur-method solver).
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.asarray(B, dtype=float).reshape(A.shape[0], -1)
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    R = np.atleast_2d(np.asarray(R, dtype=float))
    P = solve_continuous_are(A, B, Q, R)
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
    v = x[0]
    err = v - v_d
    a = np.array([-2.0 * err / p.m])
    b = 2.0 * err * p.rolling_resistance(v) / p.m - lambda_rate * err * err
    if a[0] == 0.0:
        return np.zeros(1)
    return halfspace_qp_filter(np.zeros(1), a, b)


def road_profile(t: float, amplitude: float = 0.08, start: float = 1.0, width: float = 1.0) -> float:
    """Smooth bump: amplitude * sin^2(pi (t - start) / width) inside the window."""
    if start <= t <= start + width:
        s = np.sin(np.pi * (t - start) / width)
        return float(amplitude * s * s)
    return 0.0
