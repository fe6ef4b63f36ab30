"""Benchmark plants: the true dynamics as one vector field each.

Two closed-loop case studies: adaptive cruise control (keep a safe headway
while tracking a desired speed) and a quarter-car active suspension (bound
the body displacement under a road bump).  A plant is what the runner
integrates: the true-parameter field, with the road disturbance folded in,
declared once as derivative statements from which the plant's field and
its RK4 hold are generated.  The nominal model reaches the filter only
through the barrier designs, whose Lie chains are declared as statements of
the same kind and compiled by the same generator.
"""

import ast
import functools
import math
from dataclasses import dataclass
from typing import Callable

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


@dataclass(frozen=True, eq=False)
class PlantModel:
    """True dynamics xdot = f(x, u, t), disturbances included, declared once as source.

    ``derivatives`` holds Python statements that read the state as x0 ..
    x{n-1}, the input as u0 .. u{m-1}, the time as t and the names in
    ``params``, and assign xdot as dx0 .. dx{n-1}; any other name they
    assign is a temporary, and no name starts with an underscore.  From that
    one source the plant builds, on first use, ``field(x, u, t)``, which
    takes x and u as float sequences of n and m entries and returns xdot as
    a tuple of n floats, and ``hold``, the RK4 hold that :func:`rk4_step`
    runs with the statements written out at each stage.
    """

    n: int
    m: int
    derivatives: str
    params: dict

    def _build(self, name: str) -> Callable:
        xdot = _tuple(f"dx{i}" for i in range(self.n))
        return _generated(self.params, self.derivatives, name, self.n, self.m, xdot)

    @functools.cached_property
    def field(self) -> Callable:
        return self._build("field")

    @functools.cached_property
    def hold(self) -> Callable:
        return self._build("hold")


# Each field adds the input term as (1/m) u after the drift, never
# (drift + u) / m: closed-loop outputs depend on that rounding.


def make_acc_plant(params: dict = ACC_TRUE) -> PlantModel:
    """x = [v, z]: ego speed and headway; vdot = -F_r(v) / m + u / m, zdot = v0 - v."""
    p = AccParams(**params)
    return PlantModel(
        *DIMENSIONS["acc"][:2],
        "dx0 = -(f0 + f1 * x0 + f2 * x0 * x0) / m + inv_m * u0\ndx1 = v0 - x0",
        dict(m=p.m, f0=p.f0, f1=p.f1, f2=p.f2, v0=p.v0, inv_m=1.0 / p.m),
    )


def make_suspension_plant(params: dict, amplitude: float, start: float, width: float) -> PlantModel:
    """Quarter car driven over a road bump of height d(t) (flat when amplitude is 0).

    x = [x1, x2, x3, x4] (x0 .. x3 in the source): body/wheel displacements
    then velocities.  d = amplitude sin^2(pi (t - start) / width) inside
    start <= t <= start + width, else 0; a nonzero d adds (k2 / m2) d to the
    wheel acceleration.  ``math.sin`` returned ``np.sin``'s bits at all
    2,000,001 evenly spaced times of the default bump, on a CPU with AVX-512.
    """
    p = SuspensionParams(**params)
    return PlantModel(
        *DIMENSIONS["suspension"][:2],
        "wheel = (k1 * (x0 - x1) - k2 * x1 + b * (x2 - x3)) / m2 - inv_m2 * u0\n"
        "if start <= t <= start + width:\n"
        "    s = sin(pi * (t - start) / width)\n"
        "    d = amplitude * s * s\n"
        "    if d != 0.0:\n"
        "        wheel = wheel + road_gain * d\n"
        "dx0 = x2\ndx1 = x3\n"
        "dx2 = (k1 * (x1 - x0) + b * (x3 - x2)) / m1 + inv_m1 * u0\ndx3 = wheel",
        dict(
            m1=p.m1, m2=p.m2, k1=p.k1, k2=p.k2, b=p.b, inv_m1=1.0 / p.m1, inv_m2=1.0 / p.m2,
            road_gain=p.k2 / p.m2, amplitude=amplitude, start=start, width=width,
            sin=math.sin, pi=math.pi,
        ),
    )


# ---------------------------------------------------------------------------
# barrier designs on the nominal parameters, declared as derivative source
# ---------------------------------------------------------------------------


def acc_design(params: dict, gains, D: float = 30.0) -> HocbfDesign:
    """Headway barrier h = z - D (x1 in the source) of the cruise control: Lf^2 h = F_r(v) / m."""
    p = AccParams(**params)
    return HocbfDesign(
        *DIMENSIONS["acc"][:2],
        "h = x1 - D\nlf1 = v0 - x0\nlf2 = (f0 + f1 * x0 + f2 * x0 * x0) / m\nlg0 = -1.0 / m",
        dict(m=p.m, f0=p.f0, f1=p.f1, f2=p.f2, v0=p.v0, D=D),
        np.asarray(gains, dtype=float),
    )


def suspension_design(params: dict, gains, D: float = 0.06) -> HocbfDesign:
    """Body-displacement barrier h = D - x1 (x0 in the source): Lf^2 h is -x1'' at u = 0."""
    p = SuspensionParams(**params)
    return HocbfDesign(
        *DIMENSIONS["suspension"][:2],
        "h = D - x0\nlf1 = -x2\nlf2 = -(k1 * (x1 - x0) + b * (x3 - x2)) / m1\nlg0 = -1.0 / m1",
        dict(m1=p.m1, k1=p.k1, b=p.b, D=D),
        np.asarray(gains, dtype=float),
    )


# ---------------------------------------------------------------------------
# integration and nominal controllers
# ---------------------------------------------------------------------------


# Functions generated from derivative statements, with the state, the input
# and the stages as named float locals, the way dataclasses and namedtuple
# build their methods.  A function runs the statements its returned names
# depend on; called without u and t, it serves a design's evaluators of x.
# The hold writes the plant's statements out at each stage, renamed to the
# stage's state, time and slopes, and every operation keeps the
# left-to-right order of x + (dt/6) (k1 + 2 k2 + 2 k3 + k4).
_FUNCTION_SOURCE = """\
def {name}(_x, _u=(), t=0.0):
    {x} = _x
    {u} = _u
{body}
    return {returns}
"""

_RK4_HOLD_SOURCE = """\
def hold(_x, _u, t, _dt, _substeps):
    _half = 0.5 * _dt
    _sixth = _dt / 6.0
    {x} = _x
    {u} = _u
    _states = []
    for _ in _range(_substeps):
        _t_mid = t + _half
        _t_end = t + _dt
{k1}
{x_half_k1}
{k2}
{x_half_k2}
{k3}
{x_dt_k3}
{k4}
{update}
        if not ({finite}):
            break
        _states.append({x})
        t = _t_end
    return _states
"""


def _tuple(names) -> str:
    return "(" + "".join(f"{v}, " for v in names) + ")"


def _statements(derivatives: str, returned, names: dict, indent: str) -> str:
    """The statements that the returned names depend on, in order, each name in names renamed."""
    needed, kept = set(returned), []
    for statement in reversed(ast.parse(derivatives).body):
        used = [node for node in ast.walk(statement) if isinstance(node, ast.Name)]
        if needed & {node.id for node in used if isinstance(node.ctx, ast.Store)}:
            kept.insert(0, statement)
            needed |= {node.id for node in used}
    tree = ast.Module(kept, [])
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            node.id = names.get(node.id, node.id)
    return "\n".join(indent + line for line in ast.unparse(tree).splitlines())


@functools.cache
def _compiled(derivatives: str, name: str, n: int, m: int, returns: str):
    """Code of the function ``name`` generated from derivative statements, compiled once per source.

    It reads the state as x0 .. x{n-1}, the input as u0 .. u{m-1} and the
    time as t, and returns the expression ``returns``.  The name "hold"
    builds a plant's RK4 hold instead, whose returns are the derivatives.
    """
    xs, us = [f"x{i}" for i in range(n)], [f"u{i}" for i in range(m)]
    returned = [node.id for node in ast.walk(ast.parse(returns)) if isinstance(node, ast.Name)]
    names = [node for node in ast.walk(ast.parse(derivatives)) if isinstance(node, ast.Name)]
    stored = {node.id for node in names if isinstance(node.ctx, ast.Store)}
    if stored & {*xs, *us, "t"} or not stored >= {*returned} or any(v.id[0] == "_" for v in names):
        raise ValueError(
            f"derivatives must assign {', '.join(returned)}, may assign no state, input or t, "
            "and may name nothing with a leading underscore"
        )
    x, u = _tuple(xs), _tuple(us)
    if name != "hold":
        body = _statements(derivatives, returned, {}, " " * 4)
        source = _FUNCTION_SOURCE.format(name=name, x=x, u=u, body=body, returns=returns)
        return compile(source, f"<generated {name}>", "exec")
    k = [[f"_{s}{i}" for i in range(n)] for s in "abcd"]  # the stages' slopes
    y = [xs] + [[f"_x{s}{i}" for i in range(n)] for s in "bcd"]  # the stages' states

    def stage(s: int, t: str) -> str:
        renamed = {**dict(zip(xs + returned, y[s] + k[s])), "t": t}
        return _statements(derivatives, returned, renamed, " " * 8)

    def state(s: int, step: str) -> str:
        return "\n".join(f"        {a} = {b} + {step} * {c}" for a, b, c in zip(y[s], xs, k[s - 1]))

    update = (
        f"        {x} = {x} + _sixth * ((({a} + 2.0 * {b}) + 2.0 * {c}) + {d})"
        for x, a, b, c, d in zip(xs, *k)
    )
    source = _RK4_HOLD_SOURCE.format(
        x=x, u=u, k1=stage(0, "t"), x_half_k1=state(1, "_half"),
        k2=stage(1, "_t_mid"), x_half_k2=state(2, "_half"), k3=stage(2, "_t_mid"),
        x_dt_k3=state(3, "_dt"), k4=stage(3, "_t_end"), update="\n".join(update),
        finite=" and ".join(f"_isfinite({x})" for x in xs),
    )  # fmt: skip
    return compile(source, "<generated hold>", "exec")


def _generated(params: dict, derivatives: str, name: str, n: int, m: int, returns: str):
    """The function that :func:`_compiled` generates, run with params as its globals."""
    namespace = dict(params, _isfinite=math.isfinite, _range=range)
    exec(_compiled(derivatives, name, n, m, returns), namespace)
    return namespace[name]


def rk4_step(plant: PlantModel, x, u, t: float, dt: float, substeps: int = 1) -> list:
    """Classical fourth-order Runge-Kutta over one zero-order hold of u.

    Takes substeps steps of dt from (x, t), with x and u float sequences of
    the plant's n and m entries, and returns the state after each one as a
    tuple of floats.  The list stops before the first non-finite state, so
    a short list means the state diverged.  Every operation follows the
    left-to-right order of x + (dt/6) (k1 + 2 k2 + 2 k3 + k4), with t
    advanced by t = t + dt per step, so the states equal that formula
    evaluated elementwise in numpy on the plant's field, bit for bit.  The
    hold is the plant's own, with its derivative statements written out at
    each stage.
    """
    return plant.hold(x, u, t, dt, substeps)


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


def linear_matrices(plant: PlantModel):
    """(A, B) of a plant whose field at t = 0 is A x + B u: its values at unit vectors."""
    unit = np.eye(plant.n + plant.m).tolist()
    columns = [plant.field(e[: plant.n], e[plant.n :], 0.0) for e in unit]
    return np.column_stack(columns[: plant.n]), np.column_stack(columns[plant.n :])


def clf_nominal_acc(x, v_d: float, lambda_rate: float, p: AccParams) -> tuple:
    """Min-norm speed-tracking control for V = (v - v_d)^2 on the nominal model.

    The decay condition Vdot <= -lambda V is the half-space a u + b >= 0 with
    a = -2 (v - v_d) / m and b = 2 (v - v_d) F_r(v) / m - lambda V; the
    projection of u = 0 onto it is closed form, a tuple of one float.
    """
    v = float(x[0])
    err = v - v_d
    a = -2.0 * err / p.m
    b = 2.0 * err * p.rolling_resistance(v) / p.m - lambda_rate * err * err
    if a == 0.0:
        return (0.0,)
    return halfspace_qp_filter([0.0], [a], b)

