"""Independent oracles used by the tests.

Everything here deliberately avoids the package's own code paths: symbolic
Lie chains via sympy, derived from a plant's own derivative statements run
on symbols, a from-scratch stacked-input GP, an exactly summed
forward substitution for the posterior covariance, a dense linear solve for
the necessary feasibility condition, a brute-force Riccati ODE integrator,
dense grid searches, the one-input filter cone in closed form and exact
rationals, and the references that float paths must match bit for bit: the
vectorised numpy RK4 step with numpy plant fields (the suspension's road
bump as a function of t) and random polynomial fields, the vector
half-space projection, a ``csv.writer`` episode writer, the posterior
query with a list of triangular solves, and the certificate
terms evaluated on numpy scalars.  It also holds the double integrator with
a drift mismatch and its position barrier, the small closed loop that the
episode and training tests run on, and random polynomial plants; these
plants and the barrier are declared through the package's derivative
source, the route whose generated functions the tests check.
"""

import csv
import math
from fractions import Fraction

import mpmath
import numpy as np
import sympy as sp
from scipy.linalg.blas import dtrsv

from gpcbf.barrier import HocbfDesign
from gpcbf.plants import PlantModel


class SymbolicSystem:
    """Exact Lie-derivative chain for a control-affine system via sympy.

    g holds one column per input; :meth:`zeta_r` takes one input.
    """

    def __init__(self, states, f_exprs, g_exprs, h_expr):
        self.states = list(states)
        self.n = len(self.states)
        self.f = sp.Matrix(f_exprs)
        self.g = sp.Matrix(g_exprs)
        self.h = sp.sympify(h_expr)

    def lf_chain(self, order):
        """Expressions Lf^i h for i = 0..order."""
        exprs = [self.h]
        for _ in range(order):
            grad = sp.Matrix([exprs[-1]]).jacobian(self.states)
            exprs.append(sp.expand((grad * self.f)[0, 0]))
        return exprs

    def lg_row(self, expr):
        """The row Lg expr, one expression per input."""
        grad = sp.Matrix([expr]).jacobian(self.states)
        return [sp.expand(v) for v in grad * self.g]

    def lambdify_chain(self, r):
        chain = self.lf_chain(r)
        lfs = [sp.lambdify(self.states, e, "numpy") for e in chain]
        lg = sp.lambdify(self.states, self.lg_row(chain[r - 1])[0], "numpy")
        return lfs, lg

    def zeta_r(self, gains, x, u):
        """Direct recursion zeta_i = d/dt zeta_{i-1} + k_i zeta_{i-1}, exact."""
        usym = sp.Symbol("u_oracle")
        zeta = self.h
        for k in gains:
            grad = sp.Matrix([zeta]).jacobian(self.states)
            zeta = sp.expand((grad * (self.f + self.g * usym))[0, 0] + k * zeta)
        fn = sp.lambdify(list(self.states) + [usym], zeta, "numpy")
        return float(fn(*x, u))


def run_statements(derivatives, params, names):
    """The namespace after derivative statements ran on params and names, sympy symbols allowed."""
    namespace = dict(params, **names)
    exec(derivatives, namespace)
    return namespace


def plant_symbolic_system(plant, design):
    """The plant's own statements run on symbols x0 .. x{n-1} at t = 0, as a SymbolicSystem.

    f is the field at u = 0, and the j-th column of g is the field at
    u = e_j less f; h is the one that the design's statements assign.
    """
    xs = sp.symbols(f"x0:{plant.n}")
    states = {str(x): x for x in xs}

    def field(u):
        names = dict(states, t=0.0, **{f"u{j}": v for j, v in enumerate(u)})
        namespace = run_statements(plant.derivatives, plant.params, names)
        return [sp.sympify(namespace[f"dx{i}"]) for i in range(plant.n)]

    f = field([0.0] * plant.m)
    columns = [field(e) for e in np.eye(plant.m).tolist()]
    g = [[sp.expand(column[i] - f[i]) for column in columns] for i in range(plant.n)]
    h = run_statements(design.derivatives, design.params, states)["h"]
    return SymbolicSystem(xs, f, g, h)


def certificate_value(cert, gamma, u):
    """zeta_r(x, u) = zf . gamma + const + zg . u from a state's certificate terms."""
    return float(cert.zf @ gamma + cert.const + cert.zg @ np.atleast_1d(u))


def posterior_coefficients_rows(model, xstar):
    """Posterior (mu, Sigma) with one ``dtrsv`` per row of Kbar into a list.

    Kbar is built with the query's own operations and order, the solves
    return fresh rows that are stacked into V^T, and Sigma is symmetrized
    as 0.5 (S + S^T) before the 1e-12 diagonal floor is added.
    """
    xstar = np.atleast_1d(np.asarray(xstar, dtype=float))
    q = model.sf2.size
    lam = np.diag(model.sf2)
    if len(model.dataset) == 0:
        return np.zeros(q), lam + 1e-12 * np.eye(q)
    diff2 = (xstar[None, :] - model.dataset.X) ** 2
    kbar = model.sf2[:, None] * np.exp(-0.5 * (model.inv_ell2 @ diff2.T)) * model.dataset.Y.T
    mu = kbar @ model.weights
    Vt = np.array([dtrsv(model.factor, row, lower=1) for row in kbar])
    sigma = lam - Vt @ Vt.T
    return mu, 0.5 * (sigma + sigma.T) + 1e-12 * np.eye(q)


def certificate_terms_numpy(design, x):
    """(zf, zg, h) with the design's evaluator reading x as a numpy array of numpy scalars."""
    h, zf, zg = design.terms(np.asarray(x, dtype=float))
    return np.array(zf, dtype=float), np.array(zg, dtype=float), float(h)


def stacked_gp_posterior(X, Y, z, noise_var, kernel_fn, xstar, ystar):
    """Zero-mean GP on stacked inputs (x, y) with an arbitrary kernel callable.

    Returns (mean, variance) by the textbook formulas, built with plain
    numpy linear solves.
    """
    N = len(z)
    K = np.empty((N, N))
    for i in range(N):
        for j in range(N):
            K[i, j] = kernel_fn(X[i], Y[i], X[j], Y[j])
    kbar = np.array([kernel_fn(xstar, ystar, X[j], Y[j]) for j in range(N)])
    A = K + noise_var * np.eye(N)
    sol_z = np.linalg.solve(A, z)
    sol_k = np.linalg.solve(A, kbar)
    mean = float(kbar @ sol_z)
    var = float(kernel_fn(xstar, ystar, xstar, ystar) - kbar @ sol_k)
    return mean, var


def forward_substitution_fsum(L, b):
    """Solve L v = b for lower-triangular L, summing each row with math.fsum."""
    v = []
    for i in range(len(b)):
        row = math.fsum([b[i]] + [-L[i, j] * v[j] for j in range(i)])
        v.append(row / L[i, i])
    return v


def posterior_sigma_fsum(L, kbar, lam):
    """Sigma = Lambda - V^T V with L V = Kbar^T, every sum taken with math.fsum."""
    V = [forward_substitution_fsum(L, row) for row in kbar]
    q = len(V)
    return np.array(
        [[lam[s, t] - math.fsum(a * b for a, b in zip(V[s], V[t])) for t in range(q)] for s in range(q)]
    )


def necessary_value_dense(phi, sigma, beta):
    """Necessary-condition value 1 - phi Sigma^{-1} phi^T / beta^2 by a dense linear solve."""
    phi = np.asarray(phi, dtype=float).reshape(-1)
    sol = np.linalg.solve(np.asarray(sigma, dtype=float), phi)
    return 1.0 - float(phi @ sol) / beta**2


def ard_sq_exp(x, x2, sf2, ell):
    d = (np.asarray(x) - np.asarray(x2)) / np.asarray(ell)
    return sf2 * np.exp(-0.5 * float(np.dot(d, d)))


def composite_kernel_ref(x, y, x2, y2, sf2s, ells):
    """Reference composite kernel, written independently of the package."""
    total = 0.0
    for t in range(len(sf2s)):
        total += y[t] * y2[t] * ard_sq_exp(x, x2, sf2s[t], ells[t])
    return total


def riccati_ode_gain(A, B, Q, R, dt=1e-4, t_final=40.0):
    """Brute-force: integrate Pdot = A'P + PA - P B R^{-1} B' P + Q to rest."""
    n = A.shape[0]
    P = np.zeros((n, n))
    Rinv = np.linalg.inv(R)
    G = B @ Rinv @ B.T
    steps = int(t_final / dt)
    for _ in range(steps):
        Pdot = A.T @ P + P @ A - P @ G @ P + Q
        P = P + dt * Pdot
        if np.linalg.norm(Pdot) < 1e-12:
            break
    return Rinv @ B.T @ P, P


def grid_min_norm_halfspace(u_nom, a, b, u_max=50.0, step=1e-4):
    """Dense 1-D search for min |u - u_nom| s.t. a u + b >= 0."""
    us = np.arange(-u_max, u_max + step, step)
    feas = a * us + b >= 0.0
    cand = us[feas]
    return float(cand[np.argmin(np.abs(cand - u_nom))])


def halfspace_projection_vector(u_nom, a, b):
    """u_nom - ((a.u_nom + b) / |a|^2) a on numpy 1-arrays; u_nom when feasible.

    The vector formula of the min-norm half-space filter, with a.u_nom and
    |a|^2 taken as numpy dot products.  None when there is no point: a = 0,
    or a projected point that is not finite.
    """
    u_nom = np.atleast_1d(np.asarray(u_nom, dtype=float))
    a = np.atleast_1d(np.asarray(a, dtype=float))
    margin = float(a @ u_nom) + float(b)
    if margin >= 0.0:
        return u_nom.copy()
    norm2 = float(a @ a)
    if norm2 == 0.0:
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        u = u_nom - (margin / norm2) * a
    return u if np.isfinite(u).all() else None


def rk4_numpy(field, x, u, t, dt):
    """One classical RK4 step on numpy arrays, in the vectorised operation order."""
    k1 = field(x, u, t)
    k2 = field(x + 0.5 * dt * k1, u, t + 0.5 * dt)
    k3 = field(x + 0.5 * dt * k2, u, t + 0.5 * dt)
    k4 = field(x + dt * k3, u, t + dt)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk4_numpy_hold(field, x, u, t, dt, substeps):
    """States after each of substeps numpy RK4 steps, with t advanced by t = t + dt."""
    states = []
    for _ in range(substeps):
        x = rk4_numpy(field, x, u, t, dt)
        states.append(x)
        t = t + dt
    return states


def polynomial_plant(n, rng, coupled=True):
    """A random plant with quadratic state terms, input and time, and its field as a closure.

    Returns (plant, field): the plant is declared through the package's
    derivative source, and field writes the same fixed-order float
    expressions independently, as a closure that reads x, u and t by index
    and returns xdot as a tuple, so it takes the same bits whether x holds
    Python floats or numpy scalars.  With coupled False, entry i reads x_i
    alone, so a non-finite x_i leaves the other entries finite.
    """
    mask = np.ones((n, n)) if coupled else np.eye(n)
    c0 = rng.normal(size=n).tolist()
    c1 = (mask * rng.normal(size=(n, n))).tolist()
    c2 = (mask * 0.1 * rng.normal(size=(n, n))).tolist()
    cu = rng.normal(size=n).tolist()
    ct = rng.normal(size=n).tolist()
    pair = [(j + 1) % n if coupled else j for j in range(n)]

    def field(x, u, t):
        out = []
        for i in range(n):
            v = c0[i] + cu[i] * u[0] + ct[i] * t
            for j in range(n):
                if c1[i][j] or c2[i][j]:
                    v = v + c1[i][j] * x[j] + c2[i][j] * (x[j] * x[pair[j]])
            out.append(v)
        return tuple(out)

    lines, params = [], {}
    for i in range(n):
        params.update({f"c0_{i}": c0[i], f"cu_{i}": cu[i], f"ct_{i}": ct[i]})
        lines.append(f"dx{i} = c0_{i} + cu_{i} * u0 + ct_{i} * t")
        for j in range(n):
            if c1[i][j] or c2[i][j]:
                params.update({f"c1_{i}_{j}": c1[i][j], f"c2_{i}_{j}": c2[i][j]})
                lines.append(f"dx{i} = dx{i} + c1_{i}_{j} * x{j} + c2_{i}_{j} * (x{j} * x{pair[j]})")
    return PlantModel(n, 1, "\n".join(lines), params), field


def acc_field_numpy(p):
    """ACC xdot on numpy arrays from a parameter dict, input added as (1/m) u after drag/m."""

    def field(x, u, t):
        v = x[0]
        drag = p["f0"] + p["f1"] * v + p["f2"] * v * v
        return np.array([-drag / p["m"] + (1.0 / p["m"]) * u[0], p["v0"] - v])

    return field


def road_profile(t, amplitude, start, width):
    """Smooth bump: amplitude * sin^2(pi (t - start) / width) inside the window, 0 outside."""
    if start <= t <= start + width:
        s = math.sin(math.pi * (t - start) / width)
        return float(amplitude * s * s)
    return 0.0


def suspension_field_numpy(p, amplitude, start, width):
    """Quarter-car xdot on numpy arrays; the road_profile bump enters the wheel row when nonzero."""

    def field(x, u, t):
        x1, x2, x3, x4 = x
        d = road_profile(t, amplitude, start, width)
        wheel = (p["k1"] * (x1 - x2) - p["k2"] * x2 + p["b"] * (x3 - x4)) / p["m2"] - (
            1.0 / p["m2"]
        ) * u[0]
        if d != 0.0:
            wheel = wheel + (p["k2"] / p["m2"]) * d
        body = (p["k1"] * (x2 - x1) + p["b"] * (x4 - x3)) / p["m1"] + (1.0 / p["m1"]) * u[0]
        return np.array([x3, x4, body, wheel])

    return field


def make_synthetic_plant(mismatch: float = 0.0) -> PlantModel:
    """Double integrator; mismatch scales an extra drift on the acceleration.

    Declared through the package's derivative source, so its field and its
    RK4 hold are the generated ones.  x0 * x0, not x0 ** 2: float ** raises
    OverflowError where * gives inf.
    """
    return PlantModel(
        2, 1, "dx0 = x1\ndx1 = mismatch * (1.0 + 0.5 * (x0 * x0)) + u0", {"mismatch": mismatch}
    )


def synthetic_field_numpy(mismatch):
    """Double integrator with drift mismatch * (1 + x1^2 / 2), written with numpy's x**2."""

    def field(x, u, t):
        return np.array([x[1], mismatch * (1.0 + 0.5 * x[0] ** 2) + u[0]])

    return field


def double_integrator_design(gains, D: float = 1.0) -> HocbfDesign:
    """Position barrier h = D - x1 (x0 in the source) for the double integrator."""
    return HocbfDesign(2, 1, "h = D - x0\nlf1 = -x1\nlf2 = 0.0\nlg0 = -1.0", {"D": D}, gains)


def episode_csv_reference(log, path, trace=False):
    """EpisodeLog CSV through csv.writer, one f"{v:.17g}" string per float."""
    n = log.x.shape[1] if log.x.size else 0
    m = log.u.shape[1] if log.u.size else 0
    header = (
        ["t"]
        + [f"x_{i}" for i in range(1, n + 1)]
        + [f"u_{i}" for i in range(1, m + 1)]
        + ["h"]
        + [f"zeta_{i}" for i in range(log.zeta.shape[1])]
        + ["sigma", "status", "necessary_value", "sufficient_eig"]
    )
    if trace:
        header += ["solve_iterations", "cone_margin"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for k in range(len(log)):
            row = (
                [f"{log.t[k]:.17g}"]
                + [f"{v:.17g}" for v in log.x[k]]
                + [f"{v:.17g}" for v in log.u[k]]
                + [f"{log.h[k]:.17g}"]
                + [f"{v:.17g}" for v in log.zeta[k]]
                + [f"{log.sigma[k]:.17g}", log.status[k]]
                + [f"{log.necessary_value[k]:.17g}", f"{log.sufficient_eig[k]:.17g}"]
            )
            if trace:
                row += [str(int(log.iterations[k])), f"{log.cone_margin[k]:.17g}"]
            writer.writerow(row)


def _fractions(v):
    return [Fraction(x) for x in np.asarray(v, dtype=float).reshape(-1).tolist()]


def _float(x):
    """The float nearest the Fraction x, +-inf beyond the float range."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


class OneInputCone:
    """The filter step's cone for one input in closed form, in exact rationals and with no factor.

    With y = [gamma; u], beta sqrt(y^T Sigma y) <= phi . y reads sqrt(P) <= L with
    y^T Sigma y = v2 u^2 + v1 u + v0, P = beta^2 y^T Sigma y and L = c u + d: a
    quadratic inequality P <= L^2 whose nappe L >= 0 picks, so the feasible set is
    at most two intervals with closed-form ends, and the projection is a clamp.
    ``v_size`` and ``d_size`` sum the magnitudes of the coefficients' terms.
    """

    def __init__(self, v_terms, beta, c, d_terms):
        self.v = [sum(t, Fraction(0)) for t in v_terms]
        self.v_size = [sum(map(abs, t), Fraction(0)) for t in v_terms]
        self.b2, self.c = Fraction(beta) ** 2, Fraction(c)
        self.d, self.d_size = sum(d_terms, Fraction(0)), sum(map(abs, d_terms), Fraction(0))

    @classmethod
    def from_step(cls, cert, mu, sigma, beta, gamma):
        """The cone of a filter step, straight from Sigma, gamma, phi and beta."""
        g, mu, r = _fractions(gamma), _fractions(mu), len(gamma)
        S = [_fractions(row) for row in np.asarray(sigma, dtype=float)]
        v1 = [S[r][j] * g[j] for j in range(r)] + [S[j][r] * g[j] for j in range(r)]
        v0 = [g[i] * S[i][j] * g[j] for i in range(r) for j in range(r)]
        d = [z * x for z, x in zip(_fractions(cert.zf) + mu, g + g)] + [Fraction(cert.const)]
        return cls(([S[r][r]], v1, v0), beta, Fraction(float(cert.zg[0])) + mu[r], d)

    @classmethod
    def from_rows(cls, A, b, c, d):
        """The hand-written cone |A u + b| <= c u + d for one input, from a^2, 2 a b and b^2."""
        a, b = _fractions(A), _fractions(b)
        v_terms = ([x * x for x in a], [2 * x * y for x, y in zip(a, b)], [y * y for y in b])
        return cls(v_terms, 1.0, _fractions(c)[0], [Fraction(float(d))])

    def variance(self, u):
        """y^T Sigma y at y = [gamma; u] and the sum of its terms' magnitudes, as floats."""
        u = Fraction(u)
        (v2, v1, v0), (s2, s1, s0) = self.v, self.v_size
        return _float(v2 * u * u + v1 * u + v0), _float(s2 * u * u + s1 * abs(u) + s0)

    def intervals(self, slack=0.0):
        """The feasible set, as at most two (lo, hi), of the cone tightened by a slack e > 0.

        A slack e < 0 loosens it.  P gains e beta^2 ((s2 + s1 / 2) u^2 + s0 + s1 / 2),
        at least e times the magnitudes of P's terms, and L becomes
        (1 - e) L - e (2 d_size + 1), at most L - e (|c u| + d_size + 1) where L >= 0.
        So neither rounding of relative size |e| nor a margin tolerance of |e| / 2
        where P < 1 carries a point across both the tightened and the loosened cone.
        """
        e, inf = Fraction(slack), math.inf
        (v2, v1, v0), (s2, s1, s0) = self.v, self.v_size
        c, d = (1 - e) * self.c, (1 - e) * self.d - e * (2 * self.d_size + 1)
        a2 = self.b2 * (v2 + e * (s2 + s1 / 2)) - c * c  # P - L^2 = a2 u^2 + a1 u + a0
        a1 = self.b2 * v1 - 2 * c * d
        a0 = self.b2 * (v0 + e * (s0 + s1 / 2)) - d * d
        if a2 == 0 == a1:
            pieces = [(-inf, inf)] if a0 <= 0 else []
        elif a2 == 0:
            pieces = [(-inf, -a0 / a1)] if a1 > 0 else [(-a0 / a1, inf)]
        elif a1 * a1 < 4 * a2 * a0:
            pieces = [] if a2 > 0 else [(-inf, inf)]
        else:  # the root of the discriminant to 2^-100 relative, then roots without cancellation
            disc = a1 * a1 - 4 * a2 * a0
            n, m = disc.numerator, disc.denominator
            root = Fraction(math.isqrt(n * m << 200), m << 100)
            q = -(a1 + (root if a1 >= 0 else -root)) / 2
            lo, hi = sorted((q / a2, a0 / q)) if q else (q, q)
            pieces = [(lo, hi)] if a2 > 0 else [(-inf, lo), (hi, inf)]
        if c == 0:  # L >= 0
            return pieces if d >= 0 else []
        half = (-d / c, inf) if c > 0 else (-inf, -d / c)
        ends = [(max(lo, half[0]), min(hi, half[1])) for lo, hi in pieces]
        return [(lo, hi) for lo, hi in ends if lo <= hi]

    def project(self, u_nom, slack=0.0):
        """The float nearest the feasible point nearest u_nom; None when there is no such float."""
        x = Fraction(u_nom)
        points = [min(max(x, lo), hi) for lo, hi in self.intervals(slack)]
        try:
            return float(min(points, key=lambda p: abs(p - x)))
        except (ValueError, OverflowError):  # no point, or none within the float range
            return None


class ConeReference:
    """The cone {u : |A u + b| <= c u + d} of any input count, at 50 digits in mpmath.

    It shares nothing with the filter's secular route.  :meth:`max_margin`
    maximizes the concave margin c u + d - |A u + b| over (u, t) with
    c u + d - t >= |A u + b|, and :meth:`project` minimizes |u - u_nom|^2 / 2
    over the cone.  Both follow the central path of the log barrier
    -log(T^2 - |S|^2) of that convex form (T the cone's right side, S its
    vector) by damped Newton steps, multiplying the objective's weight tau
    by 100 between paths until it has grown 1e30-fold.  The barrier's
    parameter is 2, so the point at weight tau is within 2 / tau of the
    optimal value.
    """

    DIGITS = 50
    GROWTH = mpmath.mpf(10) ** 30

    def __init__(self, A, b, c, d):
        with mpmath.workdps(self.DIGITS):
            self.A = [[mpmath.mpf(float(v)) for v in row] for row in np.atleast_2d(A)]
            self.b = [mpmath.mpf(float(v)) for v in np.ravel(b)]
            self.c = [mpmath.mpf(float(v)) for v in np.ravel(c)]
            self.d = mpmath.mpf(float(d))

    def margin(self, u) -> tuple:
        """(c u + d - |A u + b|, |A u + b|) at u."""
        with mpmath.workdps(self.DIGITS):
            u = [mpmath.mpf(v) for v in u]
            res = [_mp_dot(row, u) + bi for row, bi in zip(self.A, self.b)]
            norm = mpmath.sqrt(mpmath.fsum(v * v for v in res))
            return _mp_dot(self.c, u) + self.d - norm, norm

    def max_margin(self) -> tuple:
        """(margin, u) at the first u found whose margin is positive; else, once the path ends,
        an upper bound on the largest margin, and the path's last u."""
        m = len(self.c)
        with mpmath.workdps(self.DIGITS):
            barrier = _LogBarrier([row + [0] for row in self.A], self.b, self.c + [-1], self.d)
            f = [0] * m + [-1]
            t0 = self.d - mpmath.sqrt(mpmath.fsum(bi * bi for bi in self.b)) - 1
            z, tau = [mpmath.mpf(0)] * m + [t0], mpmath.mpf(1)
            positive = lambda z: self.margin(z[:m])[0] > 0
            while True:
                z = barrier.center(False, f, z, tau, positive)
                if positive(z):
                    return self.margin(z[:m])[0], z[:m]
                if tau >= self.GROWTH:
                    return z[m] + 2 / tau, z[:m]
                tau *= 100

    def project(self, u_nom, inside):
        """The point of the cone nearest u_nom, outside it, from a point strictly inside it.

        The path starts on the segment from u_nom to ``inside``, at the
        point nearest u_nom whose margin the margin's concavity keeps
        positive.
        """
        with mpmath.workdps(self.DIGITS):
            u_nom = [mpmath.mpf(float(v)) for v in u_nom]
            (m0, _), (m1, _) = self.margin(u_nom), self.margin(inside)
            s = min(mpmath.mpf(1), -2 * m0 / (m1 - m0))
            z = [a + s * (b - a) for a, b in zip(u_nom, inside)]
            tau = 1 / (1 + mpmath.fsum((a - b) ** 2 for a, b in zip(z, u_nom)))
            f, end = [-v for v in u_nom], tau * self.GROWTH
            barrier = _LogBarrier(self.A, self.b, self.c, self.d)
            while tau <= end:
                z = barrier.center(True, f, z, tau)
                tau *= 100
            return z


def _mp_dot(a, b):
    return mpmath.fsum(x * y for x, y in zip(a, b))


def _mp_solve(H, g):
    """x with H x = g, by Gaussian elimination with partial pivoting."""
    n = len(g)
    M = [list(row) + [gi] for row, gi in zip(H, g)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda i: abs(M[i][col]))
        M[col], M[pivot] = M[pivot], M[col]
        for i in range(col + 1, n):
            factor = M[i][col] / M[col][col]
            M[i] = [a - factor * b for a, b in zip(M[i], M[col])]
    x = [0] * n
    for i in reversed(range(n)):
        x[i] = (M[i][n] - _mp_dot(M[i][i + 1 : n], x[i + 1 :])) / M[i][i]
    return x


class _LogBarrier:
    """-log(T^2 - |S|^2) with S = P z + p and T = q z + q0, on T > |S|."""

    def __init__(self, P, p, q, q0):
        self.P, self.p, self.q, self.q0 = P, p, q, q0
        n = len(q)  # the Hessian of T^2 - |S|^2, which is constant
        self.curvature = [
            [2 * q[j] * q[k] - 2 * mpmath.fsum(row[j] * row[k] for row in P) for k in range(n)]
            for j in range(n)
        ]

    def value(self, z):
        """(-log(T^2 - |S|^2), S, T, T^2 - |S|^2), the first None outside."""
        S = [_mp_dot(row, z) + pi for row, pi in zip(self.P, self.p)]
        T = _mp_dot(self.q, z) + self.q0
        D = T * T - mpmath.fsum(s * s for s in S)
        return (-mpmath.log(D) if T > 0 and D > 0 else None), S, T, D

    def center(self, identity, f, z, tau, stop=lambda z: False):
        """Minimizer of tau (z^T Q z / 2 + f z) plus the barrier, from z strictly inside.

        Q is the identity when ``identity`` is set, else 0; the Newton steps
        end early at a z where ``stop`` holds.  The function is
        self-concordant, so a Newton step of length 1 / (1 + lambda), with
        lambda the Newton decrement, stays strictly inside, and full steps
        converge quadratically once lambda is below 1/4.  Each step halves a
        full step while it does not decrease the function enough, down to
        that length.
        """
        n = len(z)

        def objective(z, log_term):
            quad = mpmath.fsum(v * v for v in z) / 2 if identity else 0
            return None if log_term is None else tau * (quad + _mp_dot(f, z)) + log_term

        for _ in range(500):
            log_term, S, T, D = self.value(z)
            assert log_term is not None, "left the cone's interior"
            dD = [2 * T * self.q[j] - 2 * _mp_dot([row[j] for row in self.P], S) for j in range(n)]
            grad = [tau * ((z[j] if identity else 0) + f[j]) - dD[j] / D for j in range(n)]
            hess = [
                [(tau if identity and j == k else 0) - self.curvature[j][k] / D + dD[j] * dD[k] / D**2
                 for k in range(n)]
                for j in range(n)
            ]  # fmt: skip
            step = _mp_solve(hess, [-g for g in grad])
            decrement = -_mp_dot(grad, step)
            # within 1/10 of the minimizer in its local norm, and 1e-40 of the minimum in z's
            # objective, above the rounding floor of the decrement, which grows with tau
            if decrement <= min(mpmath.mpf("0.01"), tau * mpmath.mpf(10) ** -40):
                return z
            lam = mpmath.sqrt(max(decrement, 0))
            least = 1 if lam < mpmath.mpf(1) / 4 else 1 / (1 + lam)
            length = mpmath.mpf(1)
            current = objective(z, log_term) if least < 1 else None
            while length > least:
                trial = [a + length * b for a, b in zip(z, step)]
                new = objective(trial, self.value(trial)[0])
                if new is not None and new <= current - length * decrement / 4:
                    break
                length /= 2
            z = [a + max(length, least) * b for a, b in zip(z, step)]
            if stop(z):
                return z
        raise AssertionError("the Newton steps did not converge")
