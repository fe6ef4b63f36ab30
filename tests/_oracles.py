"""Independent oracles used by the tests.

Everything here deliberately avoids the package's own code paths: symbolic
Lie chains via sympy, a from-scratch stacked-input GP, an exactly summed
forward substitution for the posterior covariance, a dense linear solve for
the necessary feasibility condition, a brute-force Riccati ODE integrator,
dense grid searches, the vectorised numpy RK4 step with numpy plant fields
that the float-based integrator must match bit for bit, and a
``csv.writer`` episode writer that the row-format writer must match byte
for byte.
"""

import csv
import math

import numpy as np
import sympy as sp


class SymbolicSystem:
    """Exact Lie-derivative chain for a control-affine system via sympy."""

    def __init__(self, states, f_exprs, g_exprs, h_expr):
        self.states = list(states)
        self.n = len(self.states)
        self.f = sp.Matrix(f_exprs)
        self.g = sp.Matrix(g_exprs)
        self.h = sp.sympify(h_expr)

    def lie_f_chain(self, order):
        """Expressions Lf^i h for i = 0..order."""
        exprs = [self.h]
        for _ in range(order):
            grad = sp.Matrix([exprs[-1]]).jacobian(self.states)
            exprs.append(sp.expand((grad * self.f)[0, 0]))
        return exprs

    def lie_g_of(self, expr):
        grad = sp.Matrix([expr]).jacobian(self.states)
        return sp.expand((grad * self.g)[0, 0])

    def lambdify_chain(self, r):
        chain = self.lie_f_chain(r)
        lfs = [sp.lambdify(self.states, e, "numpy") for e in chain]
        lg = sp.lambdify(self.states, self.lie_g_of(chain[r - 1]), "numpy")
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


def acc_field_numpy(p):
    """ACC xdot on numpy arrays from a parameter dict, input added as (1/m) u after drag/m."""

    def field(x, u, t):
        v = x[0]
        drag = p["f0"] + p["f1"] * v + p["f2"] * v * v
        return np.array([-drag / p["m"] + (1.0 / p["m"]) * u[0], p["v0"] - v])

    return field


def suspension_field_numpy(p, road):
    """Quarter-car xdot on numpy arrays; the road term enters the wheel row when nonzero."""

    def field(x, u, t):
        x1, x2, x3, x4 = x
        d = road(t)
        wheel = (p["k1"] * (x1 - x2) - p["k2"] * x2 + p["b"] * (x3 - x4)) / p["m2"] - (
            1.0 / p["m2"]
        ) * u[0]
        if d != 0.0:
            wheel = wheel + (p["k2"] / p["m2"]) * d
        body = (p["k1"] * (x2 - x1) + p["b"] * (x4 - x3)) / p["m1"] + (1.0 / p["m1"]) * u[0]
        return np.array([x3, x4, body, wheel])

    return field


def synthetic_field_numpy(mismatch):
    """Double integrator with drift mismatch * (1 + x1^2 / 2), written with numpy's x**2."""

    def field(x, u, t):
        return np.array([x[1], mismatch * (1.0 + 0.5 * x[0] ** 2) + u[0]])

    return field


def episode_csv_reference(log, path, trace=False):
    """EpisodeLog CSV through csv.writer, one f"{v:.17g}" string per float."""
    n = log.x.shape[1] if log.x.size else 0
    m = log.u.shape[1] if log.u.size else 0
    header = (
        ["t"]
        + [f"x_{i}" for i in range(1, n + 1)]
        + [f"u_{i}" for i in range(1, m + 1)]
        + ["h"]
        + [f"zeta_{i}" for i in range(log.design_r)]
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
                + [f"{log.necessary[k]:.17g}", f"{log.sufficient[k]:.17g}"]
            )
            if trace:
                row += [str(int(log.iterations[k])), f"{log.cone_margin[k]:.17g}"]
            writer.writerow(row)
