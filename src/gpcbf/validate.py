"""Machine-checkable property suites behind ``gpcbf validate``.

Each suite returns a report dict with a ``passed`` flag and the statistics
that justify it; the CLI serializes reports as JSON.  The synthetic systems
used by the decomposition suite keep every Lie derivative in closed form, so
the residual identity is verified without any symbolic machinery.
"""

import time
import numpy as np

from . import config as config_mod
from . import episodic
from .barrier import certificate_terms, gamma_vector
from .experiment import build_scenario
from .gp import (
    BaseKernelParams,
    _gram_composite,
    _stacked_params,
    fit_prior,
    posterior_coefficients,
)
from .socp import (
    STATUS_FACTORIZATION_FAILED,
    STATUS_OPTIMAL,
    SafetyConeData,
    build_S,
    effective_phi,
    pointwise_conditions,
    safety_filter_step,
    solve,
)


# ---------------------------------------------------------------------------
# closed-form synthetic true/nominal pairs
# ---------------------------------------------------------------------------


class AffineChainSystem:
    """Integrator chain with lower-triangular coupling, drift offsets, and a
    polynomial nonlinearity entering the last state.

    xdot = A x + c + e_r * quad * x_1^2 + B u with A = shift + strictly-lower
    noise keeps h = x_1 at relative degree r, and every Lie derivative of h is
    affine in x (plus the known x_1^2 term at order r), so residuals against a
    second system are available analytically.
    """

    def __init__(self, r: int, rng: np.random.Generator, scale: float):
        self.r = r
        A = np.diag(np.ones(r - 1), k=1)
        A += scale * np.tril(rng.normal(size=(r, r)), k=-1)
        self.A = A
        self.c = scale * rng.normal(size=r)
        self.quad = scale * rng.normal()
        self.bgain = 1.0 + scale * rng.normal()

    def lie_chain(self):
        """(v_i, s_i) with Lf^i h = v_i . x + s_i for i = 0..r (x_1^2 term separate)."""
        v = np.zeros(self.r)
        v[0] = 1.0
        s = 0.0
        chain = [(v.copy(), s)]
        for _ in range(self.r):
            v, s = self.A.T @ v, float(v @ self.c)
            chain.append((v.copy(), s))
        return chain

    def lie_f(self, i: int, x: np.ndarray) -> float:
        v, s = self.lie_chain()[i]
        val = float(v @ x) + s
        if i == self.r:
            # e_r-entry of the gradient of Lf^{r-1} h is exactly 1
            val += self.quad * x[0] ** 2
        return val

    def lg_lf(self, x: np.ndarray) -> float:
        return self.bgain

    def zeta_r_direct(self, gains: np.ndarray, x: np.ndarray, u: float) -> float:
        """Direct recursion zeta_i = Lf zeta_{i-1} + k_i zeta_{i-1} on this system."""
        v = np.zeros(self.r)
        v[0] = 1.0
        s = 0.0
        for k in gains[:-1]:
            v, s = self.A.T @ v + k * v, float(v @ self.c) + k * s
        k_r = gains[-1]
        grad_last = v.copy()
        val_last = float(v @ x) + s
        deriv = float(grad_last @ (self.A @ x + self.c)) + grad_last[-1] * (
            self.quad * x[0] ** 2 + self.bgain * u
        )
        return deriv + k_r * val_last


def synthetic_pair(r: int, rng: np.random.Generator):
    true = AffineChainSystem(r, rng, scale=0.4)
    nom = AffineChainSystem(r, rng, scale=0.4)
    return true, nom


def decomposition_suite(seed: int = 0, cases: int = 100, tol: float = 1e-8) -> dict:
    """Residual identity: zeta_r(true) = zeta_r(nominal) + gamma-weighted residuals."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    checked = 0
    for r in (2, 3, 4):
        true, nom = synthetic_pair(r, rng)
        gains = rng.uniform(0.5, 3.0, size=r)
        gamma = gamma_vector(gains)
        e_r = float(np.prod(gains))
        for _ in range(cases):
            x = rng.normal(size=r)
            u = rng.normal() * 2.0
            zeta_true = true.zeta_r_direct(gains, x, u)
            zeta_nom = nom.zeta_r_direct(gains, x, u)
            resid = sum(
                gamma[i - 1] * (true.lie_f(i, x) - nom.lie_f(i, x)) for i in range(1, r + 1)
            )
            resid += (true.lg_lf(x) - nom.lg_lf(x)) * u
            err = abs(zeta_true - (zeta_nom + resid))
            rel = err / max(1.0, abs(zeta_true))
            worst = max(worst, rel)
            checked += 1
    return {
        "suite": "decomposition",
        "passed": bool(worst <= tol),
        "cases": checked,
        "worst_relative_error": worst,
        "tolerance": tol,
    }


def kernel_suite(seed: int = 0, cases: int = 200, tol: float = -1e-8) -> dict:
    """Composite-kernel Gram matrices stay positive semidefinite."""
    rng = np.random.default_rng(seed)
    worst = np.inf
    for _ in range(cases):
        N = int(rng.integers(1, 21))
        n = int(rng.integers(1, 5))
        q = int(rng.integers(2, 6))
        X = rng.normal(size=(N, n)) * rng.uniform(0.5, 3.0)
        Y = rng.normal(size=(N, q)) * rng.uniform(0.5, 5.0)
        params = [
            BaseKernelParams(rng.uniform(0.1, 4.0), rng.uniform(0.3, 3.0, size=n))
            for _ in range(q)
        ]
        sf2, inv_ell2 = _stacked_params(params, n)
        K = _gram_composite(np.ascontiguousarray(X), np.ascontiguousarray(Y), sf2, inv_ell2)
        worst = min(worst, float(np.linalg.eigvalsh(0.5 * (K + K.T))[0]))
    return {
        "suite": "kernel",
        "passed": bool(worst >= tol),
        "cases": cases,
        "min_gram_eigenvalue": worst,
        "tolerance": tol,
    }


def random_feasible_instance(rng: np.random.Generator, m: int = 1):
    """A feasible cone instance plus a nominal input, for the grid oracle."""
    kdim = int(rng.integers(1, 4))
    A = rng.normal(size=(kdim, m))
    b = rng.normal(size=kdim)
    c = rng.normal(size=m)
    u0 = rng.uniform(-1.5, 1.5, size=m)
    d = float(np.linalg.norm(A @ u0 + b) - c @ u0 + abs(rng.normal()) + 0.1)
    u_nom = rng.uniform(-2.0, 2.0, size=m)
    return SafetyConeData(A=A, b=b, c=c, d=d), u_nom


def grid_oracle_u(cone: SafetyConeData, u_nom: np.ndarray, u_max: float = 4.0, step: float = 1e-4):
    us = np.arange(-u_max, u_max + step, step)
    A, b = np.array(cone.A), np.array(cone.b)
    lhs = np.linalg.norm(A @ us[None, :] + b[:, None], axis=0)
    feas = lhs <= cone.c[0] * us + cone.d
    cand = us[feas]
    if cand.size == 0:
        return None
    return float(cand[np.argmin(np.abs(cand - u_nom[0]))])


def solver_suite(seed: int = 0, cases: int = 500, tol: float = 2e-4) -> dict:
    """Cone solver versus an exhaustive grid oracle on feasible m=1 programs."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    failures = 0
    non_optimal = 0
    t0 = time.monotonic()
    for _ in range(cases):
        cone, u_nom = random_feasible_instance(rng)
        out = solve(u_nom, cone, tol=1e-9)
        ustar = grid_oracle_u(cone, u_nom)
        if out.status != STATUS_OPTIMAL or ustar is None:
            non_optimal += 1
            failures += 1
            continue
        err = abs(float(out.u[0]) - ustar)
        worst = max(worst, err)
        if err > tol:
            failures += 1
    elapsed = time.monotonic() - t0
    return {
        "suite": "solver",
        "passed": bool(failures == 0),
        "cases": cases,
        "worst_abs_error": worst,
        "non_optimal": non_optimal,
        "tolerance": tol,
        "elapsed_s": elapsed,
    }


def _benchmark_filter_states(plant_name: str, rng: np.random.Generator, n_states: int):
    """Scenario, (model, prior) and states spread around the first training episode.

    The model is the one ``episodic_train`` fits to the labels of its first
    episode, with the plant's default config; the prior has no data.
    """
    cfg = config_mod.defaults(plant_name)
    sc = build_scenario(cfg)
    train = episodic.episodic_train(
        sc.plant,
        sc.design_nom,
        sc.u_nom,
        sc.kernel_params,
        beta=cfg.filter.beta,
        x0=np.asarray(cfg.sim.x0, dtype=float),
        horizon=cfg.sim.horizon,
        dt=cfg.sim.dt,
        control_period=cfg.sim.control_period,
        max_episodes=1,
        label_stride=cfg.episodic.label_stride,
        noise_variance=cfg.gp.noise_variance,
    )
    prior = fit_prior(sc.plant.n, sc.kernel_params, cfg.gp.noise_variance)
    x = train.episodes[0].x
    lo = x.min(axis=0)
    hi = x.max(axis=0)
    span = np.maximum(hi - lo, 1e-3)
    states = lo - 0.3 * span + rng.uniform(size=(n_states, sc.plant.n)) * 1.6 * span
    return sc, (train.model, prior), states


def feasibility_suite(seed: int = 0, n_states: int = 1000) -> dict:
    """Feasibility-condition consistency of the filter step over both benchmarks.

    Runs :func:`safety_filter_step` at every sampled state and checks its
    outcome: optimal implies the logged necessary-condition value is
    non-positive; a logged sufficient-condition certificate implies optimal;
    and at optima both pointwise feasibility conditions hold.
    """
    rng = np.random.default_rng(seed)
    counterexamples_necessary = 0
    counterexamples_sufficient = 0
    condition_violations = 0
    statuses = {"optimal": 0, "infeasible": 0}
    checked = 0
    for plant_name in ("acc", "suspension"):
        sc, models, states = _benchmark_filter_states(plant_name, rng, n_states // 2)
        beta_options = (1.0, 2.0, 4.0)
        gamma = sc.design_nom.gamma
        for i, x in enumerate(states):
            model = models[i % 2]
            beta = float(beta_options[i % len(beta_options)])
            cert = certificate_terms(sc.design_nom, x)
            mu, sigma = posterior_coefficients(model, x)
            u_nom = sc.u_nom(0.0, x)
            out = safety_filter_step(u_nom, cert, mu, sigma, beta, gamma, tol=1e-9)
            if out.status == STATUS_FACTORIZATION_FAILED:
                continue
            statuses[out.status] += 1
            checked += 1
            if out.status == STATUS_OPTIMAL:
                if out.necessary_value > 1e-8:
                    counterexamples_necessary += 1
                phi = effective_phi(cert, mu)
                S = build_S(phi, sigma, beta)
                affine, quad = pointwise_conditions(gamma, out.u, S, phi)
                y2 = float(np.sum(gamma**2) + np.sum(np.square(out.u)))
                aff_scale = max(1.0, float(np.linalg.norm(phi)) * np.sqrt(y2))
                quad_scale = max(1.0, float(np.linalg.norm(S)) * y2)
                if affine < -1e-8 * aff_scale or quad > 1e-8 * quad_scale:
                    condition_violations += 1
            elif out.sufficient_certified:
                counterexamples_sufficient += 1
    passed = (
        counterexamples_necessary == 0
        and counterexamples_sufficient == 0
        and condition_violations == 0
    )
    return {
        "suite": "feasibility",
        "passed": bool(passed),
        "states_checked": checked,
        "statuses": statuses,
        "necessary_counterexamples": counterexamples_necessary,
        "sufficient_counterexamples": counterexamples_sufficient,
        "pointwise_condition_violations": condition_violations,
    }


# The suites behind ``gpcbf validate``, in the order "all" runs them.
SUITES = {
    "kernel": kernel_suite,
    "solver": solver_suite,
    "decomposition": decomposition_suite,
    "feasibility": feasibility_suite,
}


def run_suite(name: str, seed: int = 0) -> list:
    """Reports of the named suite, or of every suite in ``SUITES`` order for "all"."""
    if name == "all":
        return [suite(seed) for suite in SUITES.values()]
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {[*SUITES, 'all']}")
    return [SUITES[name](seed)]
