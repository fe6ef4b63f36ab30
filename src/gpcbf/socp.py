"""Uncertainty-aware min-norm safety filter as a second-order cone program.

The chance-constrained filter

    min |u - u_nom|_2   s.t.   zeta_r_hat(x, u) + mean(x, y) - beta * std(x, y) >= 0

becomes, with the composite-kernel posterior (mean linear, variance quadratic
in y = [gamma; u]), the cone constraint

    | A u + b |_2 <= c u + d,
    A = beta L^m,  b = beta L^r gamma,  c = zg + mu_m,  d = (zf + mu_r) gamma + e_r h,

with L the upper-triangular square root of the posterior Sigma (L^r / L^m its
first r / last m columns) and mu split the same way.  Folding the constant
e_r h(x) into the r-th drift coordinate (legal because gamma_r = 1) puts the
constraint in the exact form the feasibility results analyze, so the
necessary condition (phi Sigma^{-1} phi^T >= beta^2) and the sufficient
condition (S3 negative definite) apply verbatim to the solved program.

The solver is a dense primal-dual interior-point method on the homogeneous
self-dual embedding with Nesterov-Todd scaling and Mehrotra correction,
specialized to tiny cone products (a handful of variables, a handful of
cones).  It is deterministic and uses no external optimizer.
"""

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .barrier import CertificateTerms
from .errors import FactorizationError

__all__ = [
    "ConeProgram",
    "FilterOutcome",
    "SafetyConeData",
    "assemble_safety_cone",
    "build_S",
    "build_program",
    "effective_phi",
    "feasibility_necessary",
    "feasibility_sufficient",
    "matrix_sqrt_factor",
    "pointwise_conditions",
    "safety_filter_step",
    "solve",
]

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_MAX_ITERATIONS = "max_iterations"

_STATUS_NAMES = {0: STATUS_OPTIMAL, 1: STATUS_INFEASIBLE, 2: STATUS_MAX_ITERATIONS}


def matrix_sqrt_factor(sigma: np.ndarray) -> np.ndarray:
    """Upper-triangular L with L^T L = sigma (Cholesky of an SPD matrix)."""
    sigma = np.asarray(sigma, dtype=float)
    try:
        lower = np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(f"matrix is not positive definite: {exc}") from exc
    return lower.T.copy()


@dataclass(frozen=True)
class SafetyConeData:
    """Per-step cone constraint |A u + b| <= c u + d; rebuilt every step."""

    A: np.ndarray  # (m + r, m)
    b: np.ndarray  # (m + r,)
    c: np.ndarray  # (m,)
    d: float

    @property
    def degenerate(self) -> bool:
        """True when beta = 0 collapsed the cone to the affine c u + d >= 0."""
        return not (np.any(self.A) or np.any(self.b))


def effective_phi(cert: CertificateTerms, mu: np.ndarray) -> np.ndarray:
    """Row [zf + mu_r | zg + mu_m] with e_r h folded into the r-th entry.

    gamma_r = 1 makes the fold exact: phi @ [gamma; u] reproduces the cone's
    right-hand side c u + d.
    """
    mu = np.asarray(mu, dtype=float).reshape(-1)
    r = cert.zf.size
    phi = np.concatenate((cert.zf, cert.zg)) + mu
    phi[r - 1] += cert.const
    return phi


def assemble_safety_cone(
    cert: CertificateTerms,
    mu: np.ndarray,
    sigma: np.ndarray,
    beta: float,
    gamma: np.ndarray,
) -> SafetyConeData:
    """Build the cone data from certificate terms and the GP posterior."""
    mu = np.asarray(mu, dtype=float).reshape(-1)
    gamma = np.asarray(gamma, dtype=float)
    r = gamma.size
    m = mu.size - r
    if beta == 0.0:
        A = np.zeros((m + r, m))
        b = np.zeros(m + r)
    else:
        L = matrix_sqrt_factor(sigma)
        A = beta * L[:, r:]
        b = beta * (L[:, :r] @ gamma)
    c = cert.zg + mu[r:]
    d = float((cert.zf + mu[:r]) @ gamma) + cert.const
    return SafetyConeData(A=A, b=b, c=c, d=d)


def build_S(phi: np.ndarray, sigma: np.ndarray, beta: float) -> np.ndarray:
    """Feasibility test matrix S = beta^2 Sigma - phi^T phi, symmetrized.

    phi is the effective certificate row from :func:`effective_phi`; the
    trailing m x m block S3 is the cone's A^T A - c^T c.
    """
    phi = np.asarray(phi, dtype=float).reshape(-1)
    S = beta**2 * np.asarray(sigma, dtype=float) - np.outer(phi, phi)
    return 0.5 * (S + S.T)


def feasibility_necessary(phi: np.ndarray, sigma: np.ndarray, beta: float) -> float:
    """Value 1 - phi Sigma^{-1} phi^T / beta^2; feasibility requires <= 0."""
    if beta <= 0.0:
        raise ValueError("necessary condition needs beta > 0")
    phi = np.asarray(phi, dtype=float).reshape(-1)
    sol = np.linalg.solve(np.asarray(sigma, dtype=float), phi)
    return 1.0 - float(phi @ sol) / beta**2


def feasibility_sufficient(S3: np.ndarray) -> tuple[bool, float]:
    """Negative definiteness certificate for pointwise feasibility."""
    S3 = np.asarray(S3, dtype=float)
    max_eig = float(np.linalg.eigvalsh(0.5 * (S3 + S3.T))[-1])
    return max_eig < -1e-10, max_eig


def pointwise_conditions(
    gamma: np.ndarray, u, S: np.ndarray, phi: np.ndarray
) -> tuple[float, float]:
    """Evaluate the two pointwise feasibility conditions at a candidate u.

    Returns (affine, quadratic): feasibility requires affine >= 0 and
    quadratic <= 0.
    """
    y = np.concatenate((np.asarray(gamma, dtype=float), np.atleast_1d(np.asarray(u, dtype=float))))
    return float(np.asarray(phi).reshape(-1) @ y), float(y @ S @ y)


@dataclass(frozen=True)
class ConeProgram:
    """Epigraph-form SOCP over omega = [u; t].

    cones holds (M, n, p, q) blocks encoding |M w + n| <= p.w + q; affines
    holds (a, b) rows encoding a.w + b >= 0 (degenerate safety cones).
    """

    n_var: int
    m: int
    f: np.ndarray
    u_nom: np.ndarray
    cones: Sequence[tuple]
    affines: Sequence[tuple]


def build_program(u_nom, safety: Optional[SafetyConeData]) -> ConeProgram:
    """Assemble the filter program: min t s.t. |u - u_nom| <= t and the safety cone."""
    u_nom = np.atleast_1d(np.asarray(u_nom, dtype=float))
    m = u_nom.size
    n_var = m + 1
    f = np.zeros(n_var)
    f[m] = 1.0
    cones = []
    affines = []

    M1 = np.zeros((m, n_var))
    M1[:, :m] = np.eye(m)
    p1 = np.zeros(n_var)
    p1[m] = 1.0
    cones.append((M1, -u_nom.copy(), p1, 0.0))

    if safety is not None:
        c_full = np.zeros(n_var)
        c_full[:m] = safety.c
        if safety.degenerate:
            affines.append((c_full, safety.d))
        else:
            M2 = np.zeros((safety.A.shape[0], n_var))
            M2[:, :m] = safety.A
            cones.append((M2, safety.b.copy(), c_full, safety.d))

    return ConeProgram(
        n_var=n_var, m=m, f=f, u_nom=u_nom.copy(), cones=tuple(cones), affines=tuple(affines)
    )


@dataclass
class FilterOutcome:
    """Solver result plus the per-step feasibility diagnostics."""

    u: np.ndarray
    t: float
    status: str
    iterations: int
    diagnostics: dict = field(default_factory=dict)


def _flatten(program: ConeProgram):
    """Stack cones and affines into (G, h, dims) with s = h - G w in K."""
    rows_G = []
    rows_h = []
    dims = []
    for M, n, p, q in program.cones:
        rows_G.append(-np.vstack((p.reshape(1, -1), M)))
        rows_h.append(np.concatenate(([q], n)))
        dims.append(M.shape[0] + 1)
    for a, b in program.affines:
        rows_G.append(-a.reshape(1, -1))
        rows_h.append(np.array([b]))
        dims.append(1)
    G = np.ascontiguousarray(np.vstack(rows_G))
    h = np.ascontiguousarray(np.concatenate(rows_h))
    return G, h, np.asarray(dims, dtype=np.int64)


def constraint_slacks(program: ConeProgram, w: np.ndarray) -> list:
    """Margins p.w + q - |M w + n| per cone, then a.w + b per affine row."""
    out = []
    for M, n, p, q in program.cones:
        out.append(float(p @ w + q - np.linalg.norm(M @ w + n)))
    for a, b in program.affines:
        out.append(float(a @ w + b))
    return out


def _equilibrate(G, h, f, dims, rounds: int = 3):
    """Ruiz scaling: per-column and per-cone-block (uniform inside a block,
    which preserves cone membership) so the core iterates on O(1) data."""
    q, p = G.shape
    col = np.ones(p)
    row = np.ones(q)
    starts = np.concatenate(([0], np.cumsum(dims)))
    for _ in range(rounds):
        Gs = G * row[:, None] * col[None, :]
        cmax = np.maximum(np.abs(Gs).max(axis=0), 1e-12)
        col /= np.sqrt(cmax)
        Gs = G * row[:, None] * col[None, :]
        hs = np.abs(h) * row
        for b in range(len(dims)):
            lo, hi = starts[b], starts[b + 1]
            bmax = max(np.abs(Gs[lo:hi]).max(), hs[lo:hi].max(), 1e-12)
            row[lo:hi] /= math.sqrt(bmax)
    return (
        np.ascontiguousarray(G * row[:, None] * col[None, :]),
        np.ascontiguousarray(h * row),
        np.ascontiguousarray(f * col),
        col,
    )


def solve(program: ConeProgram, tol: float = 1e-8, max_iter: int = 100) -> FilterOutcome:
    """Solve the filter SOCP.

    When omega = [u_nom; 0] already satisfies every constraint the
    analytic answer u_nom is returned without running the iterative solver
    (the objective's lower bound 0 is attained).  Otherwise the interior-point
    core runs on the equilibrated problem; max_iterations returns the best
    iterate found.
    """
    m = program.m
    w0 = np.zeros(program.n_var)
    w0[:m] = program.u_nom
    if all(s >= 0.0 for s in constraint_slacks(program, w0)):
        return FilterOutcome(
            u=program.u_nom.copy(),
            t=0.0,
            status=STATUS_OPTIMAL,
            iterations=0,
            diagnostics={"analytic": True, "constraint_slacks": constraint_slacks(program, w0)},
        )
    G, h, dims = _flatten(program)
    Gs, hs, fs, col = _equilibrate(G, h, np.asarray(program.f, dtype=float), dims)
    ws, status_code, iters, pres, dres, gap = _ipm_core(fs, Gs, hs, dims, tol, max_iter)
    w = ws * col
    status = _STATUS_NAMES[int(status_code)]
    u = w[:m].copy()
    return FilterOutcome(
        u=u,
        t=float(w[m]),
        status=status,
        iterations=int(iters),
        diagnostics={
            "analytic": False,
            "constraint_slacks": constraint_slacks(program, w),
            "solver_pres": float(pres),
            "solver_dres": float(dres),
            "solver_gap": float(gap),
        },
    )


# ---------------------------------------------------------------------------
# interior-point core (homogeneous self-dual embedding, NT scaling)
# ---------------------------------------------------------------------------


def _cone_identity(dims):
    q = int(np.sum(dims))
    e = np.zeros(q)
    off = 0
    for d in dims:
        e[off] = 1.0
        off += d
    return e


def _soc_v_apply(w0, wbar, u0, ubar):
    """Apply V(w) = [[w0, wbar^T], [wbar, I + wbar wbar^T / (1 + w0)]]."""
    dot = 0.0
    for i in range(wbar.size):
        dot += wbar[i] * ubar[i]
    top = w0 * u0 + dot
    scale = u0 + dot / (1.0 + w0)
    bottom = ubar + scale * wbar
    return top, bottom


def _nt_scaling(s, z, dims):
    """Per-cone NT scaling point and scaled variable lambda = W z = W^{-1} s."""
    q = s.size
    wvec = np.zeros(q)
    eta = np.zeros(dims.size)
    lam = np.zeros(q)
    off = 0
    for ci in range(dims.size):
        d = int(dims[ci])
        if d == 1:
            w = math.sqrt(s[off] / z[off])
            wvec[off] = w
            eta[ci] = w
            lam[off] = math.sqrt(s[off] * z[off])
        else:
            s0 = s[off]
            z0 = z[off]
            sbar = s[off + 1 : off + d]
            zbar = z[off + 1 : off + d]
            rho_s = math.sqrt(max(s0 * s0 - np.dot(sbar, sbar), 1e-300))
            rho_z = math.sqrt(max(z0 * z0 - np.dot(zbar, zbar), 1e-300))
            st0 = s0 / rho_s
            zt0 = z0 / rho_z
            stb = sbar / rho_s
            ztb = zbar / rho_z
            gam = math.sqrt((1.0 + st0 * zt0 + np.dot(stb, ztb)) / 2.0)
            w0 = (st0 + zt0) / (2.0 * gam)
            wbar = (stb - ztb) / (2.0 * gam)
            et = math.sqrt(rho_s / rho_z)
            wvec[off] = w0
            wvec[off + 1 : off + d] = wbar
            eta[ci] = et
            l0, lbar = _soc_v_apply(w0, wbar, z0, zbar)
            lam[off] = et * l0
            lam[off + 1 : off + d] = et * lbar
        off += d
    return wvec, eta, lam


def _w_apply(wvec, eta, dims, u, inverse):
    """W u (inverse=False) or W^{-1} u (inverse=True) for the NT scaling."""
    out = np.zeros(u.size)
    off = 0
    for ci in range(dims.size):
        d = int(dims[ci])
        if d == 1:
            out[off] = u[off] * (1.0 / wvec[off] if inverse else wvec[off])
        else:
            w0 = wvec[off]
            wbar = wvec[off + 1 : off + d].copy()
            if inverse:
                wbar = -wbar
            t0, tb = _soc_v_apply(w0, wbar, u[off], u[off + 1 : off + d])
            scale = 1.0 / eta[ci] if inverse else eta[ci]
            out[off] = scale * t0
            out[off + 1 : off + d] = scale * tb
        off += d
    return out


def _dense_scaling(wvec, eta, dims):
    """Dense block-diagonal W and W^{-1} for the current NT scaling."""
    q = wvec.size
    Wm = np.zeros((q, q))
    Wim = np.zeros((q, q))
    off = 0
    for ci in range(dims.size):
        d = int(dims[ci])
        if d == 1:
            Wm[off, off] = wvec[off]
            Wim[off, off] = 1.0 / wvec[off]
        else:
            w0 = wvec[off]
            wbar = wvec[off + 1 : off + d]
            et = eta[ci]
            blk = np.empty((d, d))
            blk[0, 0] = w0
            for i in range(d - 1):
                blk[0, i + 1] = wbar[i]
                blk[i + 1, 0] = wbar[i]
                for j in range(d - 1):
                    blk[i + 1, j + 1] = wbar[i] * wbar[j] / (1.0 + w0)
                blk[i + 1, i + 1] += 1.0
            for i in range(d):
                for j in range(d):
                    Wm[off + i, off + j] = et * blk[i, j]
                    sign = -1.0 if (i == 0) != (j == 0) else 1.0
                    Wim[off + i, off + j] = sign * blk[i, j] / et
        off += d
    return Wm, Wim


def _arrow(lam, dims):
    q = lam.size
    out = np.zeros((q, q))
    off = 0
    for ci in range(dims.size):
        d = int(dims[ci])
        if d == 1:
            out[off, off] = lam[off]
        else:
            l0 = lam[off]
            out[off, off] = l0
            for i in range(d - 1):
                out[off, off + 1 + i] = lam[off + 1 + i]
                out[off + 1 + i, off] = lam[off + 1 + i]
                out[off + 1 + i, off + 1 + i] = l0
        off += d
    return out


def _jordan_mul(u, v, dims):
    out = np.zeros(u.size)
    off = 0
    for ci in range(dims.size):
        d = int(dims[ci])
        if d == 1:
            out[off] = u[off] * v[off]
        else:
            ub = u[off + 1 : off + d]
            vb = v[off + 1 : off + d]
            out[off] = u[off] * v[off] + np.dot(ub, vb)
            out[off + 1 : off + d] = u[off] * vb + v[off] * ub
        off += d
    return out


def _max_step(s, ds, dims):
    """sup {alpha >= 0 : s + alpha ds stays in the cone product}."""
    alpha = 1e100
    off = 0
    for ci in range(dims.size):
        d = int(dims[ci])
        if d == 1:
            if ds[off] < 0.0:
                alpha = min(alpha, -s[off] / ds[off])
        else:
            s0 = s[off]
            sbar = s[off + 1 : off + d]
            d0 = ds[off]
            dbar = ds[off + 1 : off + d]
            if d0 < 0.0:
                alpha = min(alpha, -s0 / d0)
            A = d0 * d0 - np.dot(dbar, dbar)
            B = s0 * d0 - np.dot(sbar, dbar)
            C = s0 * s0 - np.dot(sbar, sbar)
            disc = B * B - A * C
            if abs(A) < 1e-300:
                if B < 0.0:
                    alpha = min(alpha, -C / (2.0 * B))
            elif disc >= 0.0:
                sq = math.sqrt(disc)
                r1 = (-B - sq) / A
                r2 = (-B + sq) / A
                if A < 0.0:
                    root = max(r1, r2)
                    if root > 0.0:
                        alpha = min(alpha, root)
                else:
                    if r1 > 0.0:
                        alpha = min(alpha, r1)
                    elif r2 > 0.0:
                        alpha = min(alpha, r2)
        off += d
    return alpha


def _ipm_core(f, G, h, dims, tol, max_iter):
    """HSD predictor-corrector loop.  Returns (w, status, iters, pres, dres, gap)."""
    q, p = G.shape
    nu = dims.size
    e = _cone_identity(dims)
    x = np.zeros(p)
    s = e.copy()
    z = e.copy()
    tau = 1.0
    kappa = 1.0

    norm_f = max(1.0, math.sqrt(np.dot(f, f)))
    norm_h = max(1.0, math.sqrt(np.dot(h, h)))
    g_scale = max(1.0, math.sqrt(np.sum(G * G)))

    best_w = np.zeros(p)
    best_err = 1e300
    best_pres = 1e300
    best_dres = 1e300
    best_gap = 1e300
    best_it = 0

    status = 2
    iters = 0
    for it in range(max_iter):
        iters = it
        if not (
            np.all(np.isfinite(x))
            and np.all(np.isfinite(s))
            and np.all(np.isfinite(z))
            and math.isfinite(tau)
            and math.isfinite(kappa)
            and tau > 0.0
        ):
            break
        rx = G.T @ z + f * tau
        rz = s + G @ x - h * tau
        rtau = kappa + np.dot(f, x) + np.dot(h, z)

        xt = x / tau
        st = s / tau
        zt = z / tau
        pvec = G @ xt + st - h
        dvec = G.T @ zt + f
        pres = math.sqrt(np.dot(pvec, pvec)) / norm_h
        dres = math.sqrt(np.dot(dvec, dvec)) / norm_f
        pcost = np.dot(f, xt)
        dcost = -np.dot(h, zt)
        gap = np.dot(st, zt)
        gap_rel = gap / max(1.0, max(abs(pcost), abs(dcost)))

        err = max(pres, max(dres, gap_rel))
        if err < best_err:
            best_err = err
            best_w = xt.copy()
            best_pres = pres
            best_dres = dres
            best_gap = gap
            best_it = it
        if pres <= tol and dres <= tol and gap_rel <= tol:
            return xt, 0, it, pres, dres, gap

        hz = np.dot(h, z)
        if hz < -1e-14:
            gtz = G.T @ z
            cert = math.sqrt(np.dot(gtz, gtz)) / (-hz)
            if cert <= tol * g_scale:
                return best_w, 1, it, pres, dres, gap
        mu = (np.dot(s, z) + tau * kappa) / (nu + 1.0)
        if tau < 1e-10 * max(1.0, kappa) and mu < 1e-10:
            if hz < 0.0:
                return best_w, 1, it, pres, dres, gap
            return best_w, 2, it, pres, dres, gap
        # Numerical floor: no progress for a while, or the iterate degraded
        # far past the best one seen (NT scaling breakdown).
        if it - best_it > 8 or err > 1e6 * best_err:
            break

        wvec, eta, lam = _nt_scaling(s, z, dims)
        Wm, Wim = _dense_scaling(wvec, eta, dims)
        Lam = _arrow(lam, dims)
        M, scale, LWi = _assemble_kkt(G, h, f, Wm, Wim, Lam, tau, kappa)

        lamlam = _jordan_mul(lam, lam, dims)

        # Affine (predictor) direction.
        dx_a, dz_a, dsv_a, dtau_a, dkap_a = _kkt_solve(
            M, scale, LWi, G, h, f, Lam, Wm, Wim, tau, kappa,
            -rx, -rz, -rtau, -lamlam, -tau * kappa,
        )
        alpha_a = _step_all(s, z, tau, kappa, dsv_a, dz_a, dtau_a, dkap_a, dims)
        mu_aff = (
            np.dot(s + alpha_a * dsv_a, z + alpha_a * dz_a)
            + (tau + alpha_a * dtau_a) * (kappa + alpha_a * dkap_a)
        ) / (nu + 1.0)
        sigma = (mu_aff / mu) ** 3
        if not math.isfinite(sigma):
            break
        sigma = min(max(sigma, 0.0), 1.0)

        # Combined (corrector) direction.
        wis = _w_apply(wvec, eta, dims, dsv_a, True)
        wz = _w_apply(wvec, eta, dims, dz_a, False)
        corr = _jordan_mul(wis, wz, dims)
        rho = 1.0 - sigma
        ds_t = -lamlam - corr + sigma * mu * e
        dkt = -tau * kappa - dtau_a * dkap_a + sigma * mu
        dx, dz, dsv, dtau, dkap = _kkt_solve(
            M, scale, LWi, G, h, f, Lam, Wm, Wim, tau, kappa,
            -rho * rx, -rho * rz, -rho * rtau, ds_t, dkt,
        )
        alpha = 0.99 * _step_all(s, z, tau, kappa, dsv, dz, dtau, dkap, dims)
        alpha = min(alpha, 1.0)
        x = x + alpha * dx
        s = s + alpha * dsv
        z = z + alpha * dz
        tau = tau + alpha * dtau
        kappa = kappa + alpha * dkap

    return best_w, status, iters, best_pres, best_dres, best_gap


def _step_all(s, z, tau, kappa, ds, dz, dtau, dkap, dims):
    alpha = min(_max_step(s, ds, dims), _max_step(z, dz, dims))
    if dtau < 0.0:
        alpha = min(alpha, -tau / dtau)
    if dkap < 0.0:
        alpha = min(alpha, -kappa / dkap)
    return min(alpha, 1.0)


def _assemble_kkt(G, h, f, Wm, Wim, Lam, tau, kappa):
    """Augmented Newton matrix over (dx, dz, dtau) after eliminating ds, dkappa.

    Rows: dual equation; NT-linearized complementarity with ds substituted
    from the primal equation; the gap equation with dkappa substituted.
    Returned row-equilibrated together with the scaling vector.
    """
    q, p = G.shape
    n = p + q + 1
    M = np.zeros((n, n))
    LWi = Lam @ Wim
    M[:p, p : p + q] = G.T
    M[:p, n - 1] = f
    M[p : p + q, :p] = -(LWi @ G)
    M[p : p + q, p : p + q] = Lam @ Wm
    M[p : p + q, n - 1] = LWi @ h
    M[n - 1, :p] = f
    M[n - 1, p : p + q] = h
    M[n - 1, n - 1] = -kappa / tau
    scale = np.ones(n)
    for i in range(n):
        amax = np.max(np.abs(M[i]))
        if amax > 0.0:
            scale[i] = 1.0 / amax
            M[i] *= scale[i]
    # Static regularization; the refinement passes solve the true equations.
    for i in range(n):
        M[i, i] += 1e-13 if M[i, i] >= 0.0 else -1e-13
    return M, scale, LWi


def _kkt_solve(M, scale, LWi, G, h, f, Lam, Wm, Wim, tau, kappa,
               bx, bz, btau, ds_t, dkt):
    """One Newton solve with two refinement passes in the original equations."""
    q, p = G.shape
    n = p + q + 1
    rhs = np.empty(n)
    rhs[:p] = bx
    rhs[p : p + q] = ds_t - LWi @ bz
    rhs[n - 1] = btau - dkt / tau
    sol = np.linalg.solve(M, rhs * scale)
    dx = sol[:p]
    dz = sol[p : p + q]
    dtau = sol[n - 1]
    ds = bz - G @ dx + h * dtau
    dkap = (dkt - kappa * dtau) / tau
    for _ in range(2):
        q1 = bx - (G.T @ dz + f * dtau)
        q2 = bz - (ds + G @ dx - h * dtau)
        q4 = ds_t - Lam @ (Wm @ dz + Wim @ ds)
        q3 = btau - (dkap + np.dot(f, dx) + np.dot(h, dz))
        q5 = dkt - (kappa * dtau + tau * dkap)
        rr = np.empty(n)
        rr[:p] = q1
        rr[p : p + q] = q4 - LWi @ q2
        rr[n - 1] = q3 - q5 / tau
        csol = np.linalg.solve(M, rr * scale)
        dx = dx + csol[:p]
        dz = dz + csol[p : p + q]
        dtau = dtau + csol[n - 1]
        ds = ds + (q2 - G @ csol[:p] + h * csol[n - 1])
        dkap = dkap + (q5 - kappa * csol[n - 1]) / tau
    return dx, dz, ds, dtau, dkap


# ---------------------------------------------------------------------------
# high-level per-step filter
# ---------------------------------------------------------------------------


def safety_filter_step(
    u_nom,
    cert: CertificateTerms,
    mu: np.ndarray,
    sigma: np.ndarray,
    beta: float,
    gamma: np.ndarray,
    tol: float = 1e-8,
    max_iter: int = 100,
) -> FilterOutcome:
    """Assemble the cone, solve, and attach feasibility diagnostics.

    A step the solver could not finish is upgraded to ``infeasible`` whenever
    the necessary-condition value certifies it.
    """
    gamma = np.asarray(gamma, dtype=float)
    cone = assemble_safety_cone(cert, mu, sigma, beta, gamma)
    phi = effective_phi(cert, mu)
    if beta > 0.0:
        necessary = feasibility_necessary(phi, sigma, beta)
    else:
        necessary = -math.inf
    r = gamma.size
    S = build_S(phi, sigma, beta)
    certified, max_eig = feasibility_sufficient(S[r:, r:])

    program = build_program(u_nom, cone)
    outcome = solve(program, tol=tol, max_iter=max_iter)
    if outcome.status != STATUS_OPTIMAL and necessary > math.sqrt(tol):
        outcome.status = STATUS_INFEASIBLE
    outcome.diagnostics.update(
        {
            "necessary_condition_value": necessary,
            "sufficient_condition_eigenvalue": max_eig,
            "sufficient_certified": bool(certified),
            "degenerate_zg": not np.any(cert.zg),
        }
    )
    return outcome
