"""Uncertainty-aware min-norm safety filter as a projection onto one cone.

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
condition (S3 negative definite) apply verbatim to the filter.

The filter input is the Euclidean projection of u_nom onto the convex set
K = {u : |A u + b| <= c u + d}.  With H = A^T A - c c^T (the block S3),
g = A^T b - d c and k = b^T b - d^2,

    K = {u : Q(u) = u^T H u + 2 g^T u + k <= 0  and  c u + d >= 0}:

Q <= 0 is the union of two nappes and the sign of c u + d picks one.  H is
a rank-one downdate of A^T A, so it has at most one negative eigenvalue.
``solve`` returns u_nom itself when it lies in K (the analytic step).
Otherwise it projects along one route for every input count m, and m
picks the candidate projections only:

- beta = 0 (A = 0, b = 0): the closed-form half-space projection;
- m = 1: K is an interval whose finite ends are roots of the scalar
  quadratic Q, so the candidate is the root on the branch c u + d >= 0
  nearest u_nom, from the cancellation-free quadratic formula;
- m >= 2: stationarity gives u(lam) = (I + lam H)^{-1} (u_nom - lam g) with
  lam >= 0, and the answer is the root of the secular function Q(u(lam))
  with c u(lam) + d > 0 (More, "Generalizations of the trust region
  problem", 1993, whose m = 1 case is the scalar root above).  After one
  eigendecomposition of H it is a scalar rational function with at most
  one pole on lam > 0, and the right root lies beyond the pole when u_nom
  sits deep on the wrong side.  Its roots are those of a polynomial of
  degree <= 2m, each refined by Newton steps on the cone margin along
  u(lam) without crossing the pole.

Every candidate is polished by Newton steps on the cone margin
c u + d - |A u + b|, and the nearest one whose margin is finite and at
least -tol * max(1, |A u + b|) is returned.  When no root qualifies, the
projection can only lie where Q has no gradient: at an apex of the cone
(A u + b = 0 = c u + d), or anywhere on H u + g = 0 when K has no interior.
The filter's cones have neither, because Sigma is positive definite and
gamma_r = 1.  A step is infeasible when K is empty.
"""

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ._lapack import dpotrf, dtrsv
from .barrier import CertificateTerms, halfspace_qp_filter
from .errors import FactorizationError, InfeasibleConstraintError

__all__ = [
    "FilterOutcome",
    "SafetyConeData",
    "assemble_safety_cone",
    "build_S",
    "cone_margin",
    "effective_phi",
    "feasibility_sufficient",
    "matrix_sqrt_factor",
    "pointwise_conditions",
    "safety_filter_step",
    "solve",
]

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_FACTORIZATION_FAILED = "factorization_failed"

_EPS = np.finfo(float).eps
_MAX_POLISH = 3  # Newton steps per candidate; each roughly squares the error


def matrix_sqrt_factor(sigma: np.ndarray) -> np.ndarray:
    """Upper-triangular L with L^T L = sigma (Cholesky of an SPD matrix).

    One LAPACK ``dpotrf`` call on sigma's lower triangle.  It is the call
    ``np.linalg.cholesky`` makes, so L keeps the bits of that factor's
    transpose, and the cone and its projection keep theirs.  ``clean=1``
    zeroes the lower factor's strict upper triangle.  L is the transposed
    view of that Fortran-ordered factor, which BLAS ``dtrsv`` reads in
    place in :func:`_necessary_from_factor`.  ``info`` flags a
    non-positive pivot, but OpenBLAS lets a NaN or an infinite pivot pass.
    A NaN anywhere in the lower triangle makes every later pivot NaN, an
    infinite diagonal entry makes its pivot infinite, and an infinite entry
    below the diagonal makes a later pivot non-positive or NaN.  So a
    factor passes only when its diagonal is finite, and no sigma with a
    non-finite entry in its lower triangle passes.
    """
    lower, info = dpotrf(np.asarray(sigma, dtype=float), lower=1, clean=1)
    if info != 0 or not _all_finite(lower.diagonal()):
        raise FactorizationError(f"matrix is not positive definite (dpotrf info {info})")
    return lower.T


def _all_finite(v: np.ndarray) -> bool:
    """True when every entry of the 1-D v is finite.

    On the few entries of a filter step's arrays this costs a fifth of
    ``np.isfinite(v).all()``.
    """
    return all(map(math.isfinite, v.tolist()))


@dataclass(frozen=True)
class SafetyConeData:
    """Per-step cone constraint |A u + b| <= c u + d; rebuilt every step.

    ``S3`` = A^T A - c c^T is formed once, by :func:`build_S`, for every
    cone: it is the quadric's matrix H in :func:`solve` and the matrix of
    the sufficient condition.  ``necessary_value`` is the necessary-condition
    value 1 - phi Sigma^{-1} phi^T / beta^2 that :func:`assemble_safety_cone`
    takes from the Cholesky factor it assembled the cone with (-inf when
    beta = 0); a cone written by hand leaves it NaN.
    """

    A: np.ndarray  # (m + r, m)
    b: np.ndarray  # (m + r,)
    c: np.ndarray  # (m,)
    d: float
    necessary_value: float = math.nan
    S3: np.ndarray = field(init=False, repr=False)  # (m, m)

    def __post_init__(self):
        object.__setattr__(self, "S3", build_S(self.c, self.A.T @ self.A, 1.0))

    @property
    def degenerate(self) -> bool:
        """True when beta = 0 collapsed the cone to the affine c u + d >= 0."""
        return not (self.A.any() or self.b.any())


def effective_phi(cert: CertificateTerms, mu: np.ndarray) -> np.ndarray:
    """Row [zf + mu_r | zg + mu_m] with e_r h folded into the r-th entry (see :func:`_mean_row`)."""
    return _mean_row(cert, np.asarray(mu, dtype=float).reshape(-1))[0]


def _mean_row(cert: CertificateTerms, mu: np.ndarray, gamma: Optional[np.ndarray] = None) -> tuple:
    """(phi, c, d): the effective row and the mean-only constraint c u + d >= 0.

    phi = [zf + mu_r | zg + mu_m] with e_r h folded into its r-th entry;
    gamma_r = 1 makes the fold exact, so phi @ [gamma; u] reproduces c u + d.
    c is phi's input block and d = (zf + mu_r) . gamma + e_r h, taken before
    the fold (NaN without gamma).  mu is a flat vector.
    """
    r = cert.zf.size
    phi = np.concatenate((cert.zf, cert.zg)) + mu
    c = phi[r:]  # the fold below changes entry r - 1 only
    d = math.nan if gamma is None else float(phi[:r] @ gamma) + cert.const
    phi[r - 1] += cert.const
    return phi, c, d


def assemble_safety_cone(
    cert: CertificateTerms,
    mu: np.ndarray,
    sigma: np.ndarray,
    beta: float,
    gamma: np.ndarray,
) -> SafetyConeData:
    """Build the cone data, with its necessary-condition value, from
    certificate terms and the GP posterior."""
    mu = np.asarray(mu, dtype=float).reshape(-1)
    gamma = np.asarray(gamma, dtype=float)
    r = gamma.size
    m = mu.size - r
    phi, c, d = _mean_row(cert, mu, gamma)
    if beta == 0.0:
        A = np.zeros((m + r, m))
        b = np.zeros(m + r)
        necessary = -math.inf
    else:
        L = matrix_sqrt_factor(sigma)
        A = beta * L[:, r:]
        b = beta * (L[:, :r] @ gamma)
        necessary = _necessary_from_factor(phi, L, beta)
    return SafetyConeData(A=A, b=b, c=c, d=d, necessary_value=necessary)


def build_S(phi: np.ndarray, sigma: np.ndarray, beta: float) -> np.ndarray:
    """Feasibility test matrix S = beta^2 Sigma - phi^T phi.

    phi is the effective certificate row from :func:`effective_phi`.  Every
    cone forms its block S3 = A^T A - c c^T with this function, as
    build_S(c, A^T A, 1): A^T A = beta^2 Sigma_mm and c = phi[r:].  S is
    exactly symmetric when Sigma is, as every caller's Sigma is: the
    posterior's and A^T A are each one symmetric product, and the outer
    product's entries phi_i phi_j and phi_j phi_i are the same floats.
    """
    phi = np.asarray(phi, dtype=float).reshape(-1)
    return beta**2 * np.asarray(sigma, dtype=float) - np.outer(phi, phi)


def _necessary_from_factor(phi: np.ndarray, L: np.ndarray, beta: float) -> float:
    """Necessary-condition value 1 - phi Sigma^{-1} phi^T / beta^2; feasibility requires <= 0.

    L is the upper factor L^T L = Sigma, and phi Sigma^{-1} phi^T = |z|^2
    with L^T z = phi: one triangular solve, the single-threaded BLAS
    level-2 ``dtrsv`` on the Fortran-ordered lower factor L^T in place.
    A nearly singular Sigma may overflow |z|^2; the value is then -inf, and
    :func:`safety_filter_step` silences the overflow warning.  A beta whose
    square leaves the float range takes beta^2 as inf (above 1.3e154) or as
    0 (below 1.5e-162), where the value is 1 for phi = 0 and -inf otherwise.
    """
    z = dtrsv(L.T, phi, lower=1)
    zz = float(z @ z)
    try:
        b2 = beta**2
    except OverflowError:
        b2 = math.inf
    if b2 == 0.0:
        return 1.0 if zz == 0.0 else -math.inf
    return 1.0 - zz / b2


def feasibility_sufficient(S3: np.ndarray) -> tuple[bool, float]:
    """Negative definiteness certificate for pointwise feasibility.

    S3 is symmetric, as :func:`build_S` forms it; ``eigvalsh`` reads its
    lower triangle.  With two or more inputs, an S3 that is not finite has
    no eigenvalue to certify: the value is NaN.
    """
    S3 = np.asarray(S3, dtype=float)
    if S3.shape == (1, 1):  # one input: the eigenvalue is the entry itself
        max_eig = float(S3[0, 0])
    elif _all_finite(S3.ravel()):
        max_eig = float(np.linalg.eigvalsh(S3)[-1])
    else:  # eigvalsh does not converge on a matrix that is not finite
        max_eig = math.nan
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


@dataclass(slots=True)
class FilterOutcome:
    """One control step: the input the plant applies and what its log row keeps.

    Besides ``u`` and ``status`` it holds ``sigma``, the posterior std at
    [gamma; u]; ``necessary_value`` and ``sufficient_eig``, the feasibility
    values; ``iterations`` of the root finder and polish; ``cone_margin``
    at u; ``analytic`` (u_nom was already in the cone);
    ``sufficient_certified``; and ``cert``, the step's certificate terms.
    :mod:`gpcbf.episodic` declares which fields a log row keeps.  The
    defaults are the values of a step that assembled no cone, such as a
    nominal QP step or a trailing violation row.
    """

    u: np.ndarray
    status: str
    sigma: float = math.nan
    necessary_value: float = math.nan
    sufficient_eig: float = math.nan
    iterations: int = 0
    cone_margin: float = math.nan
    analytic: bool = False
    sufficient_certified: bool = False
    cert: Optional[CertificateTerms] = None

    @property
    def diagnostics(self) -> dict:
        """Read-only view {"analytic", "cone_margin"} for the benchmark's span counter.

        ``perfbench/spans.py::_solve_counts`` is its one reader; the
        property goes with the benchmark change that counts projections
        from the record's fields.
        """
        return {"analytic": self.analytic, "cone_margin": self.cone_margin}


def _norm(v: np.ndarray) -> float:
    """|v|_2 as sqrt(v . v): numpy's norm of a real vector, bit for bit, without its call cost."""
    return math.sqrt(v @ v)


def cone_margin(cone: SafetyConeData, u: np.ndarray) -> float:
    """c u + d - |A u + b|; u satisfies the cone when it is >= 0."""
    return float(cone.c @ u + cone.d - _norm(cone.A @ u + cone.b))


def solve(u_nom, cone: SafetyConeData, tol: float = 1e-8) -> FilterOutcome:
    """Project u_nom onto the safety cone; a :class:`FilterOutcome` with the solve's fields.

    ``optimal`` means the returned u has a finite cone margin
    >= -tol * max(1, |A u + b|); ``infeasible`` means no such u was found,
    and u is u_nom.  A margin that overflows certifies nothing.  The record's
    ``iterations`` counts root-finder and polishing iterations; it is 0 and
    ``analytic`` is True when u_nom already satisfies the cone.
    ``cone_margin`` is the margin at u (at u_nom on an infeasible step).
    The step's other fields keep their defaults.  Every input count takes
    the same route: the margin at u_nom, then :func:`_project`.
    """
    u_nom = np.atleast_1d(np.asarray(u_nom, dtype=float))
    with np.errstate(all="ignore"):  # an overflowing margin fails every test below
        margin = cone_margin(cone, u_nom)
        analytic = 0.0 <= margin < math.inf
        if analytic:
            u, status, iterations = u_nom.copy(), STATUS_OPTIMAL, 0
        else:
            u, status, iterations, margin = _project(cone, u_nom, tol, margin)
    return FilterOutcome(u, status, iterations=iterations, cone_margin=margin, analytic=analytic)


def _scalar_root(H: float, g: float, k: float, c: float, d: float, u0: float) -> Optional[float]:
    """m = 1: the root of H u^2 + 2 g u + k on the branch c u + d >= 0 nearest u0, or None."""
    # Roots without cancellation: q / H and k / q.
    disc = g * g - H * k
    if disc < 0.0:
        return None
    q = -(g + math.copysign(math.sqrt(disc), g))
    roots = ([q / H] if H != 0.0 else []) + ([k / q] if q != 0.0 else [])
    best = None
    for root in roots:
        if c * root + d >= 0.0 and (best is None or abs(root - u0) < abs(best - u0)):
            best = root
    return best


def _project(cone: SafetyConeData, u_nom: np.ndarray, tol: float, margin: float):
    """The nearest candidate that passes the feasibility check; (u, status, iterations, margin).

    The input count m picks the candidates only: the nearest root of the
    scalar quadric from :func:`_scalar_root` for m = 1, the roots of the
    secular equation from :func:`_secular_candidates` for m >= 2.  The
    half-space point for beta = 0, the polish and check of
    :func:`_nearest_feasible` and the fallback to :func:`_nearest_critical`
    are the same for every m, but a cone whose H or g is not finite has no
    critical point, and for m >= 2 no secular candidates: least squares and
    the eigendecomposition do not converge on it.
    """
    iterations = 0
    if cone.degenerate:
        try:
            candidates = [halfspace_qp_filter(u_nom, cone.c, cone.d)]
        except InfeasibleConstraintError:
            candidates = []
    else:
        # Q(u) = u^T S3 u + 2 g^T u + k = |A u + b|^2 - (c u + d)^2
        A, b, c, d = cone.A, cone.b, cone.c, cone.d
        g, k = A.T @ b - d * c, float(b @ b) - d * d
        if u_nom.size == 1:
            root = _scalar_root(cone.S3.item(), g.item(), k, c.item(), d, u_nom.item())
            candidates = [] if root is None else [np.array([root])]
        elif _all_finite(cone.S3.ravel()):  # else eigh does not converge
            candidates, iterations = _secular_candidates(cone, g, k, u_nom)
        else:
            candidates = []
    found, steps = _nearest_feasible(cone, u_nom, candidates, tol)
    if found is None and not cone.degenerate:
        if _all_finite(cone.S3.ravel()) and _all_finite(g):
            found, more = _nearest_feasible(cone, u_nom, [_nearest_critical(cone, g, u_nom)], tol)
            steps += more
    if found is None:
        return u_nom.copy(), STATUS_INFEASIBLE, iterations + steps, margin
    u, margin = found
    return u, STATUS_OPTIMAL, iterations + steps, margin


def _nearest_critical(cone: SafetyConeData, g: np.ndarray, u_nom: np.ndarray) -> np.ndarray:
    """Nearest point with H u + g = 0 and c u + d >= 0, H = S3.

    With no root on the nappe, the projection lies where Q has no gradient:
    at an apex (A u + b = 0 = c u + d), or, when K has no interior, on the
    affine set H u + g = 0 where Q vanishes.  Points where c u + d < 0 are
    exchanged for the nearest one that also has c u + d = 0.
    """
    H, c, d = cone.S3, cone.c, cone.d
    u = u_nom - np.linalg.lstsq(H, H @ u_nom + g, rcond=None)[0]
    if float(c @ u) + d < 0.0:
        M = np.vstack((H, c))
        u = u_nom - np.linalg.lstsq(M, M @ u_nom + np.append(g, d), rcond=None)[0]
    return u


def _nearest_feasible(cone: SafetyConeData, u_nom: np.ndarray, candidates, tol: float):
    """Polish each candidate; ((u, margin) of the nearest feasible one or None, steps).

    A candidate is feasible when its margin is finite and at least
    -tol * max(1, |A u + b|); it counts even when its distance to u_nom
    overflows to inf.
    """
    found, best, steps = None, math.inf, 0
    for cand in candidates:
        cand, taken, cand_margin, norm = _polish(cone, cand)
        steps += taken
        dist = _norm(cand - u_nom)
        feasible = math.isfinite(cand_margin) and cand_margin >= -tol * max(1.0, norm)
        if feasible and (found is None or dist < best):
            found, best = (cand, cand_margin), dist
    return found, steps


def _secular_candidates(cone: SafetyConeData, g: np.ndarray, k: float, u_nom: np.ndarray):
    """m >= 2: candidate projections from the secular equation; (list, iterations).

    Any u(lam) with lam >= 0, Q(u(lam)) = 0 and c u(lam) + d > 0 meets the
    KKT conditions of the convex projection, so it is the answer.  Q(u(lam))
    times prod_i (1 + lam h_i)^2 is a polynomial of degree <= 2m; each of its
    real roots lam >= 0, refined by Newton on the cone margin along u(lam)
    without crossing the pole, is a candidate when u(lam) lands on the nappe
    c u + d > 0.
    """
    A, b, c, d = cone.A, cone.b, cone.c, cone.d
    h, V = np.linalg.eigh(cone.S3)  # only h[0] can be negative, so only it makes a pole
    h[np.abs(h) <= 8.0 * _EPS * float(np.sum(A * A) + c @ c)] = 0.0  # rounding noise
    w = V.T @ u_nom
    gam = V.T @ g
    a = h * w + gam  # gradient of Q / 2 at u_nom, eigenbasis
    noise = 8.0 * _EPS * (np.abs(h).max() * _norm(w) + _norm(g))
    a[np.abs(a) <= noise] = 0.0  # else a flat direction adds a spurious distant root
    q0 = float(w @ (h * w + 2.0 * gam)) + k
    q0_size = float(np.abs(h) @ w**2 + 2.0 * np.abs(gam) @ np.abs(w) + b @ b) + d * d

    def point(lam):
        return V @ ((w - lam * gam) / (1.0 + lam * h))

    candidates = []
    iterations = 0
    for lam in _numerator_roots(h, a * a, q0, (np.abs(h * w) + np.abs(gam)) ** 2, q0_size):
        side = math.copysign(1.0, 1.0 + lam * h[0])
        u = point(lam)
        for _ in range(_MAX_POLISH):
            res = A @ u + b
            s = _norm(res)
            t = float(c @ u) + d
            if t <= 0.0 or s == 0.0:
                break
            slope = -float((c - A.T @ res / s) @ (V @ (a / (1.0 + lam * h) ** 2)))
            step = lam - (t - s) / slope if slope != 0.0 else math.nan
            if not (step >= 0.0 and math.copysign(1.0, 1.0 + step * h[0]) == side):
                break
            iterations += 1
            done = abs(step - lam) <= 4.0 * _EPS * lam
            lam, u = step, point(step)
            if done:
                break
        # u(lam) is undefined at the pole; roots on the other nappe are no
        # candidates, and skipping them spares their polishing.
        if abs(1.0 + lam * h[0]) > 1e-12 and float(c @ u) + d > 0.0:
            candidates.append(u)
    return candidates, iterations


def _numerator_roots(h, a2, q0, a2_size, q0_size) -> list:
    """Real roots lam >= 0 of Q(u(lam)) prod_i (1 + lam h_i)^2, a polynomial.

    In the eigenbasis of H,
    Q(u(lam)) = Q(u_nom) - sum_i a2_i lam (2 + lam h_i) / (1 + lam h_i)^2.
    a2_size and q0_size bound the magnitudes of the terms behind a2 and
    Q(u_nom); a coefficient below the rounding error of its own terms is
    zero, else a vanishing leading coefficient adds spurious roots.
    """
    coef = _numerator(h, a2, q0, -1.0)
    coef[np.abs(coef) <= 64.0 * _EPS * _numerator(np.abs(h), a2_size, q0_size, 1.0)] = 0.0
    try:
        roots = np.polynomial.Polynomial(coef).trim().roots()
    except np.linalg.LinAlgError:  # non-finite data, or a companion matrix that overflows
        return []
    real = np.abs(roots.imag) <= 1e-8 * np.maximum(1.0, np.abs(roots))
    return [float(z) for z in roots.real[real] if z >= 0.0]


def _numerator(h, a2, q0, sign) -> np.ndarray:
    """Coefficients, lowest degree first, of the polynomial in lam

    q0 prod_i (1 + lam h_i)^2 + sign sum_i a2_i lam (2 + lam h_i) prod_(j != i) (1 + lam h_j)^2.
    """
    P = np.polynomial.Polynomial
    squares = [P([1.0, hi]) ** 2 for hi in h]

    def product(skip):
        out = P([1.0])
        for j, sq in enumerate(squares):
            if j != skip:
                out = out * sq
        return out

    num = q0 * product(-1)
    for i in range(h.size):
        num = num + sign * a2[i] * P([0.0, 2.0, h[i]]) * product(i)
    coef = np.zeros(2 * h.size + 1)
    coef[: num.coef.size] = num.coef
    return coef


def _polish(cone: SafetyConeData, u: np.ndarray):
    """Newton steps on the cone margin along its gradient.

    Where A u + b = 0, as everywhere on a beta = 0 cone, the gradient is c:
    there a step repairs the rounding of a half-space point projected from
    far away.  Returns (u, steps taken, cone margin at u, |A u + b|).
    """
    A, b, c, d = cone.A, cone.b, cone.c, cone.d
    res = A @ u + b
    s = _norm(res)
    t = float(c @ u) + d
    steps = 0
    while steps < _MAX_POLISH and abs(t - s) > 4.0 * _EPS * (abs(t) + s):
        grad = c - (A.T @ res) / s if s > 0.0 else c
        norm2 = float(grad @ grad)
        if norm2 == 0.0:
            break
        u_new = u - ((t - s) / norm2) * grad
        res_new = A @ u_new + b
        s_new = _norm(res_new)
        t_new = float(c @ u_new) + d
        if abs(t_new - s_new) >= abs(t - s):
            break
        u, res, s, t = u_new, res_new, s_new, t_new
        steps += 1
    return u, steps, t - s, s


def safety_filter_step(
    u_nom,
    cert: CertificateTerms,
    mu: np.ndarray,
    sigma: np.ndarray,
    beta: float,
    gamma: np.ndarray,
    tol: float = 1e-8,
) -> FilterOutcome:
    """One filter step: the :class:`FilterOutcome` whose u the plant applies and the log keeps.

    Assembles the cone and projects u_nom onto it.  On an infeasible step
    the mean-only half-space c u + d >= 0 is enforced as a best effort, and
    u_nom is kept when that half-space is empty or not finite; the status
    stays ``infeasible``.  mu is checked for finiteness before the cone is
    assembled: a mean that is not finite certifies no input, so the step is
    ``infeasible`` without a cone.  When beta > 0 and Sigma does not factor
    into a finite factor (see :func:`matrix_sqrt_factor`), the step is
    ``factorization_failed``.  Both apply the same mean-only fallback and
    keep the record's defaults: iterations 0, and NaN cone margin and
    feasibility values.  Otherwise the record carries ``iterations``,
    ``cone_margin`` and ``analytic`` from :func:`solve`, and the
    feasibility values ``necessary_value``, ``sufficient_eig`` and
    ``sufficient_certified``.
    Every step's record carries ``sigma``, the posterior std
    sqrt(y^T Sigma y) at y = [gamma; u] for the returned u, and ``cert``.
    The sufficient condition reads the cone's S3, the matrix of the quadric
    that the projection solves; the necessary value comes with the cone,
    from the factor that assembled it.  The whole step runs in one
    ``np.errstate`` block that silences overflow and invalid operations:
    an overflowing necessary value or posterior std is logged as inf, -inf
    or NaN without a warning.
    """
    gamma = np.asarray(gamma, dtype=float)
    mu = np.asarray(mu, dtype=float).reshape(-1)
    with np.errstate(over="ignore", invalid="ignore"):
        no_cone = None
        if not _all_finite(mu):
            no_cone = STATUS_INFEASIBLE
        else:
            try:
                cone = assemble_safety_cone(cert, mu, sigma, beta, gamma)
            except FactorizationError:
                no_cone = STATUS_FACTORIZATION_FAILED
        if no_cone is not None:
            _, c, d = _mean_row(cert, mu, gamma)
            u = _mean_halfspace(u_nom, c, d)
            return FilterOutcome(u, no_cone, sigma=_posterior_std(sigma, gamma, u), cert=cert)
        certified, max_eig = feasibility_sufficient(cone.S3)
        outcome = solve(u_nom, cone, tol=tol)
        if outcome.status != STATUS_OPTIMAL:
            outcome.u = _mean_halfspace(u_nom, cone.c, cone.d)
        outcome.sigma = _posterior_std(sigma, gamma, outcome.u)
    outcome.necessary_value = cone.necessary_value
    outcome.sufficient_eig = max_eig
    outcome.sufficient_certified = certified
    outcome.cert = cert
    return outcome


def _mean_halfspace(u_nom, c: np.ndarray, d: float) -> np.ndarray:
    """u_nom projected onto the mean-only half-space c u + d >= 0.

    u_nom itself when the half-space is empty or not finite: a c or d that
    is not finite makes the margin at u_nom +inf, which keeps u_nom, or
    -inf or NaN, which makes the projected point non-finite, and
    :func:`halfspace_qp_filter` refuses that point.
    """
    try:
        return halfspace_qp_filter(u_nom, c, d)
    except InfeasibleConstraintError:
        return np.atleast_1d(np.array(u_nom, dtype=float))


def _posterior_std(sigma: np.ndarray, gamma: np.ndarray, u: np.ndarray) -> float:
    """sqrt(y^T Sigma y) at y = [gamma; u], floored at 0 under the root.

    A huge u overflows the product to inf, and an infinite u or a Sigma
    holding NaN can make it NaN; :func:`safety_filter_step` silences the
    warnings, and a finite value keeps its bits.
    """
    y = np.concatenate((gamma, u))
    return math.sqrt(max(float(y @ sigma @ y), 0.0))
