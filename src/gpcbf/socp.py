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

After the one LAPACK ``dpotrf`` of Sigma the step runs on Python floats,
whose loops over a few numbers cost less than numpy's calls.  numpy is left
for ``eigvalsh``, ``eigh`` and the polynomial roots at m >= 2, and for the
least-squares critical point that only an empty cone or an apex reaches.
Float arithmetic overflows to inf and NaN without a warning, and every
division and square root is guarded.  Sums run in index order, so last bits
can differ from numpy's BLAS dot products, whose kernels fuse multiply-adds.
"""

import math
import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ._lapack import dpotrf
from .barrier import CertificateTerms, _dot, _floats, halfspace_qp_filter
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

_EPS = sys.float_info.epsilon
_CERTIFIED_EIG = -1e-10  # a top eigenvalue of S3 below it meets the sufficient condition
_MAX_POLISH = 3  # Newton steps per candidate; each roughly squares the error


def matrix_sqrt_factor(sigma: np.ndarray) -> np.ndarray:
    """Upper-triangular L with L^T L = sigma (Cholesky of an SPD matrix).

    One LAPACK ``dpotrf`` call on sigma's lower triangle.  It is the call
    ``np.linalg.cholesky`` makes, so L keeps the bits of that factor's
    transpose.  ``clean=1`` zeroes the lower factor's strict upper
    triangle, and L is the transposed view of that factor.  ``info`` flags
    a non-positive pivot, but OpenBLAS lets a NaN or an infinite pivot
    pass.  A NaN anywhere in the lower triangle makes every later pivot
    NaN, an infinite diagonal entry makes its pivot infinite, and an
    infinite entry below the diagonal makes a later pivot non-positive or
    NaN.  So a factor passes only when its diagonal is finite, and no sigma
    with a non-finite entry in its lower triangle passes.
    """
    lower, info = dpotrf(np.asarray(sigma, dtype=float), lower=1, clean=1)
    if info != 0 or not _all_finite(lower.diagonal().tolist()):
        raise FactorizationError(f"matrix is not positive definite (dpotrf info {info})")
    return lower.T


def _all_finite(v) -> bool:
    """True when every entry of the flat sequence v is finite."""
    return all(map(math.isfinite, v))


@dataclass(slots=True)
class SafetyConeData:
    """Per-step cone constraint |A u + b| <= c u + d; rebuilt every step.

    It holds Python floats: A as m + r rows of m, b and c as lists; numpy
    arrays are converted.  ``columns`` holds A's columns for the loops of
    the projection.  ``S3`` = A^T A - c c^T is formed once, by
    :func:`build_S`: it is the quadric's matrix H in :func:`solve` and the
    matrix of the sufficient condition.  ``necessary_value`` is
    1 - phi Sigma^{-1} phi^T / beta^2, which :func:`assemble_safety_cone`
    takes from its Cholesky factor (-inf when beta = 0); a cone written by
    hand leaves it NaN.
    """

    A: list  # m + r rows of m floats
    b: list  # m + r floats
    c: list  # m floats
    d: float
    necessary_value: float = math.nan
    columns: list = field(init=False, repr=False)  # m tuples of m + r floats
    S3: list = field(init=False, repr=False)  # m rows of m floats

    def __post_init__(self):
        if type(self.A) is not list:
            self.A = np.asarray(self.A, dtype=float).tolist()
        self.b, self.c, self.d = _floats(self.b), _floats(self.c), float(self.d)
        cols = self.columns = list(zip(*self.A))
        # A^T A is exactly symmetric: p . q and q . p are the same sum
        self.S3 = build_S(self.c, [[_dot(p, q) for q in cols] for p in cols], 1.0)

    @property
    def degenerate(self) -> bool:
        """True when beta = 0 collapsed the cone to the affine c u + d >= 0."""
        return not (any(map(any, self.A)) or any(self.b))


def effective_phi(cert: CertificateTerms, mu: np.ndarray) -> np.ndarray:
    """Row [zf + mu_r | zg + mu_m] with e_r h folded into the r-th entry (see :func:`_mean_row`)."""
    return np.array(_mean_row(cert, _floats(mu))[0])


def _mean_row(cert: CertificateTerms, mu: list, gamma: Optional[list] = None) -> tuple:
    """(phi, c, d) as floats: the effective row and the mean-only constraint c u + d >= 0.

    phi = [zf + mu_r | zg + mu_m] with e_r h folded into its r-th entry;
    gamma_r = 1 makes the fold exact, so phi . [gamma; u] reproduces c u + d.
    c is phi's input block and d = (zf + mu_r) . gamma + e_r h, taken before
    the fold (NaN without gamma).
    """
    zf, const = _floats(cert.zf), float(cert.const)
    r = len(zf)
    phi = [a + b for a, b in zip(zf + _floats(cert.zg), mu)]
    c = phi[r:]
    d = math.nan if gamma is None else _dot(phi[:r], gamma) + const
    phi[r - 1] += const
    return phi, c, d


def assemble_safety_cone(
    cert: CertificateTerms, mu: np.ndarray, sigma: np.ndarray, beta: float, gamma: np.ndarray
) -> SafetyConeData:
    """Build the cone data, with its necessary-condition value, from
    certificate terms and the GP posterior."""
    mu, gamma, beta = _floats(mu), _floats(gamma), float(beta)
    r = len(gamma)
    m = len(mu) - r
    phi, c, d = _mean_row(cert, mu, gamma)
    if beta == 0.0:
        A = [[0.0] * m for _ in range(m + r)]
        b = [0.0] * (m + r)
        necessary = -math.inf
    else:
        L = matrix_sqrt_factor(sigma).tolist()
        A = [[beta * x for x in row[r:]] for row in L]
        b = [beta * _dot(row, gamma) for row in L]  # zip stops after gamma's r entries
        necessary = _necessary_from_factor(phi, L, beta)
    return SafetyConeData(A=A, b=b, c=c, d=d, necessary_value=necessary)


def build_S(phi, sigma, beta: float) -> list:
    """Feasibility test matrix S = beta^2 Sigma - phi^T phi, as rows of floats.

    phi is the effective certificate row from :func:`effective_phi` and
    sigma a square matrix, each any sequence of numbers.  Every cone forms
    its block S3 = A^T A - c c^T with this function, as build_S(c, A^T A, 1):
    A^T A = beta^2 Sigma_mm and c = phi[r:].  S is exactly symmetric when
    Sigma is, as every caller's Sigma is: the entries phi_i phi_j and
    phi_j phi_i of the outer product are the same floats.
    """
    b2 = beta**2
    return [[b2 * s - p * q for s, q in zip(row, phi)] for row, p in zip(sigma, phi)]


def _necessary_from_factor(phi: list, L: list, beta: float) -> float:
    """Necessary-condition value 1 - phi Sigma^{-1} phi^T / beta^2; feasibility requires <= 0.

    L holds the rows of the upper factor L^T L = Sigma, whose diagonal is
    positive, and phi Sigma^{-1} phi^T = |z|^2 for L^T z = phi, a forward
    substitution.  A nearly singular Sigma may overflow |z|^2 to make the
    value -inf.  A beta whose square leaves the float range takes beta^2 as
    inf (above 1.3e154) or as 0 (below 1.5e-162), where the value is 1 for
    phi = 0 and -inf otherwise.
    """
    z, zz = [], 0.0
    for i, p in enumerate(phi):
        for k, zk in enumerate(z):
            p -= L[k][i] * zk
        z.append(p / L[i][i])
        zz += z[i] * z[i]
    try:
        b2 = beta**2
    except OverflowError:
        b2 = math.inf
    if b2 == 0.0:
        return 1.0 if zz == 0.0 else -math.inf
    return 1.0 - zz / b2


def feasibility_sufficient(S3) -> float:
    """Top eigenvalue of S3; the sufficient condition holds where it is negative.

    S3 is a symmetric matrix, any sequence of rows, as :func:`build_S` forms
    it; ``eigvalsh`` reads its lower triangle.  With one input the
    eigenvalue is the entry itself.  With two or more inputs, an S3 that is
    not finite has no eigenvalue to certify: the value is NaN.
    :attr:`FilterOutcome.sufficient_certified` applies the threshold.
    """
    if len(S3) == 1:
        return float(S3[0][0])
    if not all(map(_all_finite, S3)):  # eigvalsh does not converge on it
        return math.nan
    return float(np.linalg.eigvalsh(np.array(S3, dtype=float))[-1])


def pointwise_conditions(gamma: np.ndarray, u, S, phi: np.ndarray) -> tuple[float, float]:
    """Evaluate the two pointwise feasibility conditions at a candidate u.

    Returns (affine, quadratic): feasibility requires affine >= 0 and
    quadratic <= 0.
    """
    y = np.concatenate((np.asarray(gamma, dtype=float), np.atleast_1d(np.asarray(u, dtype=float))))
    return float(np.asarray(phi).reshape(-1) @ y), float(y @ np.asarray(S, dtype=float) @ y)


@dataclass(slots=True)
class FilterOutcome:
    """One control step: the input the plant applies and what its log row keeps.

    Besides ``u``, a float tuple, and ``status`` it holds ``sigma``, the
    posterior std at [gamma; u]; ``necessary_value`` and ``sufficient_eig``,
    the feasibility values; ``iterations`` of the root finder and polish;
    ``cone_margin`` at u; ``analytic`` (u_nom was already in the cone); and
    ``cert``, the step's certificate terms.  ``sufficient_certified`` is
    read from ``sufficient_eig``.  :mod:`gpcbf.episodic` declares which
    fields a log row keeps.  The defaults are the values of a step that
    assembled no cone, such as a nominal QP step or a violation row.
    """

    u: tuple
    status: str
    sigma: float = math.nan
    necessary_value: float = math.nan
    sufficient_eig: float = math.nan
    iterations: int = 0
    cone_margin: float = math.nan
    analytic: bool = False
    cert: Optional[CertificateTerms] = None

    @property
    def sufficient_certified(self) -> bool:
        """True when the sufficient condition certified the step (False on a NaN eigenvalue)."""
        return self.sufficient_eig < _CERTIFIED_EIG

    @property
    def diagnostics(self) -> dict:
        """Read-only view {"analytic", "cone_margin"}; ``perfbench/spans.py`` is its one reader."""
        return {"analytic": self.analytic, "cone_margin": self.cone_margin}


def _residual(cone: SafetyConeData, u: list) -> tuple:
    """(A u + b, |A u + b|, c u + d) at the float list u; A u + b sums b + A_1 u_1 + A_2 u_2 ..."""
    res = cone.b
    for column, uj in zip(cone.columns, u):
        res = [x + a * uj for x, a in zip(res, column)]
    s2 = 0.0
    for x in res:
        s2 += x * x
    return res, math.sqrt(s2), _dot(cone.c, u) + cone.d


def cone_margin(cone: SafetyConeData, u) -> float:
    """c u + d - |A u + b|; u satisfies the cone when it is >= 0."""
    _, s, t = _residual(cone, _floats(u))
    return t - s


def solve(u_nom, cone: SafetyConeData, tol: float = 1e-8) -> FilterOutcome:
    """Project u_nom onto the safety cone; a :class:`FilterOutcome` with the solve's fields.

    ``optimal`` means the returned u has a finite cone margin
    >= -tol * max(1, |A u + b|); ``infeasible`` means no such u was found,
    and u is u_nom.  A margin that overflows certifies nothing.  The record's
    ``iterations`` counts root-finder and polishing iterations; it is 0 and
    ``analytic`` is True when u_nom already satisfies the cone.
    ``cone_margin`` is the margin at u (at u_nom on an infeasible step).
    ``sufficient_eig`` is the top eigenvalue of S3 when the projection
    decomposed S3 for its candidates (m >= 2), and NaN otherwise.  The
    step's other fields keep their defaults.  Every input count takes the
    same route: the margin at u_nom, then :func:`_project`.
    """
    u_nom = _floats(u_nom)
    _, s, t = _residual(cone, u_nom)
    margin = t - s
    analytic = 0.0 <= margin < math.inf
    top = math.nan
    if analytic:
        u, status, iterations = u_nom, STATUS_OPTIMAL, 0
    else:
        u, status, iterations, margin, top = _project(cone, u_nom, tol, margin)
    return FilterOutcome(
        tuple(u), status, sufficient_eig=top, iterations=iterations, cone_margin=margin,
        analytic=analytic,
    )


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


def _project(cone: SafetyConeData, u_nom: list, tol: float, margin: float):
    """The nearest candidate that passes the feasibility check; (u, status, iterations, margin, top).

    The input count m picks the candidates only: the nearest root of the
    scalar quadric from :func:`_scalar_root` for m = 1, the roots of the
    secular equation from :func:`_secular_candidates` for m >= 2.  The
    half-space point for beta = 0, the polish and check of
    :func:`_nearest_feasible` and the fallback to :func:`_nearest_critical`
    are the same for every m, but a cone whose H or g is not finite has no
    critical point, and for m >= 2 no secular candidates: least squares and
    the eigendecomposition do not converge on it.  top is the top
    eigenvalue of S3 from the secular route's decomposition, NaN without one.
    """
    iterations, top = 0, math.nan
    H, c, d, degenerate = cone.S3, cone.c, cone.d, cone.degenerate
    if degenerate:
        try:
            candidates = [halfspace_qp_filter(u_nom, c, d)]
        except InfeasibleConstraintError:
            candidates = []
    else:
        # Q(u) = u^T S3 u + 2 g^T u + k = |A u + b|^2 - (c u + d)^2
        g = [_dot(column, cone.b) - d * cj for column, cj in zip(cone.columns, c)]
        k = _dot(cone.b, cone.b) - d * d
        if len(u_nom) == 1:
            root = _scalar_root(H[0][0], g[0], k, c[0], d, u_nom[0])
            candidates = [] if root is None else [[root]]
        elif all(map(_all_finite, H)):  # else eigh does not converge
            candidates, iterations, top = _secular_candidates(cone, g, k, u_nom)
        else:
            candidates = []
    found, steps = _nearest_feasible(cone, u_nom, candidates, tol)
    if found is None and not degenerate and all(map(_all_finite, H)) and _all_finite(g):
        found, more = _nearest_feasible(cone, u_nom, [_nearest_critical(cone, g, u_nom)], tol)
        steps += more
    if found is None:
        return u_nom, STATUS_INFEASIBLE, iterations + steps, margin, top
    u, margin = found
    return u, STATUS_OPTIMAL, iterations + steps, margin, top


def _nearest_critical(cone: SafetyConeData, g: list, u_nom: list) -> list:
    """Nearest point with H u + g = 0 and c u + d >= 0, H = S3.

    With no root on the nappe, the projection lies where Q has no gradient:
    at an apex (A u + b = 0 = c u + d), or, when K has no interior, on the
    affine set H u + g = 0 where Q vanishes.  Points where c u + d < 0 are
    exchanged for the nearest one that also has c u + d = 0.
    """
    H, c, g, u_nom = (np.array(v) for v in (cone.S3, cone.c, g, u_nom))
    with np.errstate(all="ignore"):  # an overflow makes a point that fails the margin check
        u = u_nom - np.linalg.lstsq(H, H @ u_nom + g, rcond=None)[0]
        if float(c @ u) + cone.d < 0.0:
            M = np.vstack((H, c))
            u = u_nom - np.linalg.lstsq(M, M @ u_nom + np.append(g, cone.d), rcond=None)[0]
    return u.tolist()


def _nearest_feasible(cone: SafetyConeData, u_nom: list, candidates, tol: float):
    """Polish each candidate; ((u, margin) of the nearest feasible one or None, steps).

    A candidate is feasible when its margin is finite and at least
    -tol * max(1, |A u + b|), even when its distance to u_nom is inf.
    """
    found, best, steps = None, math.inf, 0
    for cand in candidates:
        cand, taken, cand_margin, norm = _polish(cone, cand)
        steps += taken
        dist = math.dist(cand, u_nom)
        feasible = math.isfinite(cand_margin) and cand_margin >= -tol * max(1.0, norm)
        if feasible and (found is None or dist < best):
            found, best = (cand, cand_margin), dist
    return found, steps


def _secular_candidates(cone: SafetyConeData, g: list, k: float, u_nom: list):
    """m >= 2: candidate projections from the secular equation; (list, iterations).

    Any u(lam) with lam >= 0, Q(u(lam)) = 0 and c u(lam) + d > 0 meets the
    KKT conditions of the convex projection, so it is the answer.  Q(u(lam))
    times prod_i (1 + lam h_i)^2 is a polynomial of degree <= 2m; each of its
    real roots lam >= 0, refined by Newton on the cone margin along u(lam)
    without crossing the pole, is a candidate when u(lam) lands on the nappe
    c u + d > 0.  The candidates come back as float lists, with the
    iterations and the top eigenvalue of H, taken before rounding noise is
    zeroed.
    """
    A, b, c, g, u_nom = (np.array(v) for v in (cone.A, cone.b, cone.c, g, u_nom))
    d = cone.d
    with np.errstate(all="ignore"):  # an overflow makes a candidate that fails the margin check
        h, V = np.linalg.eigh(np.array(cone.S3))  # only h[0] can be negative, so only it makes a pole
        top = float(h[-1])
        h[np.abs(h) <= 8.0 * _EPS * float(np.sum(A * A) + c @ c)] = 0.0  # rounding noise
        w = V.T @ u_nom
        gam = V.T @ g
        a = h * w + gam  # gradient of Q / 2 at u_nom, eigenbasis
        noise = 8.0 * _EPS * (np.abs(h).max() * math.sqrt(w @ w) + math.sqrt(g @ g))
        a[np.abs(a) <= noise] = 0.0  # else a flat direction adds a spurious distant root
        q0 = float(w @ (h * w + 2.0 * gam)) + k
        q0_size = float(np.abs(h) @ w**2 + 2.0 * np.abs(gam) @ np.abs(w) + b @ b) + d * d

        def point(lam):
            return V @ ((w - lam * gam) / (1.0 + lam * h))

        candidates, iterations = [], 0
        for lam in _numerator_roots(h, a * a, q0, (np.abs(h * w) + np.abs(gam)) ** 2, q0_size):
            side = math.copysign(1.0, 1.0 + lam * h[0])
            u = point(lam)
            for _ in range(_MAX_POLISH):
                res = A @ u + b
                s = math.sqrt(res @ res)
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
                candidates.append(u.tolist())
    return candidates, iterations, top


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
        return math.prod((sq for j, sq in enumerate(squares) if j != skip), start=P([1.0]))

    num = q0 * product(-1)
    for i in range(h.size):
        num = num + sign * a2[i] * P([0.0, 2.0, h[i]]) * product(i)
    coef = np.zeros(2 * h.size + 1)
    coef[: num.coef.size] = num.coef
    return coef


def _polish(cone: SafetyConeData, u: list):
    """Newton steps on the cone margin along its gradient.

    Where A u + b = 0, as everywhere on a beta = 0 cone, the gradient is c:
    there a step repairs the rounding of a half-space point projected from
    far away.  Returns (u, steps taken, cone margin at u, |A u + b|).
    """
    c = cone.c
    res, s, t = _residual(cone, u)
    steps = 0
    while steps < _MAX_POLISH and abs(t - s) > 4.0 * _EPS * (abs(t) + s):
        grad = [cj - _dot(column, res) / s for column, cj in zip(cone.columns, c)] if s > 0.0 else c
        norm2 = _dot(grad, grad)
        if norm2 == 0.0:
            break
        step = (t - s) / norm2
        u_new = [x - step * y for x, y in zip(u, grad)]
        res_new, s_new, t_new = _residual(cone, u_new)
        if abs(t_new - s_new) >= abs(t - s):
            break
        u, res, s, t = u_new, res_new, s_new, t_new
        steps += 1
    return u, steps, t - s, s


def safety_filter_step(
    u_nom, cert: CertificateTerms, mu: np.ndarray, sigma: np.ndarray, beta: float,
    gamma: np.ndarray, tol: float = 1e-8,
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
    ``cone_margin`` and ``analytic`` from :func:`solve`, the cone's
    ``necessary_value`` and ``sufficient_eig``, the top eigenvalue of the
    S3 that the projection solves with: from the projection's own ``eigh``
    of S3 when it ran one (m >= 2), so S3 is decomposed once per step, and
    from :func:`feasibility_sufficient` otherwise.  Every record carries ``cert`` and
    ``sigma``, the posterior std at [gamma; u] for the returned u.
    """
    mu, gamma = _floats(mu), _floats(gamma)
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
        return FilterOutcome(u, no_cone, sigma=_posterior_std(sigma, [*gamma, *u]), cert=cert)
    outcome = solve(u_nom, cone, tol=tol)
    if outcome.status != STATUS_OPTIMAL:
        outcome.u = _mean_halfspace(u_nom, cone.c, cone.d)
    outcome.sigma = _posterior_std(sigma, [*gamma, *outcome.u])
    outcome.necessary_value = cone.necessary_value
    if math.isnan(outcome.sufficient_eig):  # the projection did not decompose S3
        outcome.sufficient_eig = feasibility_sufficient(cone.S3)
    outcome.cert = cert
    return outcome


def _mean_halfspace(u_nom, c, d: float) -> tuple:
    """u_nom projected onto the mean-only half-space c u + d >= 0, as a float tuple.

    u_nom itself when the half-space is empty or not finite: a c or d that
    is not finite makes the margin at u_nom +inf, which keeps u_nom, or -inf
    or NaN, whose projected point :func:`halfspace_qp_filter` refuses.
    """
    try:
        return halfspace_qp_filter(u_nom, c, d)
    except InfeasibleConstraintError:
        return tuple(_floats(u_nom))


def _posterior_std(sigma: np.ndarray, y: list) -> float:
    """sqrt(y^T Sigma y) at y = [gamma; u], floored at 0 under the root.

    It reads Sigma's lower triangle, as ``dpotrf`` does.  A huge u overflows
    the sum to inf, and an infinite u or a NaN in that triangle makes NaN.
    """
    q = 0.0
    for i, row in enumerate(np.asarray(sigma, dtype=float).tolist()):
        off = 0.0
        for j in range(i):
            off += row[j] * y[j]
        q += (row[i] * y[i] + 2.0 * off) * y[i]
    return math.sqrt(max(q, 0.0))
