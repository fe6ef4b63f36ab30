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
  sits deep on the wrong side.  Each side of the pole holds at most one
  root that can be the answer, and a bracketed search narrows each to
  adjacent floats (Gander, Golub & von Matt, Linear Algebra Appl. 1989).

Every candidate is polished by Newton steps on the cone margin
c u + d - |A u + b|, and the nearest one whose margin is finite and at
least -tol * max(1, |A u + b|) is returned.  A projection that is no root
lies where Q has no gradient: at an apex of the cone (A u + b = 0 = c u + d)
or on H u + g = 0 when K has no interior; that point is a candidate at
m >= 2, where rounding can make a root next to it, and the fallback at
m = 1.  The filter's cones have neither, because Sigma is positive definite
and gamma_r = 1.  A step is infeasible when K is empty.

After the one LAPACK ``dpotrf`` of Sigma the step runs on Python floats,
whose loops over a few numbers cost less than numpy's calls.  numpy is left
for ``eigvalsh``, the one ``eigh`` at m >= 2 and the least-squares critical
point.
Float arithmetic overflows to inf and NaN without a warning, and every
division and square root is guarded.  Sums run in index order, so last bits
can differ from numpy's BLAS dot products, whose kernels fuse multiply-adds.
"""

import math
import struct
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
    ``iterations`` counts secular-search probes and polishing steps; it is 0
    and ``analytic`` is True when u_nom already satisfies the cone.
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
        u, status, iterations, margin, top = _project(cone, u_nom, tol, margin, (s - t) * (s + t))
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


def _project(cone: SafetyConeData, u_nom: list, tol: float, margin: float, q0: float):
    """The nearest candidate that passes the feasibility check; (u, status, iterations, margin, top).

    q0 is Q(u_nom).  The input count m picks the candidates only: the
    nearest root of the scalar quadric from :func:`_scalar_root` for m = 1,
    the roots of the secular equation from :func:`_secular_candidates` and
    the point of :func:`_nearest_critical` for m >= 2, which m = 1 tries
    only when its root fails.  The half-space point for beta = 0 and the
    polish and check of :func:`_nearest_feasible` are the same for every m,
    but a cone whose H or g is not finite has no critical point, and for
    m >= 2 no secular candidates: least squares and eigh do not converge on
    it.  iterations counts the searches' probes and the polishing steps; top
    is S3's top eigenvalue from the secular route's eigh, NaN without one.
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
            candidates, iterations, top = _secular_candidates(cone, g, u_nom, q0)
            candidates += [_nearest_critical(cone, g, u_nom)] if _all_finite(g) else []
        else:
            candidates = []
    found, steps = _nearest_feasible(cone, u_nom, candidates, tol)
    if found is None and len(u_nom) == 1 and not degenerate and _all_finite(H[0] + g):
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


def _secular_candidates(cone: SafetyConeData, g: list, u_nom: list, q0: float):
    """m >= 2: candidate projections from the secular equation; (float lists, probes, top).

    A u(lam) with lam >= 0, Q(u(lam)) = 0 and c u(lam) + d > 0 meets the
    projection's KKT conditions, so it is the answer.  With H = V diag(h) V^T,
    a = V^T (H u_nom + g) and t = 1 / lam, u = u_nom - V (a / (t + h)) and
    phi = Q(u) = q0 - sum_i a_i^2 (2 t + h_i) / (t + h_i)^2, q0 = Q(u_nom).  Only h_0
    can be negative (H is a rank-one downdate of A^T A; the others are
    clamped at 0), so the one pole is exactly t = -h_0, and each side holds
    at most one root that can be the answer.  Near, t > max(0, -h_0):
    dphi/dlam = -2 sum_i a_i^2 / (1 + lam h_i)^3 <= 0.  Far, 0 < t < -h_0:
    dphi/dlam = -2 n^T (I + lam H)^{-1} n, n = H u + g, must be >= 0 (the
    second-order condition with indefinite I + lam H); it is while
    a_0^2 >= sum_(i >= 1) a_i^2 (|1 + lam h_0| / (1 + lam h_i))^3, whose
    ratios grow with lam, so phi rises from -inf at the pole to one maximum,
    then falls.  Each root :func:`_switch` finds is a candidate, after
    :func:`_refine`, if c u + d > 0.  top: H's top eigenvalue before the clamp.
    """
    h, V = np.linalg.eigh(np.array(cone.S3))
    top, h, V = float(h[-1]), [float(h[0])] + [max(x, 0.0) for x in h[1:].tolist()], V.tolist()
    a = [hj * _dot(column, u_nom) + _dot(column, g) for hj, column in zip(h, zip(*V))]

    def probe(t, near):  # t moves right while phi < 0 near, and far while phi falls or is > 0
        phi, slope = q0, 0.0  # slope: dphi/dt
        for aj, s in zip(a, [t + hj for hj in h]):
            z = aj / s
            phi, slope = phi - z * z * (s + t), slope + 2.0 * t * z * z / s
        right = phi < 0.0 if near else slope > 0.0 or phi > 0.0
        return right, phi, t - phi / slope if slope < 0.0 or near and slope else math.nan

    # the near search starts at the Newton step from lam = 0, the far one at lam = -2 / h_0
    sides = [(max(0.0, -h[0]), math.inf, 2.0 * _dot(a, a) / q0, True)] if q0 > 0.0 else []
    sides += [(0.0, -h[0], -0.5 * h[0], False)] if h[0] < 0.0 else []
    candidates, probes = [], 0
    for lo, hi, start, near in sides:
        t, taken = _switch(lo, hi, start, lambda t: probe(t, near))
        probes += taken
        u = [uj - _dot(row, [aj / (t + hj) for aj, hj in zip(a, h)]) for uj, row in zip(u_nom, V)]
        if t == t and _dot(cone.c, u) + cone.d > 0.0:  # t is NaN without a root
            candidates.append(_refine(cone, g, u_nom, u, 1.0 / t))
    return candidates, probes, top


def _refine(cone: SafetyConeData, g: list, u_nom: list, u: list, lam: float) -> list:
    """Two Newton steps on u - u_nom + lam n = 0, Q(u) = 0, n = S3 u + g: regular at the pole."""
    H, u, u_nom, eye = np.array(cone.S3), np.array(u), np.array(u_nom), np.eye(len(u))
    with np.errstate(all="ignore"):  # a point that overflows fails the margin check
        for _ in range(2):
            n, (_, s, t) = H @ u + g, _residual(cone, u.tolist())
            jacobian = np.vstack((np.column_stack((eye + lam * H, n)), np.append(n, 0.0)))
            try:
                step = np.linalg.solve(jacobian, [*(u - u_nom + lam * n), 0.5 * (s - t) * (s + t)])
            except np.linalg.LinAlgError:
                break
            u, lam = u - step[:-1], lam - step[-1]
    return u.tolist()


def _switch(lo: float, hi: float, t: float, probe) -> tuple:
    """(t, probes): the root in 0 <= lo < hi <= inf where probe turns from right to left, or NaN.

    probe(t) is (right, phi, Newton step), first at t.  Steps go to the
    secant through ends whose phi differ in sign (Illinois: a probe on the
    last one's side halves the other end's phi), else to the Newton step; a
    step to or past the far end goes to the float next to it, and one
    outside, or after 64 probes, to the midpoint in bit pattern, which halves the floats left.
    """
    def midpoint():  # floats >= 0 order as their bit patterns
        a, b = struct.unpack("<2q", struct.pack("<2d", lo, hi))
        return struct.unpack("<d", struct.pack("<q", (a + b) // 2))[0]

    ends, kept, last, probes = [(math.nan, math.nan)] * 2, [math.nan] * 2, None, 0
    t = t if lo < t < hi else midpoint()
    while lo < t < hi:
        right, phi, newton = probe(t)
        if phi == 0.0:
            return t, probes + 1
        side = 0 if right else 1
        kept[1 - side] *= 0.5 if side == last else 1.0
        last, kept[side], ends[side], probes = side, phi, (phi, t), probes + 1
        lo, hi = (t, hi) if right else (lo, t)
        t = (lo * kept[1] - hi * kept[0]) / (kept[1] - kept[0]) if kept[0] * kept[1] < 0 else newton
        if right and t >= hi or not right and t <= lo:
            t = math.nextafter(hi, lo) if right else math.nextafter(lo, hi)
        if not lo < t < hi or probes >= 64:
            t = midpoint()
    root = min(ends, key=lambda end: abs(end[0]))[1]  # the end with the smaller |phi|
    return root if ends[0][0] * ends[1][0] < 0.0 else math.nan, probes


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
