"""High-order control barrier function calculus with linear class-K gains.

A barrier h of relative degree r and gains k_1..k_r defines the auxiliary
chain

    zeta_0 = h,    zeta_i = d/dt zeta_{i-1} + k_i * zeta_{i-1},

so the final certificate expands along the nominal model to the control-affine
form

    zeta_r(x, u) = sum_j gamma_j * Lf^j h(x) + e_r * h(x) + LgLf^{r-1} h(x) u,

where gamma_j is the (r-j)-th elementary symmetric polynomial of the gains
(gamma_r = 1) and e_r is their product.  The module keeps that decomposition
explicit: designs carry analytic Lie-derivative evaluators and the derived
coefficient vector, and :func:`certificate_terms` returns the affine pieces
consumed by the nominal QP filter and the cone filter.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import InfeasibleConstraintError, InvalidDesignError

StateFn = Callable[[np.ndarray], float]
RowFn = Callable[[np.ndarray], np.ndarray]


def elementary_symmetric(gains: Sequence[float]) -> np.ndarray:
    """Elementary symmetric polynomials [e_1, ..., e_r] of positive gains.

    e_j is the sum over all j-element products of distinct gains; equivalently
    the coefficients of prod_i (s + k_i) = s^r + e_1 s^{r-1} + ... + e_r.
    """
    k = np.asarray(gains, dtype=float)
    if k.ndim != 1 or k.size < 1:
        raise InvalidDesignError("need at least one gain")
    if not np.all(k > 0.0):
        raise InvalidDesignError(f"gains must be strictly positive, got {k}")
    # Multiply out (s + k_i) one factor at a time; coeffs[j] tracks e_j.
    coeffs = np.zeros(k.size + 1)
    coeffs[0] = 1.0
    for ki in k:
        coeffs[1:] = coeffs[1:] + ki * coeffs[:-1]
    return coeffs[1:].copy()


def gamma_vector(gains: Sequence[float]) -> np.ndarray:
    """Residual weighting vector: gamma_i = e_{r-i} with e_0 = 1, so gamma_r = 1."""
    e = elementary_symmetric(gains)
    return np.concatenate((e[:-1][::-1], [1.0]))


def gains_from_char_coeffs(coeffs: Sequence[float]) -> np.ndarray:
    """Back-solve gains from characteristic coefficients [e_1, ..., e_r].

    Returns the roots of t^r - e_1 t^{r-1} + e_2 t^{r-2} - ... sorted
    ascending; raises if any root is complex or non-positive (not a valid
    gain set).
    """
    e = np.asarray(coeffs, dtype=float)
    poly = np.concatenate(([1.0], e * (-1.0) ** np.arange(1, e.size + 1)))
    roots = np.roots(poly)
    if np.any(np.abs(roots.imag) > 1e-9 * (1.0 + np.abs(roots.real))):
        raise InvalidDesignError(f"coefficients {e} do not factor into real gains")
    gains = np.sort(roots.real)
    if np.any(gains <= 0.0):
        raise InvalidDesignError(f"coefficients {e} imply non-positive gains {gains}")
    return gains


@dataclass(frozen=True)
class HocbfDesign:
    """Barrier design: evaluators for the nominal Lie chain plus derived gains.

    The relative degree r is the number of gains.  lie_f_chain[i-1]
    evaluates Lf^i h for i = 1..r on the nominal model; lie_g evaluates
    LgLf^{r-1} h as a row with one entry per plant input.  r, gamma, e_r
    and the zeta-chain weights are derived from the gains at construction;
    zeta_weights[i-1] weighs [h, Lf h, ..., Lf^i h] in zeta_i.  Every
    evaluator reads the state by index: :func:`certificate_terms` passes it
    as a list of floats, other callers as a numpy array.
    """

    gains: np.ndarray
    h: StateFn
    lie_f_chain: Sequence[StateFn]
    lie_g: RowFn
    r: int = field(init=False)
    gamma: np.ndarray = field(init=False)
    e_r: float = field(init=False)
    zeta_weights: tuple = field(init=False)

    def __post_init__(self):
        gains = np.asarray(self.gains, dtype=float)
        e = elementary_symmetric(gains)
        if len(self.lie_f_chain) != gains.size:
            raise InvalidDesignError(
                f"need {gains.size} drift Lie evaluators, got {len(self.lie_f_chain)}"
            )
        object.__setattr__(self, "r", gains.size)
        object.__setattr__(self, "gains", gains)
        object.__setattr__(self, "gamma", gamma_vector(gains))
        object.__setattr__(self, "e_r", float(e[-1]))
        weights = tuple(
            np.concatenate((elementary_symmetric(gains[:i])[::-1], [1.0]))
            for i in range(1, self.r)
        )
        object.__setattr__(self, "zeta_weights", weights)


@dataclass(slots=True)
class CertificateTerms:
    """Affine decomposition of the nominal certificate at one state.

    zeta_r(x, u) = zf . gamma + const + zg . u, with const = e_r * h(x).
    h is h(x) as :func:`certificate_terms` evaluated it, so the log row of
    the step reads it and :func:`zeta_chain` builds on it; terms written by
    hand for a cone alone may leave it NaN.
    """

    zf: np.ndarray
    zg: np.ndarray
    const: float
    h: float = math.nan


def certificate_terms(design: HocbfDesign, x: np.ndarray) -> CertificateTerms:
    """Evaluate the certificate's affine pieces at state x.

    One evaluation of the chain [h, Lf h, ..., Lf^r h, LgLf^{r-1} h] per
    call: the terms carry h(x) and zf = [Lf h, ..., Lf^r h], from which
    :func:`zeta_chain` builds the step's auxiliary chain without evaluating
    any of them again.  zg may be zero at states where the relative degree
    degrades; feasibility of the resulting constraint is the filter's
    concern, not this function's.

    The evaluators read the state as a list of Python floats, so plain
    float arithmetic runs without numpy's scalar overhead and gives the bits
    it gives on numpy scalars.
    """
    x = np.asarray(x, dtype=float)
    xs = x.tolist()
    zf = np.array([lf(xs) for lf in design.lie_f_chain], dtype=float)
    zg = design.lie_g(xs)
    if not (type(zg) is np.ndarray and zg.ndim == 1 and zg.dtype == np.float64):
        zg = np.atleast_1d(np.asarray(zg, dtype=float))
    if not all(map(math.isfinite, zg.tolist())):
        raise InvalidDesignError(f"non-finite actuation row {zg} at x={x}")
    h = float(design.h(xs))
    return CertificateTerms(zf=zf, zg=zg, const=design.e_r * h, h=h)


def zeta_chain(
    design: HocbfDesign, x: np.ndarray, cert: Optional[CertificateTerms] = None
) -> np.ndarray:
    """Values [zeta_0(x), ..., zeta_{r-1}(x)] of the nominal auxiliary chain.

    zeta_i depends only on the first i gains:
    zeta_i = sum_{j=0}^{i} e_{i-j}(k_1..k_i) * Lf^j h(x).
    When cert holds the :func:`certificate_terms` of this x, the chain is
    built from its h and zf[:r-1], with the same operations as from fresh
    evaluations at x, so the values are the same bits; else h and
    Lf h .. Lf^{r-1} h are evaluated at x.
    """
    lf = np.empty(design.r + 1)
    if cert is None:
        x = np.asarray(x, dtype=float)
        lf[0] = float(design.h(x))
        for j in range(1, design.r):
            lf[j] = float(design.lie_f_chain[j - 1](x))
    else:
        lf[0] = cert.h
        lf[1 : design.r] = cert.zf[: design.r - 1]
    out = np.empty(design.r)
    out[0] = lf[0]
    for i in range(1, design.r):
        out[i] = float(design.zeta_weights[i - 1] @ lf[: i + 1])
    return out


def _floats(v) -> list:
    """v's entries as Python floats; a Python float skips numpy's conversion."""
    return [float(v)] if isinstance(v, float) else np.asarray(v, dtype=float).ravel().tolist()


def halfspace_qp_filter(u_nom, a, b: float) -> np.ndarray:
    """Min-norm filter for a single affine constraint a.u + b >= 0.

    Returns u_nom when already feasible, otherwise the Euclidean projection
    u_nom - ((a.u_nom + b) / |a|^2) a onto the constraint boundary, which is
    the global minimizer of |u - u_nom| over the half-space.  Every input
    count runs on Python floats: a.u_nom and |a|^2 are summed in index
    order, so one input returns the vector formula's bits as a 1-array.
    Raises :class:`InfeasibleConstraintError` when a = 0 and u_nom violates
    the constraint, and when the projected point is not finite, as when a
    tiny |a| overflows it: such a half-space has no point a plant can apply.
    Float arithmetic does not warn on that overflow.
    """
    u, a, b = _floats(u_nom), _floats(a), float(b)
    if len(a) != len(u):
        raise ValueError(f"constraint has {len(a)} coefficients for {len(u)} inputs")
    dot = norm2 = 0.0
    for i, ai in enumerate(a):
        dot += ai * u[i]
        norm2 += ai * ai
    margin = dot + b
    if margin >= 0.0:
        return np.array(u)
    if norm2 == 0.0:
        raise InfeasibleConstraintError(f"constraint 0.u + {b} >= 0 is infeasible")
    step = margin / norm2
    for i, ai in enumerate(a):
        u[i] -= step * ai
        if not math.isfinite(u[i]):
            raise InfeasibleConstraintError(f"projection onto {a} . u + {b} >= 0 overflows")
    return np.array(u)
