"""High-order control barrier function calculus with linear class-K gains.

A barrier h of relative degree r and gains k_1..k_r defines the auxiliary
chain

    zeta_0 = h,    zeta_i = d/dt zeta_{i-1} + k_i * zeta_{i-1},

so the final certificate expands along the nominal model to the control-affine
form

    zeta_r(x, u) = sum_j gamma_j * Lf^j h(x) + e_r * h(x) + LgLf^{r-1} h(x) u,

where gamma_j is the (r-j)-th elementary symmetric polynomial of the gains
(gamma_r = 1) and e_r is their product.  The module keeps that decomposition
explicit: designs declare h and its nominal Lie chain once, as source, and
carry the derived coefficient vector; :func:`certificate_terms` returns the
affine pieces consumed by the nominal QP filter and the cone filter.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import InfeasibleConstraintError, InvalidDesignError


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


@dataclass(frozen=True, eq=False)
class HocbfDesign:
    """Barrier design: h and its nominal Lie chain declared once as source, plus derived gains.

    The relative degree r is the number of gains.  ``derivatives`` holds
    statements in ``plants.PlantModel``'s conventions that read x0 ..
    x{n-1} and the names in ``params`` and assign h, lfi = Lf^i h on the
    nominal model for i = 1..r, and the row LgLf^{r-1} h as lg0 .. lg{m-1}.
    The plants' generator builds ``terms(x)``, which returns (h, [lf1 ..
    lfr], [lg0 .. lg{m-1}]), and ``barrier(x)``, which runs only what h
    needs; on float sequences both return floats.  r, gamma, e_r and the
    zeta-chain weights are derived from the gains at construction;
    zeta_weights[i-1] weighs [h, Lf h, ..., Lf^i h] in zeta_i.
    """

    n: int
    m: int
    derivatives: str
    params: dict
    gains: np.ndarray
    r: int = field(init=False)
    gamma: np.ndarray = field(init=False)
    e_r: float = field(init=False)
    zeta_weights: tuple = field(init=False)
    terms: Callable = field(init=False, repr=False)
    barrier: Callable = field(init=False, repr=False)

    def __post_init__(self):
        from .plants import _generated  # plants imports this module

        gains = np.asarray(self.gains, dtype=float)
        e = elementary_symmetric(gains)
        object.__setattr__(self, "r", gains.size)
        object.__setattr__(self, "gains", gains)
        object.__setattr__(self, "gamma", gamma_vector(gains))
        object.__setattr__(self, "e_r", float(e[-1]))
        weights = tuple(
            tuple(elementary_symmetric(gains[:i])[::-1].tolist()) + (1.0,)
            for i in range(1, self.r)
        )
        object.__setattr__(self, "zeta_weights", weights)
        lf = ", ".join(f"lf{i}" for i in range(1, self.r + 1))
        lg = ", ".join(f"lg{j}" for j in range(self.m))
        for name, returns in (("terms", f"h, [{lf}], [{lg}]"), ("barrier", "h")):
            built = _generated(self.params, self.derivatives, name, self.n, 0, returns)
            object.__setattr__(self, name, built)


@dataclass(slots=True)
class CertificateTerms:
    """Affine decomposition of the nominal certificate at one state.

    zeta_r(x, u) = zf . gamma + const + zg . u, with const = e_r * h(x).
    h is h(x) as :func:`certificate_terms` evaluated it, so the log row of
    the step reads it and :func:`zeta_chain` builds on it; terms written by
    hand for a cone alone may leave it NaN.  zf and zg are float sequences:
    lists from :func:`certificate_terms`, and any sequence when written by
    hand.
    """

    zf: list
    zg: list
    const: float
    h: float = math.nan


def certificate_terms(design: HocbfDesign, x) -> CertificateTerms:
    """Evaluate the certificate's affine pieces at state x.

    One call of the design's ``terms`` per call: the terms carry h(x) and
    zf = [Lf h, ..., Lf^r h], from which :func:`zeta_chain` builds the
    step's auxiliary chain without evaluating any of them again.  zg may be
    zero at states where the relative degree degrades; feasibility of the
    resulting constraint is the filter's concern, not this function's.

    The evaluator reads the state as Python floats (a tuple or list is
    taken as it is, other sequences are converted), so plain float
    arithmetic runs without numpy's scalar overhead and gives the bits it
    gives on numpy scalars.  zf and zg come back as lists of floats.
    """
    xs = x if type(x) is tuple else _floats(x)
    h, zf, zg = design.terms(xs)
    if not all(map(math.isfinite, zg)):
        raise InvalidDesignError(f"non-finite actuation row {zg} at x={list(xs)}")
    return CertificateTerms(zf=zf, zg=zg, const=design.e_r * h, h=h)


def zeta_chain(design: HocbfDesign, x, cert: Optional[CertificateTerms] = None) -> tuple:
    """Values (zeta_0(x), ..., zeta_{r-1}(x)) of the nominal auxiliary chain, as a float tuple.

    zeta_i depends only on the first i gains:
    zeta_i = sum_{j=0}^{i} e_{i-j}(k_1..k_i) * Lf^j h(x), summed in index
    order from 0.0.  When cert holds the :func:`certificate_terms` of this
    x, the chain is built from its h and zf[:r-1], with the same operations
    as from a fresh evaluation at x, so the values are the same bits; else
    h and zf come from one call of the design's ``terms`` at x.
    """
    if cert is None:
        h, zf, _ = design.terms(x if type(x) is tuple else _floats(x))
    else:
        h, zf = cert.h, _floats(cert.zf)
    lf = [h, *zf[: design.r - 1]]
    return (lf[0], *[weighted_sum(weights, lf) for weights in design.zeta_weights])


def _floats(v) -> list:
    """v's entries as Python floats, in a list that callers only read.

    A list is taken as it is, as a list of floats, and a float tuple is
    copied into one.  A Python float and a 1-D float64 array skip numpy.
    """
    if type(v) is list:
        return v
    if type(v) is tuple:
        return list(v)
    if type(v) is np.ndarray and v.ndim == 1 and v.dtype == np.float64:
        return v.tolist()
    if isinstance(v, float):
        return [float(v)]
    return np.asarray(v, dtype=float).ravel().tolist()


def _dot(a, b) -> float:
    """sum_i a_i b_i over two float sequences, in index order from 0.0; zip stops at the shorter."""
    s = 0.0
    for x, y in zip(a, b):
        s += x * y
    return s


def weighted_sum(weights, values) -> float:
    """sum_i w_i v_i over the len(weights) first values, with the bits of numpy's dot product.

    For weights whose last entry is 1, as gamma and the zeta-chain weights
    are.  Two terms summed in index order give numpy's bits, since the
    product with the last weight is exact and a fused multiply-add then
    rounds as the plain sum does.  Longer sums go through ``np.dot``, whose
    kernel fuses multiply-adds that a float loop cannot.
    """
    if len(weights) == 2:
        return _dot(weights, values)
    return float(np.dot(weights, values[: len(weights)]))


def halfspace_qp_filter(u_nom, a, b: float) -> tuple:
    """Min-norm filter for a single affine constraint a.u + b >= 0.

    Returns u_nom when already feasible, otherwise the Euclidean projection
    u_nom - ((a.u_nom + b) / |a|^2) a onto the constraint boundary, which is
    the global minimizer of |u - u_nom| over the half-space, as a tuple of
    floats.  Every input count runs on Python floats: a.u_nom and |a|^2 are
    summed in index order, so one input returns the vector formula's bits.
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
        return tuple(u)
    if norm2 == 0.0:
        raise InfeasibleConstraintError(f"constraint 0.u + {b} >= 0 is infeasible")
    step = margin / norm2
    u = [ui - step * ai for ui, ai in zip(u, a)]
    if not all(map(math.isfinite, u)):
        raise InfeasibleConstraintError(f"projection onto {a} . u + {b} >= 0 overflows")
    return tuple(u)
