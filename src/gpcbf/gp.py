"""Gaussian-process regression of the scalar certificate residual.

The residual of the high-order certificate is control-affine,

    residual(x, u) = [d_1(x), ..., d_r(x), d_g(x)] . y,    y = [gamma; u],

so the regression uses the composite kernel

    k_c((x, y), (x', y')) = y^T Lambda(x, x') y',
    Lambda(x, x') = diag(k_1(x, x'), ..., k_{m+r}(x, x')),

with one squared-exponential base kernel per y-coordinate.  The payoff is a
posterior whose mean is linear and whose variance is quadratic in the query
regressor y*:

    mean(x*, y*) = mu(x*) y*,          mu = (Kbar alpha)^T,
    var(x*, y*)  = y*^T Sigma(x*) y*,  Sigma = Lambda(x*, x*) - Kbar Kinv Kbar^T,

which is exactly the structure the cone filter needs.  Column j of Kbar is
the base-kernel vector at (x*, x_j) scaled elementwise by y_j.
"""

import csv
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.blas import dtrsv

from .errors import IllConditionedDataError

DEFAULT_JITTER_SCHEDULE = (0.0, 1e-10, 1e-8, 1e-6)

# Floor added to Sigma's diagonal so the cone filter's Cholesky always
# succeeds; small enough to stay inside every stated oracle tolerance.
SIGMA_JITTER = 1e-12


@dataclass(frozen=True)
class BaseKernelParams:
    """Squared-exponential kernel: sf2 * exp(-0.5 sum_d ((xd - xd')/ell_d)^2)."""

    signal_variance: float
    lengthscales: np.ndarray

    def __post_init__(self):
        ell = np.atleast_1d(np.asarray(self.lengthscales, dtype=float))
        if self.signal_variance <= 0.0 or np.any(ell <= 0.0):
            raise ValueError("signal variance and lengthscales must be positive")
        object.__setattr__(self, "lengthscales", ell)
        object.__setattr__(self, "signal_variance", float(self.signal_variance))


@dataclass(frozen=True)
class ResidualDataset:
    """Labeled residual rows ((x_j, y_j), z_j) with shared noise variance.

    Every regressor carries the same leading gamma block: one barrier design
    per dataset.
    """

    X: np.ndarray  # (N, n)
    Y: np.ndarray  # (N, m + r)
    z: np.ndarray  # (N,)
    noise_variance: float

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.X, dtype=float))
        Y = np.atleast_2d(np.asarray(self.Y, dtype=float))
        z = np.atleast_1d(np.asarray(self.z, dtype=float))
        if X.shape[0] != Y.shape[0] or X.shape[0] != z.size:
            raise ValueError(f"inconsistent row counts {X.shape[0]}, {Y.shape[0]}, {z.size}")
        if self.noise_variance < 0.0:
            raise ValueError("noise variance must be non-negative")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)
        object.__setattr__(self, "z", z)

    def __len__(self) -> int:
        return self.z.size


def save_dataset_csv(dataset: ResidualDataset, path) -> None:
    """Write rows as CSV with header x_1..x_n, y_1..y_{m+r}, z."""
    n = dataset.X.shape[1]
    q = dataset.Y.shape[1]
    header = [f"x_{i}" for i in range(1, n + 1)] + [f"y_{i}" for i in range(1, q + 1)] + ["z"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(len(dataset)):
            row = np.concatenate((dataset.X[i], dataset.Y[i], [dataset.z[i]]))
            writer.writerow([f"{v:.17g}" for v in row])


def load_dataset_csv(path, n: int, noise_variance: float) -> ResidualDataset:
    """Read a dataset CSV back; n splits the x columns from the y columns."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if not header or header[-1] != "z" or not header[0].startswith("x_"):
            raise ValueError(f"unexpected dataset header {header}")
        rows = np.array([[float(v) for v in row] for row in reader])
    if rows.size == 0:
        rows = rows.reshape(0, len(header))
    return ResidualDataset(
        X=rows[:, :n], Y=rows[:, n:-1], z=rows[:, -1], noise_variance=noise_variance
    )


def _gram_composite(X, Y, sf2, inv_ell2):
    """Gram matrix of the composite kernel: K[i,j] = sum_t k_t(x_i,x_j) y_it y_jt."""
    N, n = X.shape
    q = sf2.size
    diff2 = (X[:, None, :] - X[None, :, :]) ** 2  # (N, N, n)
    K = np.zeros((N, N))
    for t in range(q):
        kt = sf2[t] * np.exp(-0.5 * diff2 @ inv_ell2[t])
        K += kt * np.outer(Y[:, t], Y[:, t])
    return K


def _cross_kbar(X, Y, xstar, sf2, inv_ell2):
    """Kbar (q, N): column j is the base-kernel vector at (x*, x_j) times y_j."""
    diff2 = (xstar[None, :] - X) ** 2  # (N, n)
    kt = sf2[:, None] * np.exp(-0.5 * (inv_ell2 @ diff2.T))  # (q, N)
    return kt * Y.T


@dataclass(frozen=True)
class CompositeGpModel:
    """Fitted residual model; immutable and safe for concurrent queries.

    The query invariants (stacked kernel parameters, contiguous X and Y, a
    Fortran-ordered factor) are fixed when the model is built, so a
    posterior query does no per-call preparation.  The factor is kept in
    Fortran order because BLAS ``dtrsv`` reads it in place: f2py passes a
    Fortran-ordered array without a copy, and the query's triangular solves
    run on one thread.
    """

    dataset: ResidualDataset
    params: Sequence[BaseKernelParams]
    factor: np.ndarray  # lower Cholesky of K_c + (sigma_n^2 + jitter) I, (N, N)
    weights: np.ndarray  # (K_c + sigma_n^2 I)^{-1} z
    jitter: float
    sf2: np.ndarray = field(init=False, repr=False)  # (q,)
    inv_ell2: np.ndarray = field(init=False, repr=False)  # (q, n)
    X: np.ndarray = field(init=False, repr=False)
    Y: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        sf2, inv_ell2 = _stacked_params(self.params, self.dataset.X.shape[1])
        object.__setattr__(self, "sf2", sf2)
        object.__setattr__(self, "inv_ell2", inv_ell2)
        object.__setattr__(self, "X", np.ascontiguousarray(self.dataset.X))
        object.__setattr__(self, "Y", np.ascontiguousarray(self.dataset.Y))
        object.__setattr__(self, "factor", np.asfortranarray(self.factor))

    @property
    def q(self) -> int:
        return len(self.params)

    def prior_lambda(self, x) -> np.ndarray:
        """Lambda(x, x) = diag(sf2): every base kernel is stationary."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        n = self.inv_ell2.shape[1]
        if x.shape != (n,):
            raise ValueError(f"query state of shape {x.shape}, model state dimension {n}")
        return np.diag(self.sf2)


def _stacked_params(params: Sequence[BaseKernelParams], n: int):
    sf2 = np.array([p.signal_variance for p in params])
    for p in params:
        if p.lengthscales.size != n:
            raise ValueError(f"lengthscale length {p.lengthscales.size} != state dimension {n}")
    inv_ell2 = 1.0 / np.asarray([p.lengthscales for p in params]) ** 2
    return sf2, np.ascontiguousarray(inv_ell2)


def fit(dataset: ResidualDataset, params: Sequence[BaseKernelParams]) -> CompositeGpModel:
    """Assemble and factorize the composite Gram matrix.

    N = 0 is allowed and yields the prior-only model.  DEFAULT_JITTER_SCHEDULE
    is walked until Cholesky succeeds; exhaustion raises IllConditionedDataError.
    """
    if dataset.Y.shape[1] != len(params) and len(dataset) > 0:
        raise ValueError(
            f"regressor width {dataset.Y.shape[1]} != {len(params)} base kernels"
        )
    N = len(dataset)
    if N == 0:
        return CompositeGpModel(
            dataset=dataset,
            params=tuple(params),
            factor=np.zeros((0, 0)),
            weights=np.zeros(0),
            jitter=0.0,
        )
    sf2, inv_ell2 = _stacked_params(params, dataset.X.shape[1])
    K = _gram_composite(
        np.ascontiguousarray(dataset.X), np.ascontiguousarray(dataset.Y), sf2, inv_ell2
    )
    for jitter in DEFAULT_JITTER_SCHEDULE:
        try:
            factor = np.linalg.cholesky(
                K + (dataset.noise_variance + jitter) * np.eye(N)
            )
        except np.linalg.LinAlgError:
            continue
        weights = _chol_solve(factor, dataset.z)
        return CompositeGpModel(
            dataset=dataset,
            params=tuple(params),
            factor=factor,
            weights=weights,
            jitter=float(jitter),
        )
    raise IllConditionedDataError(
        f"Gram factorization failed for N={N} after jitter schedule {DEFAULT_JITTER_SCHEDULE}"
    )


def _chol_solve(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve (L L^T) x = b."""
    y = solve_triangular(L, b, lower=True)
    return solve_triangular(L.T, y, lower=False)


def posterior_coefficients(model: CompositeGpModel, xstar) -> tuple[np.ndarray, np.ndarray]:
    """Posterior (mu, Sigma) at a query state.

    mean(x*, y*) = mu @ y* and var(x*, y*) = y* @ Sigma @ y*.  Sigma is
    symmetrized and floored by SIGMA_JITTER on the diagonal so downstream
    factorization succeeds.

    L V = Kbar^T is solved one column at a time by forward substitution
    (BLAS level-2 ``dtrsv`` on the stored factor), which OpenBLAS runs on
    the calling thread.  The level-3 solve (``trsm``) hands even these
    q-column solves to a second BLAS thread and wakes it on every query,
    which made about 1.5% of queries take milliseconds.
    """
    xstar = np.atleast_1d(np.asarray(xstar, dtype=float))
    lam_star = model.prior_lambda(xstar)
    q = model.q
    if len(model.dataset) == 0:
        return np.zeros(q), lam_star + SIGMA_JITTER * np.eye(q)
    kbar = _cross_kbar(model.X, model.Y, xstar, model.sf2, model.inv_ell2)
    mu = kbar @ model.weights
    # Row t of Vt solves L v = Kbar[t], so Vt = V^T for L V = Kbar^T.
    Vt = np.array([dtrsv(model.factor, row, lower=1) for row in kbar])
    sigma = lam_star - Vt @ Vt.T
    sigma = 0.5 * (sigma + sigma.T) + SIGMA_JITTER * np.eye(q)
    return mu, sigma
