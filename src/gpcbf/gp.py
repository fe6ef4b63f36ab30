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
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._lapack import dtrsv, dtrtrs
from .errors import IllConditionedDataError

DEFAULT_JITTER_SCHEDULE = (0.0, 1e-10, 1e-8, 1e-6)

# Floor added to Sigma's diagonal so the cone filter's Cholesky always
# succeeds; small enough to stay inside every stated oracle tolerance.
SIGMA_JITTER = 1e-12

# Rows per block of _cholesky: the largest block whose dpotrf and syrk
# OpenBLAS runs on the calling thread (see _cholesky).
_CHOLESKY_BLOCK = 96


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
    per dataset.  X, Y and z are stored C-contiguous, as queries read them.
    """

    X: np.ndarray  # (N, n)
    Y: np.ndarray  # (N, m + r)
    z: np.ndarray  # (N,)
    noise_variance: float

    def __post_init__(self):
        X = np.atleast_2d(np.ascontiguousarray(self.X, dtype=float))
        Y = np.atleast_2d(np.ascontiguousarray(self.Y, dtype=float))
        z = np.atleast_1d(np.ascontiguousarray(self.z, dtype=float))
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
    """Kbar (q, N), C-ordered: column j is the base-kernel vector at (x*, x_j) times y_j.

    :func:`posterior_coefficients` solves on Kbar's rows in place, which
    ``dtrsv(..., overwrite_x=1)`` does only for a contiguous float64 row; on
    any other row it would solve a copy and leave Kbar as it was.  Writing
    the product into ``kt``, a fresh C-ordered array, keeps every row so.
    """
    diff2 = (xstar[None, :] - X) ** 2  # (N, n)
    kt = sf2[:, None] * np.exp(-0.5 * (inv_ell2 @ diff2.T))  # (q, N)
    return np.multiply(kt, Y.T, out=kt)


@dataclass(frozen=True)
class CompositeGpModel:
    """Fitted residual model; immutable and safe for concurrent queries.

    :func:`fit` builds it with the query invariants fixed (stacked kernel
    parameters, a Fortran-ordered factor; X and Y are the dataset's), so a
    posterior query does no per-call preparation.  The factor is kept in
    Fortran order because BLAS ``dtrsv`` reads it in place: f2py passes a
    Fortran-ordered array without a copy, and the query's triangular solves
    run on one thread.
    """

    dataset: ResidualDataset
    sf2: np.ndarray  # (q,) signal variances; Lambda(x, x) = diag(sf2)
    inv_ell2: np.ndarray  # (q, n) inverse squared lengthscales
    factor: np.ndarray  # lower Cholesky of K_c + (sigma_n^2 + jitter) I, (N, N)
    weights: np.ndarray  # (K_c + sigma_n^2 I)^{-1} z
    jitter: float


def _stacked_params(params: Sequence[BaseKernelParams], n: int):
    sf2 = np.array([p.signal_variance for p in params])
    for p in params:
        if p.lengthscales.size != n:
            raise ValueError(f"lengthscale length {p.lengthscales.size} != state dimension {n}")
    inv_ell2 = 1.0 / np.asarray([p.lengthscales for p in params]) ** 2
    return sf2, np.ascontiguousarray(inv_ell2)


def fit(dataset: ResidualDataset, params: Sequence[BaseKernelParams]) -> CompositeGpModel:
    """Assemble and factorize the composite Gram matrix.

    N = 0 goes the same way and yields the prior-only model.  DEFAULT_JITTER_SCHEDULE
    is walked until Cholesky succeeds; exhaustion raises IllConditionedDataError.

    The Gram is factored by :func:`_cholesky`, not by one LAPACK ``dpotrf``
    call: from N = 128 on, OpenBLAS hands ``dpotrf`` to a second thread,
    which then busy-waits for about 0.135 s of CPU after every fit.
    """
    N = len(dataset)
    if dataset.Y.shape[1] != len(params):
        raise ValueError(f"regressor width {dataset.Y.shape[1]} != {len(params)} base kernels")
    sf2, inv_ell2 = _stacked_params(params, dataset.X.shape[1])
    K = _gram_composite(dataset.X, dataset.Y, sf2, inv_ell2)
    for jitter in DEFAULT_JITTER_SCHEDULE:
        try:
            factor = _cholesky(K + (dataset.noise_variance + jitter) * np.eye(N))
        except np.linalg.LinAlgError:
            continue
        return CompositeGpModel(
            dataset=dataset,
            sf2=sf2,
            inv_ell2=inv_ell2,
            factor=np.asfortranarray(factor),
            weights=_chol_solve(factor, dataset.z),
            jitter=float(jitter),
        )
    raise IllConditionedDataError(
        f"Gram factorization failed for N={N} after jitter schedule {DEFAULT_JITTER_SCHEDULE}"
    )


def fit_prior(
    n: int, params: Sequence[BaseKernelParams], noise_variance: float
) -> CompositeGpModel:
    """The prior-only model: :func:`fit` on no rows of n-dimensional states."""
    empty = np.zeros((0, n)), np.zeros((0, len(params))), np.zeros(0)
    return fit(ResidualDataset(*empty, noise_variance), params)


def _cholesky(A: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of A, whose lower triangle it reads, on the calling thread.

    A left-looking factorization by blocks of at most _CHOLESKY_BLOCK rows.
    Each row of a block's panel is solved against the leading factor with
    one BLAS ``dtrsv``, the block's diagonal is A[I, I] - panel panel^T, and
    ``np.linalg.cholesky`` factors it.  At N <= _CHOLESKY_BLOCK the one
    block has an empty panel, so the factor is ``np.linalg.cholesky(A)`` bit
    for bit; larger N moves only last bits.  A pivot that is not positive
    raises ``LinAlgError`` from the block that holds it.  OpenBLAS's
    ``dpotrf`` passes NaN through to the factor, so a factor whose diagonal
    is not finite raises ``LinAlgError`` too.

    Each call stays below the size at which OpenBLAS wakes a second thread,
    measured on a 2-core Xeon host with the OpenBLAS that numpy 2.4 (0.3.31)
    and scipy 1.17 (0.3.30) bundle: numpy's ``dpotrf`` from N = 128 on and
    ``X @ X.T`` (``syrk``) from 97 rows on, but not on 96 rows of up to 5000
    columns; scipy's ``dtrsv`` never, up to N = 862.  The whole factorization was checked on one
    thread up to N = 862.
    """
    N = A.shape[0]
    L = np.zeros((N, N))
    for i0 in range(0, N, _CHOLESKY_BLOCK):
        i1 = min(i0 + _CHOLESKY_BLOCK, N)
        panel = L[i0:i1, :i0]
        if i0:
            lead = np.asfortranarray(L[:i0, :i0])
            panel[...] = A[i0:i1, :i0]
            for row in panel:  # C-ordered rows of L, solved in place
                dtrsv(lead, row, lower=1, overwrite_x=1)
        L[i0:i1, i0:i1] = np.linalg.cholesky(A[i0:i1, i0:i1] - panel @ panel.T)
    if not np.isfinite(L.diagonal()).all():
        raise np.linalg.LinAlgError("the factor is not finite")
    return L


def _chol_solve(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve (L L^T) x = b by two triangular solves, L y = b and L^T x = y.

    LAPACK ``dtrtrs`` on a vector right-hand side runs on the calling
    thread: no second OpenBLAS thread woke at N = 137 or at N = 862.
    """
    return _solve_triangular(L.T, _solve_triangular(L, b, lower=True), lower=False)


def _solve_triangular(a: np.ndarray, b: np.ndarray, lower: bool) -> np.ndarray:
    """x with a x = b for a triangular a: ``scipy.linalg.solve_triangular``'s ``dtrtrs`` call.

    It keeps that wrapper's checks: ``ValueError`` on an inf or NaN in a or
    b, an empty x for an empty b (LAPACK rejects a zero leading dimension),
    ``LinAlgError`` on a zero pivot and ``ValueError`` on an illegal
    argument.  A Fortran-ordered a is passed as it is; any other a is passed
    transposed, with ``trans`` set, so f2py reads a in place either way.
    """
    a = np.asarray_chkfinite(a, dtype=float)
    b = np.asarray_chkfinite(b, dtype=float)
    if b.size == 0:
        return np.empty_like(b)
    if a.flags.f_contiguous:
        x, info = dtrtrs(a, b, lower=lower)
    else:
        x, info = dtrtrs(a.T, b, lower=not lower, trans=1)
    if info > 0:
        raise np.linalg.LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal trtrs")
    return x


def posterior_coefficients(model: CompositeGpModel, xstar) -> tuple[np.ndarray, np.ndarray]:
    """Posterior (mu, Sigma) at a query state.

    mean(x*, y*) = mu @ y* and var(x*, y*) = y* @ Sigma @ y*.  Sigma is
    floored by SIGMA_JITTER on the diagonal so downstream factorization
    succeeds.

    L V = Kbar^T is solved one column at a time by forward substitution
    (BLAS level-2 ``dtrsv`` on the stored factor), which OpenBLAS runs on
    the calling thread.  The level-3 solve (``trsm``) hands even these
    q-column solves to a second BLAS thread and wakes it on every query,
    which made about 1.5% of queries take milliseconds.

    The solves copy nothing: after mu = Kbar alpha, each row of Kbar is
    overwritten in place by its solve, so Kbar becomes V^T.  numpy forms
    V^T V as one symmetric rank-k update (``syrk``), so Sigma is exactly
    symmetric without a symmetrizing pass; it is negated in place, and
    Lambda = diag(sf2) and the jitter are added to its diagonal in place.
    """
    xstar = np.atleast_1d(np.asarray(xstar, dtype=float))
    n = model.inv_ell2.shape[1]
    if xstar.shape != (n,):
        raise ValueError(f"query state of shape {xstar.shape}, model state dimension {n}")
    q = model.sf2.size
    if len(model.dataset) == 0:  # dtrsv rejects the length-0 rows of Kbar
        return np.zeros(q), np.diag(model.sf2) + SIGMA_JITTER * np.eye(q)
    kbar = _cross_kbar(model.dataset.X, model.dataset.Y, xstar, model.sf2, model.inv_ell2)
    mu = kbar @ model.weights
    # Row t of Kbar becomes the solution v of L v = Kbar[t] in place, which
    # needs Kbar's C order (see _cross_kbar).
    for row in kbar:
        dtrsv(model.factor, row, lower=1, overwrite_x=1)
    sigma = kbar @ kbar.T
    np.subtract(0.0, sigma, out=sigma)  # 0.0 - x, so a zero entry stays +0.0 as in Lambda - V^T V
    diagonal = sigma.reshape(-1)[:: q + 1]
    diagonal += model.sf2
    diagonal += SIGMA_JITTER
    return mu, sigma
