import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular

from gpcbf import gp as gp_mod
from gpcbf.errors import IllConditionedDataError
from gpcbf.gp import (
    SIGMA_JITTER,
    BaseKernelParams,
    ResidualDataset,
    _cross_kbar,
    _gram_composite,
    _stacked_params,
    fit,
    load_dataset_csv,
    posterior_coefficients,
    save_dataset_csv,
)

from _oracles import composite_kernel_ref, posterior_sigma_fsum, stacked_gp_posterior


def _random_dataset(rng, N, n=2, q=3, sn2=1e-3):
    X = rng.normal(size=(N, n))
    Y = rng.normal(size=(N, q)) * 2.0
    z = rng.normal(size=N)
    return ResidualDataset(X=X, Y=Y, z=z, noise_variance=sn2)


def _random_params(rng, q, n):
    return [
        BaseKernelParams(rng.uniform(0.3, 2.0), rng.uniform(0.5, 2.0, size=n))
        for _ in range(q)
    ]


def _cross_value(x, y, x2, y2, params):
    """k_c((x, y), (x2, y2)) as the y-weighted column of the cross-kernel assembly."""
    x = np.asarray(x, dtype=float)
    sf2, inv_ell2 = _stacked_params(params, x.size)
    kbar = _cross_kbar(np.array([x2], dtype=float), np.array([y2], dtype=float), x, sf2, inv_ell2)
    return float(np.asarray(y, dtype=float) @ kbar[:, 0])


def _gram(X, Y, params):
    X = np.asarray(X, dtype=float)
    sf2, inv_ell2 = _stacked_params(params, X.shape[1])
    return _gram_composite(X, np.asarray(Y, dtype=float), sf2, inv_ell2)


class TestBaseKernel:
    """One base kernel (q = 1, y = 1) through the vectorized assembly."""

    def test_zero_distance_gives_signal_variance(self):
        p = BaseKernelParams(2.5, np.array([1.0, 3.0]))
        K = _gram([[0.4, -1.0], [0.4, -1.0]], [[1.0], [1.0]], [p])
        np.testing.assert_array_equal(K, np.full((2, 2), 2.5))

    def test_unit_distance(self):
        p = BaseKernelParams(1.0, np.array([1.0]))
        assert _cross_value([0.0], [1.0], [1.0], [1.0], [p]) == pytest.approx(math.exp(-0.5))

    def test_two_lengthscales_distance(self):
        p = BaseKernelParams(1.0, np.array([1.0]))
        assert _cross_value([0.0], [1.0], [2.0], [1.0], [p]) == pytest.approx(math.exp(-2.0))

    def test_dimension_mismatch(self):
        p = BaseKernelParams(1.0, np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            _stacked_params([p], 1)

    def test_one_lengthscale_not_broadcast(self):
        # A kernel on a two-dimensional state needs two lengthscales.
        p = BaseKernelParams(1.0, np.array([1.0]))
        with pytest.raises(ValueError):
            _stacked_params([p], 2)

    def test_rejects_nonpositive_params(self):
        with pytest.raises(ValueError):
            BaseKernelParams(0.0, np.array([1.0]))
        with pytest.raises(ValueError):
            BaseKernelParams(1.0, np.array([-1.0]))


class TestCompositeKernel:
    """Properties of y^T Lambda(x, x') y' in the Gram and cross-kernel assembly."""

    def setup_method(self):
        rng = np.random.default_rng(0)
        self.params = _random_params(rng, 3, 2)

    def test_zero_regressor(self):
        K = _gram([[0, 0], [1, 1]], [[0, 0, 0], [1, 2, 3]], self.params)
        assert K[0, 0] == 0.0 and K[0, 1] == 0.0 and K[1, 0] == 0.0
        assert _cross_value([0, 0], [0, 0, 0], [1, 1], [1, 2, 3], self.params) == 0.0

    def test_distinct_basis_vectors_orthogonal(self):
        e1 = [1.0, 0.0, 0.0]
        e2 = [0.0, 1.0, 0.0]
        assert _gram([[0, 0], [0, 0]], [e1, e2], self.params)[0, 1] == 0.0
        assert _cross_value([0, 0], e1, [0, 0], e2, self.params) == 0.0

    def test_reduces_to_one_kernel(self):
        e1 = [1.0, 0.0, 0.0]
        x, x2 = [0.3, -0.7], [1.1, 0.4]
        p = self.params[0]
        K = _gram([x, x2], [e1, e1], self.params)
        assert K[0, 0] == pytest.approx(p.signal_variance)
        dist2 = float(np.sum(((np.array(x) - x2) / p.lengthscales) ** 2))
        assert K[0, 1] == pytest.approx(p.signal_variance * math.exp(-0.5 * dist2), rel=1e-12)

    def test_matches_reference_implementation(self):
        rng = np.random.default_rng(1)
        sf2s = [p.signal_variance for p in self.params]
        ells = [p.lengthscales for p in self.params]
        for _ in range(20):
            x, x2 = rng.normal(size=2), rng.normal(size=2)
            y, y2 = rng.normal(size=3), rng.normal(size=3)
            assert _cross_value(x, y, x2, y2, self.params) == pytest.approx(
                composite_kernel_ref(x, y, x2, y2, sf2s, ells), rel=1e-12
            )


class TestKernelAssembly:
    """Vectorized Gram and cross-kernel assembly, entry by entry against the reference kernel."""

    def test_gram_matches_reference(self):
        rng = np.random.default_rng(2)
        ds = _random_dataset(rng, 15)
        params = _random_params(rng, 3, 2)
        sf2, inv_ell2 = _stacked_params(params, 2)
        K = _gram_composite(ds.X, ds.Y, sf2, inv_ell2)
        sf2s = [p.signal_variance for p in params]
        ells = [p.lengthscales for p in params]
        N = len(ds)
        K_ref = np.array(
            [
                [composite_kernel_ref(ds.X[i], ds.Y[i], ds.X[j], ds.Y[j], sf2s, ells) for j in range(N)]
                for i in range(N)
            ]
        )
        np.testing.assert_allclose(K, K_ref, rtol=1e-12)

    def test_cross_matches_reference(self):
        rng = np.random.default_rng(3)
        ds = _random_dataset(rng, 12)
        params = _random_params(rng, 3, 2)
        sf2, inv_ell2 = _stacked_params(params, 2)
        xstar = rng.normal(size=2)
        kbar = _cross_kbar(ds.X, ds.Y, xstar, sf2, inv_ell2)
        sf2s = [p.signal_variance for p in params]
        ells = [p.lengthscales for p in params]
        # column j, row t: the composite kernel between (x*, e_t) and (x_j, y_j)
        kbar_ref = np.array(
            [
                [composite_kernel_ref(xstar, e_t, ds.X[j], ds.Y[j], sf2s, ells) for j in range(len(ds))]
                for e_t in np.eye(3)
            ]
        )
        np.testing.assert_allclose(kbar, kbar_ref, rtol=1e-12)


class TestFit:
    def test_empty_dataset_gives_prior_model(self):
        ds = ResidualDataset(X=np.zeros((0, 2)), Y=np.zeros((0, 3)), z=np.zeros(0), noise_variance=1e-4)
        params = _random_params(np.random.default_rng(4), 3, 2)
        model = fit(ds, params)
        mu, sigma = posterior_coefficients(model, [0.1, 0.2])
        np.testing.assert_allclose(mu, np.zeros(3))
        expected = np.diag([p.signal_variance for p in params])
        np.testing.assert_allclose(sigma, expected, atol=1e-11)

    def test_single_row_closed_form(self):
        k0 = BaseKernelParams(1.3, np.array([1.0, 1.0]))
        params = [k0, k0, k0]
        y = np.array([2.0, -1.0, 0.5])
        sn2 = 0.1
        z = 0.7
        ds = ResidualDataset(X=np.array([[0.0, 0.0]]), Y=y[None, :], z=[z], noise_variance=sn2)
        model = fit(ds, params)
        gram = 1.3 * float(y @ y)
        assert model.factor[0, 0] ** 2 == pytest.approx(gram + sn2)
        assert model.weights[0] == pytest.approx(z / (gram + sn2))

    def test_singular_gram_without_jitter_raises(self, monkeypatch):
        monkeypatch.setattr(gp_mod, "DEFAULT_JITTER_SCHEDULE", (0.0,))
        params = _random_params(np.random.default_rng(5), 3, 2)
        row_x = np.array([[0.5, 0.5], [0.5, 0.5]])
        row_y = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
        ds = ResidualDataset(X=row_x, Y=row_y, z=[1.0, 1.0], noise_variance=0.0)
        with pytest.raises(IllConditionedDataError, match=r"jitter schedule \(0\.0,\)"):
            fit(ds, params)

    def test_jitter_schedule_recovers(self):
        params = _random_params(np.random.default_rng(5), 3, 2)
        row_x = np.array([[0.5, 0.5], [0.5, 0.5]])
        row_y = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
        ds = ResidualDataset(X=row_x, Y=row_y, z=[1.0, 1.0], noise_variance=0.0)
        model = fit(ds, params)
        assert model.jitter > 0.0


class TestPosterior:
    def test_invariants_fixed_at_fit_match_per_query_assembly(self):
        # Stacked parameters, contiguous X/Y and the Fortran-ordered factor
        # stored by fit give the (mu, Sigma) of assembling everything per
        # query from the dataset with a C-ordered factor.
        rng = np.random.default_rng(14)
        ds = _random_dataset(rng, 40)
        params = _random_params(rng, 3, 2)
        model = fit(ds, params)
        assert model.factor.flags.f_contiguous
        Lc = np.ascontiguousarray(model.factor)
        weights = solve_triangular(Lc.T, solve_triangular(Lc, ds.z, lower=True), lower=False)
        sf2, inv_ell2 = _stacked_params(params, 2)
        sf2s = [p.signal_variance for p in params]
        ells = [p.lengthscales for p in params]
        eye = np.eye(3)
        for _ in range(20):
            xstar = rng.normal(size=2) * 2.0
            mu, sigma = posterior_coefficients(model, xstar)
            kbar = _cross_kbar(
                np.ascontiguousarray(ds.X), np.ascontiguousarray(ds.Y), xstar, sf2, inv_ell2
            )
            V = solve_triangular(Lc, kbar.T, lower=True)
            lam = np.array(
                [[composite_kernel_ref(xstar, e_s, xstar, e_t, sf2s, ells) for e_t in eye] for e_s in eye]
            )
            ref = lam - V.T @ V
            ref = 0.5 * (ref + ref.T) + SIGMA_JITTER * np.eye(3)
            mu_ref = kbar @ weights
            np.testing.assert_allclose(mu, mu_ref, rtol=0, atol=1e-12 * np.abs(mu_ref).max())
            np.testing.assert_allclose(sigma, ref, rtol=0, atol=1e-12 * np.abs(ref).max())

    def test_sigma_accurate_on_ill_conditioned_factor(self):
        # Near-duplicate states along one trajectory, as in an ACC dataset
        # (N = 87, a shared gamma block, noise 1e-4), give cond(L) of several
        # thousand.  Forming L^{-1} explicitly loses about cond(L) eps here;
        # forward substitution must stay within 1e-12 of the exact sums.
        rng = np.random.default_rng(15)
        N = 87
        X = np.column_stack([np.linspace(20.0, 24.0, N), np.linspace(100.0, 60.0, N)])
        X = X + 0.1 * rng.normal(size=(N, 2))
        Y = np.column_stack([np.full(N, 4.0), np.ones(N), rng.uniform(-1.0, 1.0, size=N)])
        ds = ResidualDataset(X=X, Y=Y, z=rng.normal(size=N), noise_variance=1e-4)
        sf2s = [4.0, 0.25, 1e-7]
        ells = [[8.0, 40.0]] * 3
        model = fit(ds, [BaseKernelParams(sf2, np.array(ell)) for sf2, ell in zip(sf2s, ells)])
        assert model.jitter == 0.0
        assert np.linalg.cond(model.factor) >= 1e3
        eye = np.eye(3)
        for _ in range(5):
            xstar = rng.uniform([20.0, 60.0], [24.0, 100.0])
            _, sigma = posterior_coefficients(model, xstar)
            kbar = np.array(
                [[composite_kernel_ref(xstar, e_t, X[j], Y[j], sf2s, ells) for j in range(N)] for e_t in eye]
            )
            ref = posterior_sigma_fsum(model.factor, kbar, np.diag(sf2s)) + SIGMA_JITTER * eye
            np.testing.assert_allclose(sigma, ref, rtol=0, atol=1e-12 * np.abs(ref).max())

    def test_shapes_prior_only_and_four_kernels(self):
        rng = np.random.default_rng(16)
        empty = ResidualDataset(X=np.zeros((0, 2)), Y=np.zeros((0, 4)), z=np.zeros(0), noise_variance=1e-4)
        prior = fit(empty, _random_params(rng, 4, 2))
        four = fit(_random_dataset(rng, 12, q=4), _random_params(rng, 4, 2))  # r = 3, m = 1
        for model in (prior, four):
            mu, sigma = posterior_coefficients(model, rng.normal(size=2))
            assert (mu.shape, sigma.shape) == ((4,), (4, 4))

    def test_scalar_sanity_vs_textbook_gp(self):
        # m + r = 1: composite GP with y = 1 is a plain GP on x
        params = [BaseKernelParams(1.7, np.array([0.8]))]
        rng = np.random.default_rng(6)
        X = rng.normal(size=(5, 1))
        Y = np.ones((5, 1))
        z = rng.normal(size=5)
        sn2 = 0.05
        model = fit(ResidualDataset(X=X, Y=Y, z=z, noise_variance=sn2), params)
        xstar = np.array([0.3])
        mu, sigma = posterior_coefficients(model, xstar)

        kfn = lambda x, y, x2, y2: composite_kernel_ref(x, y, x2, y2, [1.7], [[0.8]])
        mean_ref, var_ref = stacked_gp_posterior(X, Y, z, sn2, kfn, xstar, np.ones(1))
        assert float(mu @ np.ones(1)) == pytest.approx(mean_ref, abs=1e-10)
        assert float(sigma[0, 0]) == pytest.approx(var_ref, abs=1e-9)

    def test_matches_generic_stacked_gp(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            N = int(rng.integers(1, 12))
            ds = _random_dataset(rng, N, sn2=float(rng.uniform(1e-3, 0.1)))
            params = _random_params(rng, 3, 2)
            model = fit(ds, params)
            xstar = rng.normal(size=2)
            ystar = rng.normal(size=3)
            mu, sigma = posterior_coefficients(model, xstar)
            sf2s = [p.signal_variance for p in params]
            ells = [p.lengthscales for p in params]
            kfn = lambda x, y, x2, y2: composite_kernel_ref(x, y, x2, y2, sf2s, ells)
            mean_ref, var_ref = stacked_gp_posterior(
                ds.X, ds.Y, ds.z, ds.noise_variance, kfn, xstar, ystar
            )
            assert float(mu @ ystar) == pytest.approx(mean_ref, abs=1e-8)
            assert float(ystar @ sigma @ ystar) == pytest.approx(var_ref, abs=1e-8)

    def test_mean_linear_variance_quadratic_in_regressor(self):
        rng = np.random.default_rng(8)
        ds = _random_dataset(rng, 10)
        params = _random_params(rng, 3, 2)
        model = fit(ds, params)
        for _ in range(25):
            xstar = rng.normal(size=2)
            ystar = rng.normal(size=3)
            alpha = float(rng.uniform(-3.0, 3.0))
            mu, sigma = posterior_coefficients(model, xstar)
            mean = float(mu @ ystar)
            var = float(ystar @ sigma @ ystar)
            mean_scaled = float(mu @ (alpha * ystar))
            var_scaled = float((alpha * ystar) @ sigma @ (alpha * ystar))
            assert abs(mean_scaled - alpha * mean) <= 1e-10 * max(1.0, abs(mean))
            assert abs(var_scaled - alpha**2 * var) <= 1e-10 * max(1.0, var)

    def test_interpolates_training_labels(self):
        rng = np.random.default_rng(9)
        X = np.linspace(-2, 2, 7)[:, None]
        Y = np.column_stack([np.full(7, 2.0), rng.uniform(0.5, 1.5, size=7)])
        z = np.sin(X[:, 0]) + 0.3 * Y[:, 1]
        params = [BaseKernelParams(1.0, np.array([1.0])), BaseKernelParams(1.0, np.array([1.0]))]
        model = fit(ResidualDataset(X=X, Y=Y, z=z, noise_variance=1e-10), params)
        for j in range(7):
            mu, _ = posterior_coefficients(model, X[j])
            assert float(mu @ Y[j]) == pytest.approx(float(z[j]), abs=1e-4)

    def test_sigma_symmetric_positive_definite(self):
        rng = np.random.default_rng(10)
        ds = _random_dataset(rng, 20)
        params = _random_params(rng, 3, 2)
        model = fit(ds, params)
        for _ in range(20):
            _, sigma = posterior_coefficients(model, rng.normal(size=2) * 3)
            np.testing.assert_allclose(sigma, sigma.T, atol=1e-12)
            np.linalg.cholesky(sigma)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(-5, 5), st.floats(-5, 5), st.floats(0.1, 3))
    def test_posterior_variance_never_exceeds_prior(self, x1, x2, scale):
        params = [BaseKernelParams(1.0, np.array([1.0, 1.0]))] * 3
        rng = np.random.default_rng(11)
        ds = _random_dataset(rng, 8)
        model = fit(ds, params)
        xstar = np.array([x1, x2])
        ystar = scale * np.ones(3)
        _, sigma = posterior_coefficients(model, xstar)
        prior = model.prior_lambda(xstar)
        assert float(ystar @ sigma @ ystar) <= float(ystar @ prior @ ystar) + 1e-8


class TestDatasetCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(12)
        ds = _random_dataset(rng, 9)
        path = tmp_path / "dataset.csv"
        save_dataset_csv(ds, path)
        loaded = load_dataset_csv(path, n=2, noise_variance=ds.noise_variance)
        np.testing.assert_allclose(loaded.X, ds.X)
        np.testing.assert_allclose(loaded.Y, ds.Y)
        np.testing.assert_allclose(loaded.z, ds.z)

    def test_header_schema(self, tmp_path):
        rng = np.random.default_rng(13)
        ds = _random_dataset(rng, 3)
        path = tmp_path / "d.csv"
        save_dataset_csv(ds, path)
        header = path.read_text().splitlines()[0].split(",")
        assert header == ["x_1", "x_2", "y_1", "y_2", "y_3", "z"]

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            load_dataset_csv(path, n=1, noise_variance=0.1)
