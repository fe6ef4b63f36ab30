import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpcbf.barrier import CertificateTerms, certificate_terms, halfspace_qp_filter
from gpcbf.errors import FactorizationError
from gpcbf.socp import (
    STATUS_INFEASIBLE,
    STATUS_OPTIMAL,
    SafetyConeData,
    _necessary_from_factor,
    assemble_safety_cone,
    build_S,
    cone_margin,
    effective_phi,
    feasibility_sufficient,
    matrix_sqrt_factor,
    pointwise_conditions,
    safety_filter_step,
    solve,
)
from gpcbf.gp import posterior_coefficients
from gpcbf.validate import _benchmark_filter_states, grid_oracle_u, random_feasible_instance

from _oracles import necessary_value_dense


def _random_spd(rng, n, scale=1.0):
    M = rng.normal(size=(n, n))
    return scale * (M @ M.T) + 0.1 * np.eye(n)


class TestMatrixSqrtFactor:
    def test_identity(self):
        np.testing.assert_allclose(matrix_sqrt_factor(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        np.testing.assert_allclose(
            matrix_sqrt_factor(np.diag([4.0, 9.0])), np.diag([2.0, 3.0])
        )

    def test_random_spd_reconstructs(self):
        rng = np.random.default_rng(0)
        S = _random_spd(rng, 5)
        L = matrix_sqrt_factor(S)
        assert not np.tril(L, -1).any()  # upper triangular, the lower part exactly zero
        err = np.max(np.abs(L.T @ L - S))
        assert err <= 1e-10 * np.max(np.abs(S))

    def test_non_pd_rejected(self):
        with pytest.raises(FactorizationError):
            matrix_sqrt_factor(np.diag([1.0, -1.0]))

    @pytest.mark.parametrize("i, j", [(0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)])
    def test_nan_entry_rejected(self, i, j):
        S = _random_spd(np.random.default_rng(3), 3)
        S[i, j] = S[j, i] = np.nan
        with pytest.raises(FactorizationError):
            matrix_sqrt_factor(S)

    def test_necessary_value_matches_dense_solve(self):
        rng = np.random.default_rng(5)
        for i in range(200):
            n = 2 + i % 5
            S = _random_spd(rng, n, scale=10.0 ** rng.uniform(-4, 4))
            phi = rng.normal(size=n)
            beta = rng.uniform(0.2, 4.0)
            dense = necessary_value_dense(phi, S, beta)
            assert _necessary_from_factor(phi, matrix_sqrt_factor(S), beta) == pytest.approx(
                dense, rel=1e-12
            )


def _cert(zf, zg, const):
    return CertificateTerms(zf=np.asarray(zf, float), zg=np.atleast_1d(np.asarray(zg, float)), const=float(const))


class TestAssembleSafetyCone:
    def test_prior_identity_hand_assembly(self):
        cert = _cert([0.5, -1.0], [2.0], 0.25)
        gamma = np.array([4.0, 1.0])
        cone = assemble_safety_cone(cert, np.zeros(3), np.eye(3), 1.0, gamma)
        np.testing.assert_allclose(cone.A, [[0.0], [0.0], [1.0]])
        np.testing.assert_allclose(cone.b, [4.0, 1.0, 0.0])
        np.testing.assert_allclose(cone.c, [2.0])
        assert cone.d == pytest.approx(0.5 * 4.0 - 1.0 + 0.25)

    def test_beta_zero_degenerates_to_affine(self):
        cert = _cert([0.5, -1.0], [2.0], 0.25)
        cone = assemble_safety_cone(cert, np.zeros(3), np.eye(3), 0.0, np.array([4.0, 1.0]))
        assert cone.degenerate
        np.testing.assert_allclose(cone.A, np.zeros((3, 1)))
        np.testing.assert_allclose(cone.b, np.zeros(3))

    def test_zero_mean_prior(self):
        cert = _cert([1.0, 2.0], [-0.5], 3.0)
        gamma = np.array([3.0, 1.0])
        cone = assemble_safety_cone(cert, np.zeros(3), np.eye(3), 2.0, gamma)
        np.testing.assert_allclose(cone.c, cert.zg)
        assert cone.d == pytest.approx(float(cert.zf @ gamma) + cert.const)

    def test_cone_encodes_posterior_std(self):
        # |A u + b| must equal beta * sqrt(y' Sigma y) at y = [gamma; u]
        rng = np.random.default_rng(1)
        sigma = _random_spd(rng, 3)
        gamma = np.array([2.0, 1.0])
        cert = _cert([0.3, 0.1], [1.2], -0.4)
        beta = 1.7
        cone = assemble_safety_cone(cert, rng.normal(size=3), sigma, beta, gamma)
        for u in (-2.0, 0.0, 1.5):
            y = np.array([2.0, 1.0, u])
            lhs = np.linalg.norm(cone.A @ [u] + cone.b)
            assert lhs == pytest.approx(beta * np.sqrt(y @ sigma @ y), rel=1e-10)

    def test_hand_written_cone_forms_S3(self):
        # S3 = A^T A - c c^T: [[1, 0], [0, 4]] - [[1, 1], [1, 1]]
        cone = SafetyConeData(
            A=np.array([[1.0, 0.0], [0.0, 2.0]]), b=np.zeros(2), c=np.array([1.0, 1.0]), d=0.5
        )
        np.testing.assert_array_equal(cone.S3, [[0.0, -1.0], [-1.0, 3.0]])


class TestEffectivePhi:
    def test_constant_folded_into_last_drift_entry(self):
        cert = _cert([1.0, 2.0], [0.5], 7.0)
        mu = np.array([0.1, 0.2, 0.3])
        phi = effective_phi(cert, mu)
        np.testing.assert_allclose(phi, [1.1, 9.2, 0.8])

    def test_phi_reproduces_cone_rhs(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            cert = _cert(rng.normal(size=2), rng.normal(size=1), rng.normal())
            mu = rng.normal(size=3)
            gamma = np.array([rng.uniform(0.5, 4.0), 1.0])
            cone = assemble_safety_cone(cert, mu, np.eye(3), 1.0, gamma)
            phi = effective_phi(cert, mu)
            u = rng.normal()
            y = np.concatenate((gamma, [u]))
            assert float(phi @ y) == pytest.approx(float(cone.c @ [u]) + cone.d, rel=1e-12)


class TestSolve:
    def test_inactive_constraint_returns_nominal(self):
        cone = SafetyConeData(A=np.zeros((3, 1)), b=np.zeros(3), c=np.array([1.0]), d=0.0)
        out = solve(np.array([5.0]), cone)
        assert out.status == STATUS_OPTIMAL
        assert out.iterations == 0
        assert out.diagnostics["analytic"] is True
        np.testing.assert_allclose(out.u, [5.0])

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(150):
            cone, u_nom = random_feasible_instance(rng)
            out = solve(u_nom, cone, tol=1e-9)
            assert out.status == STATUS_OPTIMAL
            ustar = grid_oracle_u(cone, u_nom)
            assert abs(float(out.u[0]) - ustar) <= 2e-4

    def test_detects_infeasible_cone(self):
        # |u| <= -5 has no solution
        cone = SafetyConeData(
            A=np.array([[1.0]]), b=np.array([0.0]), c=np.array([0.0]), d=-5.0
        )
        out = solve(np.zeros(1), cone, tol=1e-9)
        assert out.status == STATUS_INFEASIBLE

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        cone, u_nom = random_feasible_instance(rng)
        out1 = solve(u_nom, cone, tol=1e-9)
        out2 = solve(u_nom, cone, tol=1e-9)
        assert float(out1.u[0]) == float(out2.u[0])
        assert out1.iterations == out2.iterations

    def test_optimal_satisfies_constraints(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            cone, u_nom = random_feasible_instance(rng)
            out = solve(u_nom, cone, tol=1e-9)
            assert out.status == STATUS_OPTIMAL
            assert out.diagnostics["cone_margin"] >= -1e-7
            assert out.diagnostics["cone_margin"] == cone_margin(cone, out.u)

    def test_multi_input_projection(self):
        # m = 2 affine constraint: solution is the Euclidean projection
        cone = SafetyConeData(
            A=np.zeros((4, 2)), b=np.zeros(4), c=np.array([1.0, 1.0]), d=-4.0
        )
        u_nom = np.array([1.0, 1.0])
        out = solve(u_nom, cone, tol=1e-10)
        expected = halfspace_qp_filter(u_nom, np.array([1.0, 1.0]), -4.0)
        np.testing.assert_allclose(out.u, expected, atol=1e-8)

    def test_scalar_root_on_wrong_branch_skipped(self):
        # |u| <= u - 1 is empty.  |u| <= 2u - 1 is u >= 1: Q has roots 1/3
        # and 1, and from u_nom = 0 the nearer root 1/3 lies on the branch
        # 2u - 1 < 0, so the projection is the other root.
        empty = SafetyConeData(A=np.array([[1.0]]), b=np.zeros(1), c=np.array([1.0]), d=-1.0)
        assert solve(np.array([-10.0]), empty).status == STATUS_INFEASIBLE
        half_line = SafetyConeData(A=np.array([[1.0]]), b=np.zeros(1), c=np.array([2.0]), d=-1.0)
        out = solve(np.array([0.0]), half_line, tol=1e-12)
        assert out.status == STATUS_OPTIMAL
        assert float(out.u[0]) == pytest.approx(1.0, abs=1e-12)
        assert out.diagnostics["analytic"] is False


def _random_filter_inputs(rng, r, m, sigma_scale=0.3, beta_range=(0.2, 1.5)):
    cert = _cert(rng.normal(size=r), rng.normal(size=m), rng.normal())
    mu = 0.3 * rng.normal(size=r + m)
    sigma = _random_spd(rng, r + m, scale=sigma_scale)
    beta = float(rng.uniform(*beta_range))
    gamma = np.concatenate((rng.uniform(0.5, 3.0, size=r - 1), [1.0]))
    return cert, mu, sigma, beta, gamma


class TestGeneralProjection:
    """The secular-equation path of :func:`solve` (m >= 2) and degenerate cones."""

    @pytest.mark.parametrize("r", [2, 3, 4])
    @pytest.mark.parametrize("m", [2, 3])
    def test_kkt_certificate(self, m, r):
        # u - u_nom = nu * grad(margin) with nu >= 0 at a feasible u certifies
        # the projection onto the convex cone.  Half of the u_nom lie deep on
        # the wrong side (c u + d << 0); those inside the opposite nappe
        # (|A u + b| <= -(c u + d)) have their root beyond the pole.
        rng = np.random.default_rng(100 + 10 * m + r)
        checked = beyond_pole = 0
        for i in range(120):
            cert, mu, sigma, beta, gamma = _random_filter_inputs(rng, r, m)
            if i % 3 == 0:  # ill-conditioned Sigma: eigenvalues from 1e-8 to 10
                Q, _ = np.linalg.qr(rng.normal(size=(r + m, r + m)))
                sigma = (Q * 10.0 ** rng.uniform(-8.0, 1.0, size=r + m)) @ Q.T
                sigma = 0.5 * (sigma + sigma.T)
            cone = assemble_safety_cone(cert, mu, sigma, beta, gamma)
            u_nom = 3.0 * rng.normal(size=m)
            if i % 2:
                cc = float(cone.c @ cone.c)
                u_nom -= (float(cone.c @ u_nom) + cone.d + 30.0 * (1.0 + abs(cone.d))) / cc * cone.c
            opposite = np.linalg.norm(cone.A @ u_nom + cone.b) <= -(float(cone.c @ u_nom) + cone.d)
            out = solve(u_nom, cone, tol=1e-9)
            if out.status != STATUS_OPTIMAL or out.diagnostics["analytic"]:
                continue
            res = cone.A @ out.u + cone.b
            s = float(np.linalg.norm(res))
            assert out.diagnostics["cone_margin"] >= -1e-9 * max(1.0, s)
            grad = cone.c - cone.A.T @ res / s
            step = out.u - u_nom
            nu = float(step @ grad) / float(grad @ grad)
            assert nu >= 0.0
            np.testing.assert_allclose(step, nu * grad, atol=1e-8 * max(1.0, np.linalg.norm(step)))
            checked += 1
            beyond_pole += bool(opposite)
        assert checked >= 30 and beyond_pole >= 5

    @pytest.mark.parametrize(
        "A, b, c, d, u_nom, expected",
        [
            # |u1| <= u2 from below its apex: the projection is the apex.
            ([[1.0, 0.0]], [0.0], [0.0, 1.0], 0.0, [0.0, -1.0], [0.0, 0.0]),
            # |(u1 + 2, u1 + u2)| <= u1 + u2 is the ray u1 = -2, u2 >= 2.
            ([[-1.0, 0.0], [-1.0, -1.0]], [-2.0, 0.0], [1.0, 1.0], 0.0, [30.0, 9.0], [-2.0, 9.0]),
            # |u - 1| <= 1 - u is u <= 1: Q vanishes identically.
            ([[1.0]], [-1.0], [-1.0], 1.0, [3.0], [1.0]),
        ],
    )
    def test_cones_without_interior_or_with_an_apex(self, A, b, c, d, u_nom, expected):
        cone = SafetyConeData(A=np.array(A), b=np.array(b), c=np.array(c), d=d)
        out = solve(np.array(u_nom), cone, tol=1e-10)
        assert out.status == STATUS_OPTIMAL
        np.testing.assert_allclose(out.u, expected, atol=1e-9)

    @pytest.mark.parametrize(
        "A, b, c, d, u_nom, distance",
        [
            # One row for three inputs: H has an exact zero eigenvalue, and the
            # secular numerator loses two degrees whose coefficients come out
            # as rounding noise.  Kept, they add a root 52 from u_nom.
            (
                [[0.33950947157970146, -1.2853813931526517, 2.3691638529901975]],
                [-0.028263162188416974],
                [2.416912669832169, -0.8674214463025013, -0.5678464805360192],
                2.5996614902670028,
                [-5.374969896278695, 2.0935291034593964, -1.6910263723903098],
                5.113659820421114,
            ),
            # The gradient of Q along H's null direction is zero up to
            # rounding; kept, its noise adds a root 47.9 from u_nom.
            (
                [[-2.0, 0.0, 1.0], [-2.0, -2.0, -1.0]],
                [2.0, -1.0],
                [2.0, -1.0, -2.0],
                1.0,
                [-42.57901736676994, -19.825518156759596, -12.385513988789976],
                41.8924019340362,
            ),
        ],
    )
    def test_rounding_noise_adds_no_distant_root(self, A, b, c, d, u_nom, distance):
        # The distances come from SLSQP; both roots above also satisfy the cone.
        cone = SafetyConeData(A=np.array(A), b=np.array(b), c=np.array(c), d=d)
        u_nom = np.array(u_nom)
        out = solve(u_nom, cone, tol=1e-10)
        assert out.status == STATUS_OPTIMAL
        assert np.linalg.norm(out.u - u_nom) == pytest.approx(distance, rel=1e-7)

    def test_infeasible_verdicts_match_feasibility_conditions(self):
        # A positive necessary-condition value proves the cone empty; a
        # negative definite S3 proves it non-empty (possible only for m = 1,
        # since S3 = A^T A - c c^T has at most one negative eigenvalue).
        rng = np.random.default_rng(15)
        certified_infeasible = certified_feasible = 0
        for i in range(600):
            r, m = 2 + i % 3, 1 + (i // 3) % 3
            cert, mu, sigma, beta, gamma = _random_filter_inputs(rng, r, m, beta_range=(0.2, 4.0))
            u_nom = 3.0 * rng.normal(size=m)
            out = safety_filter_step(u_nom, cert, mu, sigma, beta, gamma, tol=1e-9)
            phi = effective_phi(cert, mu)
            if necessary_value_dense(phi, sigma, beta) > 1e-9:
                assert out.status == STATUS_INFEASIBLE
                certified_infeasible += 1
            if out.diagnostics["sufficient_certified"]:
                assert out.status == STATUS_OPTIMAL
                certified_feasible += 1
        assert certified_infeasible >= 20 and certified_feasible >= 20

    def test_sufficient_eig_is_top_eigenvalue_of_cone_S3(self):
        # The certificate reads the S3 of the quadric the projection solves.
        rng = np.random.default_rng(17)
        for i in range(180):
            r, m = 2 + i % 3, 1 + (i // 3) % 3
            cert, mu, sigma, beta, gamma = _random_filter_inputs(rng, r, m, beta_range=(0.2, 4.0))
            cone = assemble_safety_cone(cert, mu, sigma, beta, gamma)
            out = safety_filter_step(3.0 * rng.normal(size=m), cert, mu, sigma, beta, gamma)
            top = float(np.linalg.eigvalsh(cone.S3)[-1])
            assert repr(out.diagnostics["sufficient_eig"]) == repr(top)
            assert out.diagnostics["sufficient_certified"] == (top < -1e-10)

    def test_necessary_value_from_factor_matches_dense_solve(self):
        rng = np.random.default_rng(16)
        for i in range(50):
            r, m = 2 + i % 3, 1 + i % 2
            cert, mu, sigma, beta, gamma = _random_filter_inputs(rng, r, m, beta_range=(0.2, 4.0))
            out = safety_filter_step(np.zeros(m), cert, mu, sigma, beta, gamma)
            dense = necessary_value_dense(effective_phi(cert, mu), sigma, beta)
            value = out.diagnostics["necessary_value"]
            assert value == pytest.approx(dense, rel=1e-12, abs=1e-12)
        # The feasibility suite's 1000 states at seed 0: both plants, the
        # first episode's model and the prior, beta in {1, 2, 4}.  The
        # certificate is checked against the trailing block of the full S,
        # not the cone's own S3.
        rng = np.random.default_rng(0)
        for plant in ("acc", "suspension"):
            sc, models, states = _benchmark_filter_states(plant, rng, 500)
            gamma = sc.design_nom.gamma
            for i, x in enumerate(states):
                beta = (1.0, 2.0, 4.0)[i % 3]
                cert = certificate_terms(sc.design_nom, x)
                mu, sigma = posterior_coefficients(models[i % 2], x)
                out = safety_filter_step(sc.u_nom(0.0, x), cert, mu, sigma, beta, gamma, tol=1e-9)
                phi = effective_phi(cert, mu)
                dense = necessary_value_dense(phi, sigma, beta)
                assert out.diagnostics["necessary_value"] == pytest.approx(dense, rel=1e-10)
                S = build_S(phi, sigma, beta)
                certified, _ = feasibility_sufficient(S[gamma.size :, gamma.size :])
                assert out.diagnostics["sufficient_certified"] == certified

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 3),
        st.integers(1, 4),
        st.data(),
    )
    def test_returned_u_satisfies_cone_or_is_flagged(self, m, rows, data):
        entries = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
        A = np.array(data.draw(st.lists(entries, min_size=rows * m, max_size=rows * m)))
        b = np.array(data.draw(st.lists(entries, min_size=rows, max_size=rows)))
        c = np.array(data.draw(st.lists(entries, min_size=m, max_size=m)))
        d = data.draw(entries)
        u_nom = np.array(data.draw(st.lists(entries, min_size=m, max_size=m)))
        cone = SafetyConeData(A=A.reshape(rows, m), b=b, c=c, d=d)
        out = solve(u_nom, cone, tol=1e-8)
        if out.status != STATUS_INFEASIBLE:
            assert out.status == STATUS_OPTIMAL
            scale = max(1.0, float(np.linalg.norm(cone.A @ out.u + cone.b)))
            assert cone_margin(cone, out.u) >= -1e-8 * scale


def _necessary(phi, sigma, beta):
    """The filter step's necessary-condition value: from the factor of Sigma."""
    return _necessary_from_factor(np.asarray(phi), matrix_sqrt_factor(sigma), beta)


class TestFeasibilityNecessary:
    def test_boundary(self):
        assert _necessary([1.0, 0, 0], np.eye(3), 1.0) == pytest.approx(0.0)

    def test_certified_infeasible(self):
        assert _necessary([1.0, 0, 0], np.eye(3), 2.0) == pytest.approx(0.75)

    def test_scaled(self):
        assert _necessary([2.0, 0.0], 4.0 * np.eye(2), 1.0) == pytest.approx(0.0)

    def test_singular_sigma_raises(self):
        with pytest.raises(FactorizationError):
            _necessary([1.0, 0.0], np.zeros((2, 2)), 1.0)


class TestBuildS:
    def _random_inputs(self, rng, r=2, m=1):
        cert = _cert(rng.normal(size=r), rng.normal(size=m), rng.normal())
        mu = rng.normal(size=r + m)
        sigma = _random_spd(rng, r + m)
        beta = float(rng.uniform(0.5, 3.0))
        gamma = np.concatenate((rng.uniform(0.5, 4.0, size=r - 1), [1.0]))
        return cert, mu, sigma, beta, gamma

    def test_schur_identity(self):
        # Blockwise from the cone data: S1 = beta^2 (L^r)^T L^r - zf zf^T,
        # S2 = beta (L^r)^T A - zf c^T, S3 = A^T A - c c^T.
        rng = np.random.default_rng(7)
        for _ in range(30):
            cert, mu, sigma, beta, gamma = self._random_inputs(rng)
            r = gamma.size
            cone = assemble_safety_cone(cert, mu, sigma, beta, gamma)
            phi = effective_phi(cert, mu)
            zf, c = phi[:r], phi[r:]
            bLr = beta * matrix_sqrt_factor(sigma)[:, :r]
            S1 = bLr.T @ bLr - np.outer(zf, zf)
            S2 = bLr.T @ cone.A - np.outer(zf, c)
            S3 = cone.A.T @ cone.A - np.outer(c, c)
            blockwise = np.block([[S1, S2], [S2.T, S3]])
            S = build_S(phi, sigma, beta)
            np.testing.assert_allclose(S, blockwise, atol=1e-10 * max(1, np.abs(blockwise).max()))

    def test_identity_case(self):
        S = build_S(np.zeros(3), np.eye(3), 1.0)
        np.testing.assert_allclose(S, np.eye(3), atol=1e-12)

    def test_trailing_block_from_trailing_inputs(self):
        # build_S is elementwise, so S3 from the m-entry tail of phi and the
        # m x m block of Sigma has the bits of the full matrix's block
        rng = np.random.default_rng(9)
        for r in (2, 3, 4):
            for m in (1, 2, 3):
                cert, mu, sigma, beta, gamma = self._random_inputs(rng, r=r, m=m)
                phi = effective_phi(cert, mu)
                assert np.array_equal(
                    build_S(phi[r:], sigma[r:, r:], beta), build_S(phi, sigma, beta)[r:, r:]
                )

    def test_symmetry(self):
        rng = np.random.default_rng(8)
        cert, mu, sigma, beta, gamma = self._random_inputs(rng, r=3, m=2)
        S = build_S(effective_phi(cert, mu), sigma, beta)
        np.testing.assert_allclose(S, S.T, atol=1e-12)


class TestFeasibilitySufficient:
    def test_scalar_certified(self):
        certified, eig = feasibility_sufficient(np.array([[0.25 - 1.0]]))
        assert certified and eig == pytest.approx(-0.75)

    def test_scalar_equals_eigvalsh_bitwise(self):
        rng = np.random.default_rng(10)
        values = rng.choice([-1.0, 1.0], size=2000) * 10.0 ** rng.uniform(-300, 300, size=2000)
        for s in np.concatenate((values, [0.0, -0.0, -1e-10, 1e-10])):
            S3 = np.array([[s]])
            certified, eig = feasibility_sufficient(S3)
            expected = float(np.linalg.eigvalsh(0.5 * (S3 + S3.T))[-1])
            assert repr(eig) == repr(expected)  # the sign of zero too
            assert certified == (eig < -1e-10)

    def test_zero_actuation_not_certified(self):
        A = np.array([[0.5], [0.2]])
        S3 = A.T @ A  # c = 0
        certified, eig = feasibility_sufficient(S3)
        assert not certified
        assert eig >= 0.0

    def test_matches_characteristic_polynomial_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            M = rng.normal(size=(3, 3))
            S3 = 0.5 * (M + M.T)
            certified, eig = feasibility_sufficient(S3)
            roots = np.roots(np.poly(S3))
            assert eig == pytest.approx(float(np.max(roots.real)), abs=1e-8)
            assert certified == bool(np.max(roots.real) < -1e-10)


class TestPointwiseConditions:
    def test_zero_inputs(self):
        S = np.zeros((3, 3))
        phi = np.zeros(3)
        affine, quad = pointwise_conditions(np.zeros(2), np.zeros(1), S, phi)
        assert affine == 0.0 and quad == 0.0

    def test_hold_at_solver_optimum(self):
        rng = np.random.default_rng(10)
        checked = 0
        for _ in range(100):
            r, m = 2, 1
            cert = _cert(rng.normal(size=r), rng.normal(size=m), rng.normal())
            mu = 0.1 * rng.normal(size=r + m)
            sigma = _random_spd(rng, r + m, scale=0.2)
            beta = float(rng.uniform(0.2, 1.5))
            gamma = np.array([rng.uniform(0.5, 3.0), 1.0])
            cone = assemble_safety_cone(cert, mu, sigma, beta, gamma)
            out = solve(rng.normal(size=m), cone, tol=1e-9)
            if out.status != STATUS_OPTIMAL:
                continue
            phi = effective_phi(cert, mu)
            S = build_S(phi, sigma, beta)
            affine, quad = pointwise_conditions(gamma, out.u, S, phi)
            assert affine >= -1e-8
            assert quad <= 1e-8 * max(1.0, np.abs(S).max() * (1 + float(out.u @ out.u)))
            checked += 1
        assert checked > 50

    def test_certified_eigendirection_makes_quadratic_negative(self):
        # replicate the sufficient-condition proof construction numerically
        rng = np.random.default_rng(11)
        for _ in range(20):
            r, m = 2, 2
            cert = _cert(rng.normal(size=r), rng.normal(size=m), rng.normal())
            mu = rng.normal(size=r + m) * 0.1
            sigma = _random_spd(rng, r + m, scale=0.05)
            beta = 0.4
            gamma = np.array([1.5, 1.0])
            phi = effective_phi(cert, mu)
            S = build_S(phi, sigma, beta)
            S3 = S[r:, r:]
            certified, max_eig = feasibility_sufficient(S3)
            if not certified:
                continue
            eigvals, eigvecs = np.linalg.eigh(S3)
            e_m = eigvecs[:, -1]
            c = phi[r:]
            u = 1e6 * np.sign(float(c @ e_m)) * e_m
            affine, quad = pointwise_conditions(gamma, u, S, phi)
            assert quad < 0.0
            assert affine > 0.0


class TestFilterInvariants:
    def test_beta_monotone_objective(self):
        rng = np.random.default_rng(12)
        checked = 0
        while checked < 40:
            r, m = 2, 1
            cert = _cert(rng.normal(size=r), rng.normal(size=m) + 1.0, rng.normal())
            mu = rng.normal(size=3) * 0.1
            sigma = _random_spd(rng, 3, scale=0.1)
            gamma = np.array([2.0, 1.0])
            u_nom = rng.normal(size=1)
            betas = sorted(rng.uniform(0.0, 2.0, size=2))
            outs = []
            for beta in betas:
                cone = assemble_safety_cone(cert, mu, sigma, beta, gamma)
                outs.append(solve(u_nom, cone, tol=1e-9))
            if any(o.status != STATUS_OPTIMAL for o in outs):
                continue
            dists = [float(np.linalg.norm(o.u - u_nom)) for o in outs]
            assert dists[1] >= dists[0] - 1e-7
            checked += 1

    def test_beta_zero_reduces_to_halfspace(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            r, m = 2, 1
            cert = _cert(rng.normal(size=r), rng.normal(size=m), rng.normal())
            mu = rng.normal(size=3)
            sigma = _random_spd(rng, 3)
            gamma = np.array([rng.uniform(0.5, 4.0), 1.0])
            u_nom = rng.normal(size=1) * 3
            out = safety_filter_step(u_nom, cert, mu, sigma, 0.0, gamma, tol=1e-10)
            phi = effective_phi(cert, mu)
            c, d = phi[r:], float(phi[:r] @ gamma)
            if np.linalg.norm(c) < 1e-3:
                continue
            expected = halfspace_qp_filter(u_nom, c, d)
            assert out.status == STATUS_OPTIMAL
            np.testing.assert_allclose(out.u, expected, atol=1e-8)

    def test_step_diagnostics_populated(self):
        rng = np.random.default_rng(14)
        cert = _cert([0.2, -0.1], [1.0], 0.5)
        out = safety_filter_step(
            np.zeros(1), cert, np.zeros(3), np.eye(3), 1.0, np.array([2.0, 1.0])
        )
        d = out.diagnostics
        assert "necessary_value" in d
        assert "sufficient_eig" in d
        assert "cone_margin" in d
        assert "sigma" in d

    def test_infeasible_step_applies_mean_halfspace(self):
        # beta large enough to empty the cone while the mean half-space
        # c u + d >= 0 stays non-empty and excludes u_nom
        cert = _cert([0.2, -0.1], [1.0], 0.5)
        mu = np.array([0.1, 0.0, 0.2])
        sigma = np.eye(3)
        gamma = np.array([2.0, 1.0])
        u_nom = np.array([-5.0])
        out = safety_filter_step(u_nom, cert, mu, sigma, 1e3, gamma)
        assert out.status == STATUS_INFEASIBLE
        cone = assemble_safety_cone(cert, mu, sigma, 1e3, gamma)
        expected = halfspace_qp_filter(u_nom, cone.c, cone.d)
        assert np.array_equal(out.u, expected)
        assert not np.array_equal(out.u, u_nom)
        y = np.concatenate((gamma, out.u))
        assert out.diagnostics["sigma"] == float(np.sqrt(max(y @ sigma @ y, 0.0)))

    def test_necessary_condition_certificate_upgrades_status(self):
        # tiny beta-scaled uncertainty dominated by phi: value > 0 certifies
        # that the cone is empty, which the exact projection reports
        cert = _cert([0.0, 0.0], [0.0], 0.0)
        mu = np.array([1.0, 0.0, 0.0])
        sigma = np.eye(3)
        out = safety_filter_step(np.zeros(1), cert, mu, sigma, 2.0, np.array([1.0, 1.0]))
        assert out.status == STATUS_INFEASIBLE
        assert out.diagnostics["necessary_value"] > 0.0
