import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gpcbf.barrier import CertificateTerms, certificate_terms, halfspace_qp_filter
from gpcbf.errors import FactorizationError
from gpcbf.socp import (
    STATUS_FACTORIZATION_FAILED,
    STATUS_INFEASIBLE,
    STATUS_OPTIMAL,
    FilterOutcome,
    SafetyConeData,
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
from gpcbf import socp as socp_mod
from gpcbf import validate as validate_mod
from gpcbf.gp import posterior_coefficients
from gpcbf.validate import _benchmark_filter_states, random_feasible_instance

from _oracles import ConeReference, OneInputCone, necessary_value_dense


def _random_spd(rng, n, scale=1.0):
    M = rng.normal(size=(n, n))
    return scale * (M @ M.T) + 0.1 * np.eye(n)


class TestMatrixSqrtFactor:
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

    @pytest.mark.parametrize("i, j", [(0, 0), (1, 1), (2, 2), (1, 0), (2, 0), (2, 1)])
    def test_infinite_entry_rejected(self, i, j):
        # dpotrf passes an infinite diagonal entry as an infinite pivot
        S = _random_spd(np.random.default_rng(3), 3)
        S[i, j] = S[j, i] = np.inf
        with pytest.raises(FactorizationError):
            matrix_sqrt_factor(S)


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
            lhs = np.linalg.norm(np.array(cone.A) @ [u] + cone.b)
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
            assert float(phi @ y) == pytest.approx(cone.c[0] * u + cone.d, rel=1e-12)


class TestSolve:
    def test_inactive_constraint_returns_nominal(self):
        cone = SafetyConeData(A=np.zeros((3, 1)), b=np.zeros(3), c=np.array([1.0]), d=0.0)
        out = solve(np.array([5.0]), cone)
        assert out.status == STATUS_OPTIMAL
        assert out.iterations == 0
        assert out.analytic is True
        np.testing.assert_allclose(out.u, [5.0])

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
        assert out.analytic is False

    @pytest.mark.parametrize("u_nom", [1e10, 1e250])
    def test_feasible_point_at_an_overflowing_distance_is_the_projection(self, u_nom):
        # |(1e100 u, u)| <= u + 1 holds at u = 1e-100 with margin 0 in
        # floats.  From u_nom = 1e250 the margin at u_nom and the distance
        # to that root overflow: neither may warn, and the root is still
        # the nearest feasible point.
        cone = SafetyConeData(
            A=np.array([[1e100], [1.0]]), b=np.zeros(2), c=np.array([1.0]), d=1.0
        )
        out = solve(np.array([u_nom]), cone)
        assert out.status == STATUS_OPTIMAL
        assert out.u == (1e-100,) and out.cone_margin == 0.0

    @pytest.mark.parametrize(
        "A, c, d, u_nom, analytic",
        [
            ([[1.0]], [2.0], -1.0, [5.0], True),  # |u| <= 2u - 1 holds at u_nom
            ([[1.0]], [2.0], -1.0, [0.0], False),  # projected onto u = 1
            ([[0.0, 0.0]], [1.0, 1.0], -4.0, [1.0, 1.0], False),  # m = 2 half-space
        ],
    )
    def test_diagnostics_view_reads_the_record(self, A, c, d, u_nom, analytic):
        # the benchmark's span counter reads solve(...).diagnostics
        A = np.array(A)
        cone = SafetyConeData(A=A, b=np.zeros(A.shape[0]), c=np.array(c), d=d)
        out = solve(np.array(u_nom), cone, tol=1e-12)
        assert out.status == STATUS_OPTIMAL and out.analytic is analytic
        assert out.diagnostics == {"analytic": out.analytic, "cone_margin": out.cone_margin}


def _random_filter_inputs(rng, r, m, sigma_scale=0.3, beta_range=(0.2, 1.5)):
    cert = _cert(rng.normal(size=r), rng.normal(size=m), rng.normal())
    mu = 0.3 * rng.normal(size=r + m)
    sigma = _random_spd(rng, r + m, scale=sigma_scale)
    beta = float(rng.uniform(*beta_range))
    gamma = np.concatenate((rng.uniform(0.5, 3.0, size=r - 1), [1.0]))
    return cert, mu, sigma, beta, gamma


def _projection_draws(m, r, count=120):
    """(cone, u_nom) of m >= 2 filter steps, seeded by (m, r).

    Every third Sigma is ill-conditioned, and every second u_nom lies deep on
    the wrong side (c u + d << 0); those inside the opposite nappe
    (|A u + b| <= -(c u + d)) have their root beyond the pole.
    """
    rng = np.random.default_rng(100 + 10 * m + r)
    for i in range(count):
        cert, mu, sigma, beta, gamma = _random_filter_inputs(rng, r, m)
        if i % 3 == 0:  # ill-conditioned Sigma: eigenvalues from 1e-8 to 10
            Q, _ = np.linalg.qr(rng.normal(size=(r + m, r + m)))
            sigma = (Q * 10.0 ** rng.uniform(-8.0, 1.0, size=r + m)) @ Q.T
            sigma = 0.5 * (sigma + sigma.T)
        cone = assemble_safety_cone(cert, mu, sigma, beta, gamma)
        c = np.array(cone.c)
        u_nom = 3.0 * rng.normal(size=m)
        if i % 2:
            u_nom -= (float(c @ u_nom) + cone.d + 30.0 * (1.0 + abs(cone.d))) / float(c @ c) * c
        yield cone, u_nom


def _cone_and_u_nom(A, b, c, d, u_nom):
    return SafetyConeData(A=np.array(A), b=np.array(b), c=np.array(c), d=d), np.array(u_nom)


# |(u1 + 0.2, u2 - 0.3, 1)| <= 2 u1 + 0.5 u2 + 1: S3 = [[-3, -1], [-1, 0.75]] has the
# eigenvalues -3.25 and 1, so the secular function's pole lies at t = 1 / lam = 3.25.
# u = (1, y) with 0.75 y^2 - 3.6 y - 6.47 = 0 lies on the boundary of its nappe.
_POLE_CONE = ([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]], [0.2, -0.3, 1.0], [2.0, 0.5], 1.0)
_ON_NAPPE = [1.0, (3.6 - math.sqrt(3.6**2 + 3.0 * 6.47)) / 1.5]


def _projecting_onto(u, t):
    """The pole cone and a u_nom that projects onto u, a point of its nappe's boundary, at lam = 1 / t.

    u - u_nom = -lam (S3 u + g) with lam >= 0 is the projection's KKT condition at u.
    """
    A, b, c, d = _POLE_CONE
    cone = SafetyConeData(A=np.array(A), b=np.array(b), c=np.array(c), d=d)
    g = np.array(A).T @ b - d * np.array(c)
    return cone, np.array(u) + (np.array(cone.S3) @ u + g) / t


class TestGeneralProjection:
    """The secular-equation path of :func:`solve` (m >= 2) and degenerate cones."""

    @pytest.mark.parametrize("r", [2, 3, 4])
    @pytest.mark.parametrize("m", [2, 3])
    def test_kkt_certificate(self, m, r):
        # u - u_nom = nu * grad(margin) with nu >= 0 at a feasible u certifies
        # the projection onto the convex cone.
        checked = beyond_pole = 0
        for cone, u_nom in _projection_draws(m, r):
            A, b, c = (np.array(v) for v in (cone.A, cone.b, cone.c))
            opposite = np.linalg.norm(A @ u_nom + b) <= -(float(c @ u_nom) + cone.d)
            out = solve(u_nom, cone, tol=1e-9)
            if out.status != STATUS_OPTIMAL or out.analytic:
                continue
            res = A @ out.u + b
            s = float(np.linalg.norm(res))
            assert out.cone_margin >= -1e-9 * max(1.0, s)
            grad = c - A.T @ res / s
            step = np.subtract(out.u, u_nom)
            nu = float(step @ grad) / float(grad @ grad)
            assert nu >= 0.0
            np.testing.assert_allclose(step, nu * grad, atol=1e-8 * max(1.0, np.linalg.norm(step)))
            checked += 1
            beyond_pole += bool(opposite)
        assert checked >= 30 and beyond_pole >= 5

    @pytest.mark.parametrize("r", [2, 3, 4])
    @pytest.mark.parametrize("m", [2, 3])
    def test_agrees_with_a_50_digit_reference(self, m, r):
        # The first 36 of test_kkt_certificate's draws against a log-barrier
        # reference that shares no code with the secular route: an optimal u
        # is the reference's projection, an infeasible claim is confirmed by
        # the largest margin, and u_nom already in the cone is in it.
        paths = {"analytic": 0, "projected": 0, "infeasible": 0}
        for cone, u_nom in _projection_draws(m, r, count=36):
            out = solve(u_nom, cone, tol=1e-9)
            ref = ConeReference(cone.A, cone.b, cone.c, cone.d)
            largest, inside = ref.max_margin()
            if out.status != STATUS_OPTIMAL:
                assert largest <= 1e-9 * max(1.0, ref.margin(inside)[1])
                paths["infeasible"] += 1
            elif out.analytic:
                margin, norm = ref.margin(u_nom)
                assert margin >= -1e-12 * max(1.0, norm)
                paths["analytic"] += 1
            else:
                assert largest > 0.0
                u = ref.project(u_nom, inside)
                distance = float(sum((a - b) ** 2 for a, b in zip(u, u_nom)) ** 0.5)
                error = max(abs(float(a) - b) for a, b in zip(u, out.u))
                assert error <= 1e-10 * max(1.0, distance)
                paths["projected"] += 1
        assert paths["projected"] >= 20 and min(paths.values()) >= 1, paths

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
            # One row for three inputs: K is the wedge between two planes, and
            # u_nom projects onto its edge A u + b = 0 = c u + d, where Q has no
            # gradient and lam is infinite.  On the far side phi rises to a
            # maximum of 0 as t = 1 / lam falls to 0, so rounding makes a root
            # there (lam near 1e7), 1e-8 off the edge; the least-squares
            # critical point, the edge point itself, is the nearer candidate.
            (
                [[0.33950947157970146, -1.2853813931526517, 2.3691638529901975]],
                [-0.028263162188416974],
                [2.416912669832169, -0.8674214463025013, -0.5678464805360192],
                2.5996614902670028,
                [-5.374969896278695, 2.0935291034593964, -1.6910263723903098],
                5.113659820421114,
            ),
            # H's middle eigenvalue is zero up to rounding, and so is the
            # gradient of Q along it.  The near side's root lies on the wrong
            # nappe, c u + d < 0, so the projection is the far side's root, on
            # its rising branch.
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
        assert np.linalg.norm(np.subtract(out.u, u_nom)) == pytest.approx(distance, rel=1e-7)

    @pytest.mark.parametrize(
        "cone, u_nom",
        [
            pytest.param(*_cone_and_u_nom([[2.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [0.3, -0.2, 0.1],
                                          [1.0, 0.5], 3.0, [-3.0, 2.0]), id="S3_positive_definite"),
            pytest.param(*_projecting_onto(_ON_NAPPE, 3.25 * (1.0 + 1e-12)), id="root_1e-12_before_pole"),
            pytest.param(*_projecting_onto(_ON_NAPPE, 3.25 * (1.0 - 1e-12)), id="root_1e-12_beyond_pole"),
            pytest.param(*_cone_and_u_nom([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.0], [1.0, 0.0], 1.0,
                                          [-3.0, 2.0]), id="zero_eigenvalue_with_gradient"),
            pytest.param(*_projecting_onto(_ON_NAPPE, 3.25 * 0.4), id="near_root_on_wrong_nappe"),
        ],
    )  # fmt: skip
    def test_cones_at_the_search_edges_agree_with_the_reference(self, cone, u_nom):
        out = solve(u_nom, cone, tol=1e-9)
        assert out.status == STATUS_OPTIMAL and not out.analytic
        ref = ConeReference(cone.A, cone.b, cone.c, cone.d)
        u = ref.project(u_nom, ref.max_margin()[1])
        distance = float(sum((a - b) ** 2 for a, b in zip(u, u_nom)) ** 0.5)
        assert max(abs(float(a) - b) for a, b in zip(u, out.u)) <= 1e-10 * max(1.0, distance)

    @pytest.mark.parametrize(
        "t", [3.25 * (1.0 + 1e-12), 3.25 * (1.0 - 1e-12)], ids=["before_pole", "beyond_pole"]
    )
    def test_root_next_to_the_pole_takes_few_probes(self, monkeypatch, t):
        # Newton in w = 1 / (t + h_0)^2 follows phi's double pole, so a root
        # 1e-12 from the pole takes a few dozen probes on either side.
        probes, switch = [], socp_mod._switch

        def counted(*args):
            result = switch(*args)
            probes.append(result[1])
            return result

        monkeypatch.setattr(socp_mod, "_switch", counted)
        cone, u_nom = _projecting_onto(_ON_NAPPE, t)
        assert solve(u_nom, cone, tol=1e-9).status == STATUS_OPTIMAL
        assert len(probes) == 2 and max(probes) <= 40

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
            if out.sufficient_certified:
                assert out.status == STATUS_OPTIMAL
                certified_feasible += 1
        assert certified_infeasible >= 20 and certified_feasible >= 20

    def test_sufficient_eig_is_top_eigenvalue_of_cone_S3(self):
        # The certificate reads the S3 of the quadric the projection solves.
        # A projecting step with two or more inputs takes it from the eigh
        # that its secular candidates run, so S3 is decomposed once; every
        # other step from eigvalsh.  The two agree up to rounding at m = 3.
        rng = np.random.default_rng(17)
        decomposed_steps = 0
        for i in range(180):
            r, m = 2 + i % 3, 1 + (i // 3) % 3
            cert, mu, sigma, beta, gamma = _random_filter_inputs(rng, r, m, beta_range=(0.2, 4.0))
            cone = assemble_safety_cone(cert, mu, sigma, beta, gamma)
            out = safety_filter_step(3.0 * rng.normal(size=m), cert, mu, sigma, beta, gamma)
            decomposed = m >= 2 and not out.analytic
            decomposed_steps += decomposed
            top = (np.linalg.eigh(cone.S3)[0] if decomposed else np.linalg.eigvalsh(cone.S3))[-1]
            top = float(top)
            assert repr(out.sufficient_eig) == repr(top)
            assert out.sufficient_certified == (top < -1e-10)
        assert decomposed_steps >= 20

    def test_step_decomposes_S3_once_at_two_or_more_inputs(self, monkeypatch):
        calls = []
        for name in ("eigh", "eigvalsh"):
            original = getattr(np.linalg, name)

            def counted(a, *args, _original=original, _name=name):
                calls.append(_name)
                return _original(a, *args)

            monkeypatch.setattr(np.linalg, name, counted)
        rng = np.random.default_rng(18)
        projecting = 0
        for i in range(60):
            m = 2 + i % 2
            cert, mu, sigma, beta, gamma = _random_filter_inputs(rng, 2, m, beta_range=(0.2, 4.0))
            calls.clear()
            out = safety_filter_step(3.0 * rng.normal(size=m), cert, mu, sigma, beta, gamma)
            assert calls == (["eigvalsh"] if out.analytic else ["eigh"])
            projecting += not out.analytic
        assert projecting >= 10

    def test_necessary_value_from_factor_matches_dense_solve(self):
        # r + m from 2 to 6, Sigma scaled by 1e-4 to 1e4
        rng = np.random.default_rng(16)
        for i in range(200):
            r, m, scale = 1 + i % 4, 1 + i % 2, 10.0 ** rng.uniform(-4, 4)
            cert, mu, sigma, beta, gamma = _random_filter_inputs(rng, r, m, scale, (0.2, 4.0))
            out = safety_filter_step(np.zeros(m), cert, mu, sigma, beta, gamma)
            dense = necessary_value_dense(effective_phi(cert, mu), sigma, beta)
            value = out.necessary_value
            assert value == pytest.approx(dense, rel=1e-12)
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
                assert out.necessary_value == pytest.approx(dense, rel=1e-10)
                S = np.array(build_S(phi, sigma, beta))
                top = feasibility_sufficient(S[gamma.size :, gamma.size :])
                assert out.sufficient_certified == (top < -1e-10)

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
            scale = max(1.0, float(np.linalg.norm(np.array(cone.A) @ out.u + cone.b)))
            assert out.cone_margin == cone_margin(cone, out.u)
            assert out.cone_margin >= -1e-8 * scale


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
            A = np.array(cone.A)
            S1 = bLr.T @ bLr - np.outer(zf, zf)
            S2 = bLr.T @ A - np.outer(zf, c)
            S3 = A.T @ A - np.outer(c, c)
            blockwise = np.block([[S1, S2], [S2.T, S3]])
            S = np.array(build_S(phi, sigma, beta))
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
                    build_S(phi[r:], sigma[r:, r:], beta), np.array(build_S(phi, sigma, beta))[r:, r:]
                )

    def test_symmetry(self):
        rng = np.random.default_rng(8)
        cert, mu, sigma, beta, gamma = self._random_inputs(rng, r=3, m=2)
        S = np.array(build_S(effective_phi(cert, mu), sigma, beta))
        assert np.array_equal(S, S.T)

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("strided", [False, True])
    def test_hand_written_cone_S3_is_exactly_symmetric(self, m, strided):
        # A^T A is one symmetric product for a contiguous A and a strided view
        rng = np.random.default_rng(40 + m)
        for rows in range(1, 6):
            for _ in range(50):
                full = rng.normal(size=(rows, 2 * m)) * 10.0 ** rng.uniform(-3, 3, size=(rows, 2 * m))
                A = full[:, ::2] if strided else np.ascontiguousarray(full[:, :m])
                assert A.flags.c_contiguous is not strided
                S3 = np.array(SafetyConeData(A=A, b=rng.normal(size=rows), c=rng.normal(size=m), d=1.0).S3)
                assert np.array_equal(S3, S3.T)


class TestFeasibilitySufficient:
    def test_scalar_certified(self):
        # the eigenvalue is the entry itself, and the step's record applies the threshold
        eig = feasibility_sufficient(np.array([[0.25 - 1.0]]))
        assert eig == -0.75
        assert FilterOutcome(np.zeros(1), STATUS_OPTIMAL, sufficient_eig=eig).sufficient_certified

    def test_scalar_equals_eigvalsh_bitwise(self):
        rng = np.random.default_rng(10)
        values = rng.choice([-1.0, 1.0], size=2000) * 10.0 ** rng.uniform(-300, 300, size=2000)
        for s in np.concatenate((values, [0.0, -0.0, -1e-10, 1e-10])):
            S3 = np.array([[s]])
            expected = float(np.linalg.eigvalsh(0.5 * (S3 + S3.T))[-1])
            assert repr(feasibility_sufficient(S3)) == repr(expected)  # the sign of zero too

    def test_zero_actuation_not_certified(self):
        A = np.array([[0.5], [0.2]])
        S3 = A.T @ A  # c = 0
        assert feasibility_sufficient(S3) >= 0.0

    def test_matches_characteristic_polynomial_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            M = rng.normal(size=(3, 3))
            S3 = 0.5 * (M + M.T)
            roots = np.roots(np.poly(S3))
            assert feasibility_sufficient(S3) == pytest.approx(float(np.max(roots.real)), abs=1e-8)


class TestPointwiseConditions:
    def test_zero_inputs(self):
        S = np.zeros((3, 3))
        phi = np.zeros(3)
        affine, quad = pointwise_conditions(np.zeros(2), np.zeros(1), S, phi)
        assert affine == 0.0 and quad == 0.0

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
            S = np.array(build_S(phi, sigma, beta))
            S3 = S[r:, r:]
            if not feasibility_sufficient(S3) < -1e-10:
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
            dists = [float(np.linalg.norm(np.subtract(o.u, u_nom))) for o in outs]
            assert dists[1] >= dists[0] - 1e-7
            checked += 1

    @pytest.mark.parametrize("m", [1, 2])
    def test_non_finite_cone_is_an_infeasible_step(self, m, capfd):
        # A NaN posterior mean on an input assembles no cone: the step is
        # infeasible and keeps u_nom, and nothing reaches stdout or stderr
        # (no LAPACK message).  TestStepContract checks the rest of the
        # record for any mean that is not finite.
        cert = _cert([1.0, 2.0], [-1.0, 0.5][:m], 0.5)
        mu = np.zeros(2 + m)
        mu[2] = np.nan
        u_nom = np.array([5.0, 1.0][:m])
        out = safety_filter_step(u_nom, cert, mu, 0.1 * np.eye(2 + m), 2.0, np.array([3.0, 1.0]))
        assert out.status == STATUS_INFEASIBLE
        assert list(out.u) == u_nom.tolist()
        assert capfd.readouterr() == ("", "")

    @pytest.mark.parametrize("m", [1, 2])
    def test_sigma_with_infinite_diagonal_is_a_flagged_step(self, m):
        cert = _cert([1.0, 2.0], [-1.0, 0.5][:m], 0.5)
        mu = np.array([0.1, 0.0, 0.2, 0.0][: 2 + m])
        sigma = np.eye(2 + m)
        sigma[2, 2] = np.inf
        gamma = np.array([3.0, 1.0])
        u_nom = np.array([-5.0, 1.0][:m])
        out = safety_filter_step(u_nom, cert, mu, sigma, 2.0, gamma)
        assert out.status == STATUS_FACTORIZATION_FAILED
        c, d = cert.zg + mu[2:], float((cert.zf + mu[:2]) @ gamma) + cert.const
        assert np.array_equal(out.u, halfspace_qp_filter(u_nom, c, d))

    def test_fallback_keeps_u_nom_when_the_mean_halfspace_is_not_finite(self):
        # Sigma does not factor and the certificate's input row is infinite:
        # the mean-only half-space is not finite, so u_nom is kept.
        cert = _cert([1.0, 2.0], [np.inf, 1.0], 0.5)
        sigma = np.eye(4)
        sigma[0, 0] = np.nan
        u_nom = np.array([0.0, -3.0])
        out = safety_filter_step(u_nom, cert, np.zeros(4), sigma, 2.0, np.array([3.0, 1.0]))
        assert out.status == STATUS_FACTORIZATION_FAILED
        assert list(out.u) == u_nom.tolist()

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
        assert out.sigma == float(np.sqrt(max(y @ sigma @ y, 0.0)))

    @pytest.mark.parametrize("where", [(0, 0), (2, 2), (2, 0)])
    def test_sigma_holding_nan_is_a_flagged_mean_halfspace_step(self, where):
        # a NaN on the diagonal or in the lower triangle that dpotrf reads
        cert = _cert([0.2, -0.1], [1.0], 0.5)
        mu = np.array([0.1, 0.0, 0.2])
        gamma = np.array([2.0, 1.0])
        sigma = np.eye(3)
        sigma[where] = np.nan
        u_nom = np.array([-5.0])
        with pytest.raises(FactorizationError):
            assemble_safety_cone(cert, mu, sigma, 2.0, gamma)
        out = safety_filter_step(u_nom, cert, mu, sigma, 2.0, gamma)
        assert out.status == STATUS_FACTORIZATION_FAILED
        assert out.iterations == 0
        c, d = cert.zg + mu[2:], float((cert.zf + mu[:2]) @ gamma) + cert.const
        assert np.array_equal(out.u, halfspace_qp_filter(u_nom, c, d))
        assert not np.array_equal(out.u, u_nom)
        for key in ("cone_margin", "necessary_value", "sufficient_eig"):
            assert np.isnan(getattr(out, key))
        assert out.sufficient_certified is False

    def test_sigma_holding_nan_above_the_diagonal_is_read_by_its_lower_triangle(self):
        # dpotrf and the logged posterior std read the lower triangle only
        args = (np.array([-5.0]), _cert([0.2, -0.1], [1.0], 0.5), np.array([0.1, 0.0, 0.2]))
        sigma = np.eye(3)
        sigma[0, 2] = np.nan
        out, clean = (safety_filter_step(*args, s, 2.0, np.array([2.0, 1.0])) for s in (sigma, np.eye(3)))
        assert out.status == clean.status and np.array(out.u).tobytes() == np.array(clean.u).tobytes()
        assert out.sigma == clean.sigma

    @pytest.mark.parametrize(
        "sigma, zg, mu, beta, status",
        [
            (np.zeros((2, 2)), 0.0, [-1.0, 6.816585878920056e-155], 0.0, STATUS_INFEASIBLE),
            (np.array([[np.nan, 0.0], [0.0, 0.0]]), 1e-160, [-1.0, 0.0], 2.0, STATUS_FACTORIZATION_FAILED),
        ],
    )
    def test_fallback_keeps_u_nom_when_the_mean_halfspace_point_overflows(
        self, sigma, zg, mu, beta, status
    ):
        # c is so small that the half-space point c u + d = 0 is not a float
        cert = _cert([0.0], [zg], 0.0)
        out = safety_filter_step(np.zeros(1), cert, np.array(mu), sigma, beta, np.ones(1))
        assert out.status == status
        assert out.u == (0.0,)

    def test_feasibility_suite_skips_states_whose_sigma_does_not_factor(self, monkeypatch):
        calls = []

        def every_other_nan(model, x):
            mu, sigma = posterior_coefficients(model, x)
            calls.append(None)
            if len(calls) % 2:
                sigma = sigma.copy()
                sigma[0, 0] = np.nan
            return mu, sigma

        monkeypatch.setattr(validate_mod, "posterior_coefficients", every_other_nan)
        report = validate_mod.feasibility_suite(seed=3, n_states=8)
        assert len(calls) == 8
        assert report["states_checked"] == 4
        assert sum(report["statuses"].values()) == 4
        assert report["passed"]


class TestTracedSeams:
    """The layers the benchmark traces by rebinding ``gpcbf.socp``'s globals."""

    SEAMS = ("assemble_safety_cone", "matrix_sqrt_factor", "build_S", "solve")

    def _counted(self, monkeypatch):
        calls = dict.fromkeys(self.SEAMS, 0)
        for name in self.SEAMS:
            original = getattr(socp_mod, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(socp_mod, name, counted)
        return calls

    def _step(self, u_nom, sigma):
        cert, mu = _cert([0.2, -0.1], [1.0], 0.5), np.array([0.1, 0.0, 0.2])
        return safety_filter_step(np.array([u_nom]), cert, mu, sigma, 2.0, np.array([2.0, 1.0]))

    @pytest.mark.parametrize("u_nom, analytic", [(5.0, True), (-5.0, False)])
    def test_cone_step_calls_each_seam_once(self, monkeypatch, u_nom, analytic):
        calls = self._counted(monkeypatch)
        out = self._step(u_nom, 0.1 * np.eye(3))
        assert out.status == STATUS_OPTIMAL and out.analytic is analytic
        assert calls == dict.fromkeys(self.SEAMS, 1)

    def test_factorization_failed_step_calls_no_solve(self, monkeypatch):
        calls = self._counted(monkeypatch)
        sigma = np.eye(3)
        sigma[0, 0] = np.nan
        assert self._step(-5.0, sigma).status == STATUS_FACTORIZATION_FAILED
        assert calls == {"assemble_safety_cone": 1, "matrix_sqrt_factor": 1, "build_S": 0, "solve": 0}


_SLACK = 4e-8  # four times the step's tolerance; see OneInputCone.intervals


def _one_input_draw(rng, i):
    """Filter inputs for one input over scales, ties, zeros and a NaN in Sigma."""
    r = 1 + i % 4
    M = rng.normal(size=(r + 1, r + 1))
    sigma = 10.0 ** rng.uniform(-6, 8) * (M @ M.T) + 10.0 ** rng.uniform(-12, 0) * np.eye(r + 1)
    if i % 7 == 0:
        sigma = np.round(sigma, 1)
    if i % 53 == 0:  # one entry: above the diagonal, dpotrf does not read it
        sigma[rng.integers(r + 1), rng.integers(r + 1)] = np.nan
    zg = np.zeros(1) if i % 11 == 0 else rng.normal(size=1) * 10.0 ** rng.uniform(-3, 1)
    zf = rng.normal(size=r) * 10.0 ** rng.uniform(-3, 3)
    cert = _cert(zf, zg, rng.normal() * 10.0 ** rng.uniform(-3, 3))
    mu = rng.normal(size=r + 1) * 10.0 ** rng.uniform(-4, 2)
    beta = float(rng.choice([0.0, 1.0, 2.0, rng.uniform(0.01, 10.0)]))
    gamma = np.append(rng.uniform(0.1, 50.0, size=r - 1), 1.0)
    u_nom = np.zeros(1) if i % 13 == 0 else rng.normal(size=1) * 10.0 ** rng.uniform(-3, 8)
    return u_nom, cert, mu, sigma, beta, gamma


def _check_projection(cone, u_nom, out):
    """A projection's status, u and analytic flag against the reference; True near the boundary.

    The loosened cone empty means ``infeasible``; an optimal u lies in it.
    The tightened cone non-empty means ``optimal``, with u no farther from
    u_nom than its nearest point, unless the step's floats cannot reach that
    point.  Else the cone lies within tolerance of the boundary.
    """
    loose, tight = (cone.project(u_nom, e) for e in (-_SLACK, _SLACK))
    u = float(out.u[0])
    assert loose is not None or out.status == STATUS_INFEASIBLE
    assert out.status != STATUS_OPTIMAL or cone.project(u, -_SLACK) == u
    assert not out.analytic or (out.status == STATUS_OPTIMAL and u == u_nom)
    if tight is None or _out_of_range(cone, u_nom, tight):
        return loose is not None
    assert out.status == STATUS_OPTIMAL and abs(u - u_nom) <= abs(tight - u_nom)
    assert out.analytic or tight != u_nom
    return False


def _out_of_range(cone, u_nom, point):
    """True when the step's floats cannot reach point, the nearest point of a cone.

    That is so when a square the step forms (c^2, d^2, |A|^2 or |b|^2) is
    subnormal, or when (point - u_nom) / c overflows, as it does within the
    half-space point u_nom - ((c u_nom + d) / c^2) c: the step refuses the
    point 1.5e154 on c = 6.8e-155, as ``test_barrier`` pins.
    """
    squares = (cone.c * cone.c, cone.d * cone.d, cone.b2 * cone.v[0], cone.b2 * cone.v[2])
    too_far = abs(point - u_nom) > sys.float_info.max * abs(cone.c)
    return too_far or any(0 < x < sys.float_info.min for x in squares)


def _check_step(out, u_nom, cert, mu, sigma, beta, gamma):
    """Every field of a one-input step's record against the reference; True near the boundary."""
    assert type(out.u) is tuple and list(map(type, out.u)) == [float]
    u_nom, u = float(u_nom[0]), out.u[0]
    lower = np.tril(sigma) + np.tril(sigma, -1).T  # the Sigma that dpotrf reads
    finite = np.isfinite(lower).all()
    cone = OneInputCone.from_step(cert, mu, lower if finite else np.zeros_like(sigma), beta, gamma)
    var, size = cone.variance(u)
    if finite:  # y^T Sigma y may overflow to inf
        assert out.sigma**2 == var or abs(out.sigma**2 - max(var, 0.0)) <= 1e-12 * size
    else:  # the logged std reads the lower triangle, as dpotrf does
        assert math.isnan(out.sigma)
    eig = np.linalg.eigvalsh(lower) if finite else [math.nan]
    if out.status == STATUS_FACTORIZATION_FAILED:  # only a Sigma not safely positive definite
        assert beta > 0.0 and not eig[0] > 1e-12 * eig[-1]
        for key in ("cone_margin", "necessary_value", "sufficient_eig"):
            assert math.isnan(getattr(out, key))
    else:
        assert finite or beta == 0.0
        top = cone.b2 * cone.v[0] - cone.c * cone.c  # beta^2 Sigma_mm - c^2
        assert abs(out.sufficient_eig - top) <= 1e-12 * (cone.b2 * cone.v_size[0] + cone.c**2)
        if beta == 0.0:
            assert out.necessary_value == -math.inf
        elif eig[0] > 1e-9 * eig[-1]:  # else the two solves share few digits
            dense = necessary_value_dense(effective_phi(cert, mu), lower, beta)
            assert abs(out.necessary_value - dense) <= 1e-13 * eig[-1] / eig[0] * (2 + abs(dense))
    if out.status != STATUS_OPTIMAL:  # the mean-only half-space point, or u_nom without one
        mean = OneInputCone.from_step(cert, mu, np.zeros_like(sigma), 0.0, gamma)
        loose, tight = (mean.project(u_nom, e) for e in (-_SLACK, _SLACK))
        assert loose is not None or u == u_nom
        if tight is not None and not _out_of_range(mean, u_nom, tight):
            assert min(loose, tight) <= u <= max(loose, tight)
    return out.status != STATUS_FACTORIZATION_FAILED and _check_projection(cone, u_nom, out)


def _floats(draw, size, entries):
    return np.array(draw(st.lists(entries, min_size=size, max_size=size)))


class TestOneInputReference:
    """The m = 1 filter step against the closed-form reference in the oracles."""

    def test_every_kind_of_step(self, monkeypatch):
        critical = []
        nearest_critical = socp_mod._nearest_critical
        monkeypatch.setattr(
            socp_mod, "_nearest_critical", lambda *a: critical.append(1) or nearest_critical(*a)
        )
        rng = np.random.default_rng(21)
        steps, near = [], 0
        for i in range(3000):
            args = _one_input_draw(rng, i)
            out = safety_filter_step(*args)
            near += _check_step(out, *args)
            steps.append((out.status, out.analytic, out.iterations > 0, args[4] > 0.0))

        def count(*want):  # status, analytic, polished, beta > 0; None matches either
            return sum(all(w is None or w == v for w, v in zip(want, step)) for step in steps)

        assert count(STATUS_OPTIMAL, True) >= 300 and count(STATUS_INFEASIBLE, None, None, True) >= 300
        assert count(STATUS_OPTIMAL, False, False, True) >= 200
        assert count(STATUS_OPTIMAL, False, True, True) >= 100
        assert count(STATUS_OPTIMAL, False, None, False) >= 100
        assert count(STATUS_FACTORIZATION_FAILED) >= 100 and near <= 30
        # A cone with beta > 0 has no apex and an interior, so the nearest root answers every
        # feasible projecting step, and the critical point is tried on the empty cones only.
        assert len(critical) == count(STATUS_INFEASIBLE, None, None, True)

    def test_drawn_steps(self):
        near = []

        @settings(max_examples=300, deadline=None)
        @given(st.integers(1, 4), st.data())
        def check(r, data):
            floats = lambda size: _floats(data.draw, size, st.floats(-100.0, 100.0))
            M = floats((r + 1) ** 2).reshape(r + 1, r + 1)
            sigma = M @ M.T + data.draw(st.sampled_from([0.0, 1e-12, 1e-3, 1.0])) * np.eye(r + 1)
            if data.draw(st.booleans()) and data.draw(st.booleans()):
                i, j = data.draw(st.integers(0, r)), data.draw(st.integers(0, r))
                sigma[i, j] = sigma[j, i] = np.nan
            cert = _cert(floats(r), floats(1), floats(1)[0])
            beta = data.draw(st.sampled_from([0.0, 0.5, 2.0, 7.5]))
            gamma = np.append(_floats(data.draw, r - 1, st.floats(0.1, 50.0)), 1.0)
            args = (floats(1), cert, floats(r + 1), sigma, beta, gamma)
            near.append(_check_step(safety_filter_step(*args), *args))

        check()  # near-boundary cases, whose status and u go unchecked, are about 5%
        assert sum(near) <= len(near) // 10

    def test_hand_written_cones(self):
        near = []

        @settings(max_examples=300, deadline=None)
        @given(st.integers(1, 4), st.booleans(), st.data())
        def check(rows, strided, data):
            # any row count, and A as a strided view, as a hand-written cone may be
            entries = st.floats(-10.0, 10.0)
            A, b, (c, d, u_nom) = (_floats(data.draw, n, entries) for n in (2 * rows, rows, 3))
            A = A.reshape(rows, 2)[:, :1] if strided else A[:rows].reshape(rows, 1)
            out = solve(np.array([u_nom]), SafetyConeData(A=A, b=b, c=np.array([c]), d=d))
            near.append(_check_projection(OneInputCone.from_rows(A, b, c, d), u_nom, out))

        check()  # zeros and ties put about a fifth of the cones near the boundary
        assert sum(near) <= 2 * len(near) // 5

    @pytest.mark.parametrize(
        "A, b, c, d, u_nom, expected",
        [
            # |u| <= 0 is the single point 0, all boundary, which the step reaches as -0.0
            ([[-1.0]], [0.0], [0.0], 0.0, 1.0, 0.0),
            ([[-1.0]], [-0.0], [-0.0], 0.0, 1.0, 0.0),
            # A = 0 with b != 0 is no half-space c u + d >= 0 but c u + d >= |b|
            ([[0.0], [0.0]], [1.0, 0.0], [1.0], 0.0, -3.0, 1.0),
            ([[0.0], [0.0]], [0.0, -2.0], [-2.0], 1.0, 5.0, -0.5),
        ],
    )
    def test_edge_cones(self, A, b, c, d, u_nom, expected):
        cone = OneInputCone.from_rows(A, b, c, d)
        out = solve(np.array([u_nom]), SafetyConeData(np.array(A), np.array(b), np.array(c), d))
        assert cone.project(u_nom) == expected and out.u == (expected,)
        assert _check_projection(cone, u_nom, out) is (expected == 0.0)

    @pytest.mark.parametrize(
        "sigma, zf, zg, mu, beta",
        [
            # a half-space step with a tiny c: y^T Sigma y overflows, sigma logs inf
            (np.diag([0.0, 37.0**2]), [0.0], 5.493957006876899e-153, [-2.0, 0.0], 0.0),
            # a tinier c with Sigma = 0: the half-space point overflows, so u is u_nom
            (np.zeros((2, 2)), [0.0], 0.0, [-1.0, 6.816585878920056e-155], 0.0),
            # a Sigma holding NaN does not factor; the mean half-space point overflows, so u is u_nom
            (np.array([[np.nan, 0.0], [0.0, 0.0]]), [0.0], 1e-160, [-1.0, 0.0], 2.0),
            # a last pivot near 1e-155: phi Sigma^-1 phi^T overflows, the necessary value is -inf
            (np.diag([1.0, 1.0, 1.0, 9.444759738299146e-156**2]), [0.0, 0.0, 0.0], 1.0, [0.0] * 4, 0.5),
        ],
    )
    def test_overflowing_steps(self, sigma, zf, zg, mu, beta):
        # Steps whose intermediate values overflow: the step must not warn,
        # and every field of its record must agree with the reference.
        args = _pinned(sigma, zf, zg, mu, beta)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = safety_filter_step(*args)
        _check_step(out, *args)


def _recomputed_margin(u, cert, mu, sigma, beta, gamma):
    """(zeta_r + mu . y - beta s, beta s) at y = [gamma; u], s^2 = y^T Sigma y, with no factor.

    zeta_r = zf . gamma + const + zg . u; each sum is one math.fsum, and a
    sum that meets inf - inf or overflows makes both NaN.  beta = 0 drops s,
    as the step does.
    """
    y = gamma.tolist() + list(u)
    rows = cert.zf.tolist() + cert.zg.tolist() + mu.tolist()
    try:
        mean = math.fsum([a * b for a, b in zip(rows, y + y)] + [cert.const])
        S = sigma.tolist()
        var = math.fsum(a * s * b for a, row in zip(y, S) for s, b in zip(row, y)) if beta else 0.0
    except (OverflowError, ValueError):
        return math.nan, math.nan
    spread = beta * math.sqrt(max(var, 0.0)) if beta else 0.0
    return mean - spread, spread


_NASTY = st.one_of(st.floats(-1e300, 1e300), st.sampled_from([0.0, math.inf, -math.inf, math.nan]))
_MODERATE = st.floats(-3.0, 3.0)


@st.composite
def _step_inputs(draw):
    """Filter-step inputs for m = 1, 2 or 3.

    About half are finite and moderate, with a positive definite Sigma and
    gamma > 0, so that projecting and fallback steps come up; the others
    have entries that include inf, NaN, 0 and 1e300.
    """
    r, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    if draw(st.booleans()):
        M = _floats(draw, (r + m) ** 2, st.floats(-1.0, 1.0)).reshape(r + m, r + m)
        sigma = M @ M.T + 0.01 * np.eye(r + m)
        cert = _cert(_floats(draw, r, _MODERATE), _floats(draw, m, _MODERATE), draw(_MODERATE))
        u_nom, mu = _floats(draw, m, _MODERATE), _floats(draw, r + m, _MODERATE)
        beta, gamma = draw(st.floats(0.0, 3.0)), _floats(draw, r, st.floats(0.1, 10.0))
        return u_nom, cert, mu, sigma, beta, gamma
    M = _floats(draw, (r + m) ** 2, _NASTY).reshape(r + m, r + m)
    with np.errstate(all="ignore"):
        sigma = M @ M.T if draw(st.booleans()) else M + M.T
    cert = _cert(_floats(draw, r, _NASTY), _floats(draw, m, _NASTY), draw(_NASTY))
    u_nom, mu = _floats(draw, m, st.floats(-1e300, 1e300)), _floats(draw, r + m, _NASTY)
    return u_nom, cert, mu, sigma, abs(draw(_NASTY)), _floats(draw, r, _NASTY)


def _pinned(sigma, zf, zg, mu, beta, const=0.0):
    """Step inputs with u_nom = 0 and gamma = 1."""
    cert = _cert(zf, zg, const)
    return np.zeros(np.size(zg)), cert, np.array(mu), np.array(sigma), beta, np.ones(len(zf))


# Two inputs: 0 lies outside a cone with an interior, so the step projects,
# and a cone that is empty, whose mean half-space point (5, 5) the step applies.
_PROJECTING_M2 = _pinned(0.01 * np.eye(3), [-1.0], [1.0, 1.0], [0.0] * 3, 1.0)
_FALLBACK_M2 = _pinned(np.eye(3), [-1.0], [0.1, 0.1], [0.0] * 3, 2.0)


class TestStepContract:
    """Every filter step, on any input: no exception, no warning, a finite u, and
    ``optimal`` only where a recomputation without the factor confirms the cone."""

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(_step_inputs())
    # an infinite mean or constant, once optimal; S3 = -c c^T not finite, once a LinAlgError
    @example(_pinned(np.eye(2), [0.0], 1.0, [math.inf, 0.0], 2.0))
    @example(_pinned(np.zeros((2, 2)), [0.0], 0.0, [0.0, 0.0], 0.0, const=math.inf))
    @example(_pinned(np.zeros((4, 4)), [0.0], [0.0, 1.4e154, 0.0], [0.0] * 4, 0.0))
    # beta^2 leaves the float range: once ZeroDivisionError and OverflowError
    @example(_pinned(np.eye(2), [0.0], 0.0, [0.0, 0.0], 2.2250738585e-313))
    @example(_pinned(np.eye(2), [0.0], 1.0, [0.0, 0.0], 1e300))
    @example(_PROJECTING_M2)
    @example(_FALLBACK_M2)
    def test_never_raises_and_certifies_only_a_checked_u(self, args):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = safety_filter_step(*args)
        assert type(out.u) is tuple and list(map(type, out.u)) == [float] * len(args[0])
        assert np.isfinite(out.u).all()
        if not np.isfinite(args[2]).all():  # a mean that is not finite assembles no cone
            assert out.status == STATUS_INFEASIBLE and list(out.u) == args[0].tolist()
            assert (out.analytic, out.iterations) == (False, 0)
            for key in ("cone_margin", "necessary_value", "sufficient_eig"):
                assert math.isnan(getattr(out, key))
        if out.status == STATUS_OPTIMAL:
            margin, spread = _recomputed_margin(out.u, *args[1:])
            assert math.isfinite(margin) and margin >= -1e-8 * max(1.0, spread)

    def test_pinned_two_input_examples_reach_their_paths(self):
        out = safety_filter_step(*_PROJECTING_M2)
        assert out.status == STATUS_OPTIMAL and not out.analytic
        out = safety_filter_step(*_FALLBACK_M2)
        assert out.status == STATUS_INFEASIBLE and out.u == (5.0, 5.0)
