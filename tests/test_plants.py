import math

import numpy as np
import pytest
import scipy.linalg

from gpcbf.plants import (
    ACC_NOMINAL,
    ACC_TRUE,
    SUSPENSION_NOMINAL,
    SUSPENSION_TRUE,
    AccParams,
    SuspensionParams,
    clf_nominal_acc,
    lqr_gain,
    make_acc_plant,
    make_suspension_plant,
    rk4_step,
    road_profile,
    suspension_linear_matrices,
)

from _oracles import (
    acc_field_numpy,
    make_synthetic_plant,
    polynomial_field,
    riccati_ode_gain,
    rk4_numpy_hold,
    suspension_field_numpy,
    synthetic_field_numpy,
)


class TestParameterFidelity:
    def test_acc_values_pinned(self):
        assert ACC_NOMINAL == {"m": 825.0, "f0": 0.1, "f1": 5.0, "f2": 0.25, "v0": 16.0}
        assert ACC_TRUE == {"m": 3300.0, "f0": 0.2, "f1": 10.0, "f2": 0.5, "v0": 14.0}

    def test_suspension_values_pinned(self):
        assert SUSPENSION_NOMINAL == {"m1": 300.0, "m2": 60.0, "k1": 16e3, "k2": 190e3, "b": 1e3}
        assert SUSPENSION_TRUE == {"m1": 675.0, "m2": 135.0, "k1": 36e3, "k2": 427.5e3, "b": 2.25e3}

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            AccParams(m=0.0, f0=0.1, f1=5.0, f2=0.25, v0=16.0)
        with pytest.raises(ValueError):
            SuspensionParams(m1=300.0, m2=-60.0, k1=16e3, k2=190e3, b=1e3)


def acc_dynamics(x, u: float, params: dict) -> tuple:
    return make_acc_plant(params).field(x, [u], 0.0)


def suspension_dynamics(x, u: float, d: float, params: dict) -> tuple:
    """The plant field at road height d, held for all t."""
    return make_suspension_plant(params, road=lambda t: d).field(x, [u], 0.0)


class TestAccDynamics:
    def test_true_params_hand_value(self):
        xdot = acc_dynamics((20.0, 100.0), 0.0, ACC_TRUE)
        np.testing.assert_allclose(xdot, [-400.2 / 3300.0, -6.0])

    def test_force_balance(self):
        p = AccParams(**ACC_NOMINAL)
        v = 17.3
        u = p.rolling_resistance(v)
        xdot = acc_dynamics((v, 50.0), u, ACC_NOMINAL)
        assert xdot[0] == pytest.approx(0.0, abs=1e-14)

    def test_nominal_params_hand_value(self):
        xdot = acc_dynamics((16.0, 50.0), 0.0, ACC_NOMINAL)
        np.testing.assert_allclose(xdot, [-144.1 / 825.0, 0.0])


class TestSuspensionDynamics:
    def test_equilibrium(self):
        np.testing.assert_allclose(
            suspension_dynamics((0.0,) * 4, 0.0, 0.0, SUSPENSION_NOMINAL), np.zeros(4)
        )

    def test_displaced_body_hand_value(self):
        xdot = suspension_dynamics((0.01, 0.0, 0.0, 0.0), 0.0, 0.0, SUSPENSION_NOMINAL)
        np.testing.assert_allclose(xdot, [0.0, 0.0, -160.0 / 300.0, 160.0 / 60.0])

    def test_road_input_gain(self):
        xdot = suspension_dynamics((0.0,) * 4, 0.0, 0.01, SUSPENSION_NOMINAL)
        np.testing.assert_allclose(xdot, [0.0, 0.0, 0.0, 190e3 * 0.01 / 60.0])

    def test_superposition(self):
        p = SUSPENSION_TRUE
        rng = np.random.default_rng(0)
        for _ in range(30):
            x1, x2 = rng.normal(size=4), rng.normal(size=4)
            u1, u2 = rng.normal(), rng.normal()
            d1, d2 = rng.normal(), rng.normal()
            a, b = rng.normal(), rng.normal()
            lhs = suspension_dynamics(
                (a * x1 + b * x2).tolist(), a * u1 + b * u2, a * d1 + b * d2, p
            )
            rhs = a * np.asarray(suspension_dynamics(x1.tolist(), u1, d1, p)) + b * np.asarray(
                suspension_dynamics(x2.tolist(), u2, d2, p)
            )
            np.testing.assert_allclose(lhs, rhs, atol=1e-12 * max(1, np.abs(rhs).max()))

    def test_linear_matrices_match_dynamics(self):
        A, B = suspension_linear_matrices(SUSPENSION_NOMINAL)
        rng = np.random.default_rng(1)
        for _ in range(10):
            x = rng.normal(size=4)
            u = rng.normal()
            np.testing.assert_allclose(
                A @ x + B[:, 0] * u,
                suspension_dynamics(x.tolist(), u, 0.0, SUSPENSION_NOMINAL),
                atol=1e-12,
            )


class TestRk4:
    def test_zero_field(self):
        x = (1.0, -2.0)
        np.testing.assert_allclose(rk4_step(lambda x, u, t: (0.0, 0.0), x, (0.0,), 0.0, 0.1)[-1], x)

    def test_constant_field(self):
        x = rk4_step(lambda x, u, t: (1.0,), (0.0,), (0.0,), 0.0, 0.25)[-1]
        np.testing.assert_allclose(x, [0.25])

    def test_exponential_decay_accuracy(self):
        x = rk4_step(lambda x, u, t: (-x[0],), (1.0,), (0.0,), 0.0, 0.01)[-1]
        assert abs(x[0] - np.exp(-0.01)) <= 1e-10

    def test_fourth_order_convergence(self):
        def integrate(dt):
            x = (1.0,)
            t = 0.0
            while t < 1.0 - 1e-12:
                x = rk4_step(lambda x, u, t: (-x[0],), x, (0.0,), t, dt)[-1]
                t += dt
            return abs(x[0] - np.exp(-1.0))

        err_coarse = integrate(0.01)
        err_fine = integrate(0.005)
        assert 12.0 <= err_coarse / err_fine <= 20.0

    def test_divergence_ends_state_list(self):
        assert rk4_step(lambda x, u, t: (math.inf,), (1.0,), (0.0,), 0.0, 0.1) == []
        # finite until t passes 0.35: the list holds the three states before it
        field = lambda x, u, t: (math.inf if t > 0.35 else 1.0,)
        states = rk4_step(field, (0.0,), (0.0,), 0.0, 0.1, substeps=10)
        assert len(states) == 3
        assert all(math.isfinite(s[0]) for s in states)

    def test_hold_returns_float_tuples(self):
        field = make_acc_plant().field
        states = rk4_step(field, np.array([20.0, 100.0]), np.array([5.0]), 0.0, 1e-3, 10)
        assert len(states) == 10
        assert all(type(s) is tuple and len(s) == 2 for s in states)
        assert all(type(v) is float for s in states for v in s)

    @staticmethod
    def _assert_holds_match_numpy(plant_field, oracle_field, draw, t_range, rng):
        for _ in range(300):
            x, u = draw(rng)
            t = rng.uniform(*t_range)
            substeps = int(rng.integers(1, 21))
            dt = float(rng.choice([1e-3, 2.5e-4, 1.0 / 300.0]))
            states = rk4_step(plant_field, x.tolist(), u.tolist(), t, dt, substeps)
            expected = rk4_numpy_hold(oracle_field, x, u, t, dt, substeps)
            assert len(states) == substeps
            for got, want in zip(states, expected):
                assert got == tuple(want.tolist())

    def test_acc_hold_bitwise_equal_to_numpy_rk4(self):
        def draw(rng):
            # speeds down to about 1e-7 let the field's rounding reach the state's last bits
            x = np.array([40.0 * 10.0 ** rng.uniform(-8.0, 0.0), rng.uniform(0.0, 150.0)])
            return x, rng.normal(scale=3000.0, size=1)

        self._assert_holds_match_numpy(
            make_acc_plant().field, acc_field_numpy(ACC_TRUE), draw, (0.0, 20.0),
            np.random.default_rng(11),
        )

    def test_suspension_hold_bitwise_equal_to_numpy_rk4(self):
        road = lambda t: road_profile(t, 0.1, 1.0, 1.0)

        def draw(rng):
            scale = rng.choice([1e-4, 0.05])  # small states let the input term's rounding show
            return rng.normal(scale=scale, size=4), rng.normal(scale=500.0, size=1)

        # start times cover the bump window [1, 2] and both flat stretches around it
        self._assert_holds_match_numpy(
            make_suspension_plant(road=road).field, suspension_field_numpy(SUSPENSION_TRUE, road),
            draw, (0.5, 2.5), np.random.default_rng(12),
        )

    @pytest.mark.parametrize("n", range(1, 7))
    def test_hold_bitwise_equal_to_numpy_rk4_at_each_dimension(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(40):
            field = polynomial_field(n, rng)
            x = rng.normal(size=n)
            u = rng.normal(size=1)
            t = rng.uniform(0.0, 5.0)
            dt = float(rng.choice([1e-3, 2.5e-4, 1.0 / 300.0]))
            substeps = int(rng.integers(1, 21))
            states = rk4_step(field, x, u, t, dt, substeps)
            numpy_field = lambda x, u, t: np.array(field(x, u, t))
            expected = rk4_numpy_hold(numpy_field, x, u, t, dt, substeps)
            assert states == [tuple(s.tolist()) for s in expected]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_divergence_mid_hold_at_each_dimension(self, n):
        # one coordinate's rate turns inf or NaN part way through the hold,
        # and no other coordinate reads it; the list ends before the first
        # state that holds a non-finite entry, in whichever coordinate
        rng = np.random.default_rng(200 + n)
        dt, substeps = 1e-3, 10
        for bad in range(n):
            for blowup in (math.inf, -math.inf, math.nan):
                smooth = polynomial_field(n, rng, coupled=False)
                t_bad = rng.uniform(2.0, 8.0) * dt

                def field(x, u, t):
                    xdot = list(smooth(x, u, t))
                    if t > t_bad:
                        xdot[bad] = blowup
                    return tuple(xdot)

                x, u = rng.normal(size=n), rng.normal(size=1)
                states = rk4_step(field, x, u, 0.0, dt, substeps)
                with np.errstate(invalid="ignore"):
                    expected = rk4_numpy_hold(
                        lambda x, u, t: np.array(field(x, u, t)), x, u, 0.0, dt, substeps
                    )
                finite = [tuple(s.tolist()) for s in expected if np.all(np.isfinite(s))]
                assert 1 <= len(finite) < substeps
                assert states == finite[: len(states)] and len(states) == len(finite)
                assert np.isfinite(np.delete(expected[len(states)], bad)).all()
                assert not np.isfinite(expected[len(states)][bad])


class TestLqr:
    def test_scalar_hand_value(self):
        K, P = lqr_gain(np.zeros((1, 1)), np.ones((1, 1)), np.ones((1, 1)), np.ones((1, 1)))
        assert P[0, 0] == pytest.approx(1.0, abs=1e-9)
        assert K[0, 0] == pytest.approx(1.0, abs=1e-9)

    def test_stable_system_without_actuation(self):
        K, P = lqr_gain(-np.eye(2), np.zeros((2, 1)), np.eye(2), np.ones((1, 1)))
        np.testing.assert_allclose(K, np.zeros((1, 2)), atol=1e-9)
        np.testing.assert_allclose(P, 0.5 * np.eye(2), atol=1e-9)

    def test_double_integrator_vs_riccati_ode_oracle(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        B = np.array([[0.0], [1.0]])
        K, _ = lqr_gain(A, B, np.eye(2), np.ones((1, 1)))
        K_ode, _ = riccati_ode_gain(A, B, np.eye(2), np.ones((1, 1)), dt=2e-4, t_final=60.0)
        np.testing.assert_allclose(K, K_ode, atol=1e-6)

    def test_closed_loop_stable_on_benchmark(self):
        A, B = suspension_linear_matrices(SUSPENSION_NOMINAL)
        K, _ = lqr_gain(A, B, 10.0 * np.eye(4), np.array([[1.0]]))
        eigs = np.linalg.eigvals(A - B @ K)
        assert np.all(eigs.real < 0.0)


_BENCHMARK_LQR = {
    "suspension": (*suspension_linear_matrices(SUSPENSION_NOMINAL), 10.0 * np.eye(4), np.array([[1.0]])),
    "synthetic": (
        np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0], [1.0]]), np.eye(2), np.array([[1.0]])
    ),
}  # fmt: skip


class TestSchurRiccati:
    @pytest.mark.parametrize("plant", sorted(_BENCHMARK_LQR))
    def test_agrees_with_scipy(self, plant):
        A, B, Q, R = _BENCHMARK_LQR[plant]
        K, P = lqr_gain(A, B, Q, R)
        P_ref = scipy.linalg.solve_continuous_are(A, B, Q, R)
        np.testing.assert_allclose(P, P_ref, rtol=1e-10, atol=0.0)
        K_ref = np.linalg.solve(R, B.T @ P_ref)
        assert np.abs(K - K_ref).max() <= 1e-10 * np.abs(K_ref).max()
        assert np.array_equal(P, P.T)

    @pytest.mark.parametrize("plant", sorted(_BENCHMARK_LQR))
    def test_riccati_residual(self, plant):
        A, B, Q, R = _BENCHMARK_LQR[plant]
        _, P = lqr_gain(A, B, Q, R)
        terms = [A.T @ P, P @ A, -P @ B @ np.linalg.solve(R, B.T) @ P, Q]
        scale = sum(np.linalg.norm(t) for t in terms)
        assert np.linalg.norm(sum(terms)) <= 1e-8 * scale

    @pytest.mark.parametrize("n", [1, 3])
    def test_imaginary_axis_hamiltonian_raises(self, n):
        # A = 0, B = 0: every Hamiltonian eigenvalue is 0, so none is stable.
        with pytest.raises(np.linalg.LinAlgError):
            lqr_gain(np.zeros((n, n)), np.zeros((n, 1)), np.eye(n), np.ones((1, 1)))

    @pytest.mark.parametrize("reach", [0.0, 1e-20])
    def test_unstabilizable_pair_raises(self, reach):
        # An unstable mode that B does not reach, or reaches only below
        # working precision, has no stabilizing solution: U11 is singular.
        B = np.array([[reach], [1.0]])
        with pytest.raises(np.linalg.LinAlgError):
            lqr_gain(np.diag([1.0, -1.0]), B, np.eye(2), np.ones((1, 1)))


def _lqr_gain_through_schur(A, B, Q, R):
    """lqr_gain's steps with the Schur form from scipy.linalg.schur."""
    n = A.shape[0]
    H = np.block([[A, -B @ np.linalg.solve(R, B.T)], [-Q, -A.T]])
    _, U, sdim = scipy.linalg.schur(H, output="real", sort="lhp")
    assert sdim == n
    P = np.linalg.solve(U[:n, :n].T, U[n:, :n].T).T
    P = 0.5 * (P + P.T)
    return np.linalg.solve(R, B.T @ P), P


class TestLqrDgees:
    @pytest.mark.parametrize("plant", sorted(_BENCHMARK_LQR))
    def test_equals_scipy_schur_route_bit_for_bit(self, plant):
        A, B, Q, R = _BENCHMARK_LQR[plant]
        K, P = lqr_gain(A, B, Q, R)
        K_ref, P_ref = _lqr_gain_through_schur(A, B, Q, R)
        assert K.tobytes() == K_ref.tobytes()
        assert P.tobytes() == P_ref.tobytes()

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_A_raises_value_error(self, value):
        A, B, Q, R = _BENCHMARK_LQR["suspension"]
        A = A.copy()
        A[2, 1] = value
        with pytest.raises(ValueError):
            lqr_gain(A, B, Q, R)


class TestClfNominalAcc:
    def test_at_target_speed(self):
        u = clf_nominal_acc(np.array([24.0, 50.0]), 24.0, 1.0, AccParams(**ACC_NOMINAL))
        np.testing.assert_allclose(u, [0.0])

    def test_drift_decaying_fast_enough(self):
        # above target the drag decelerates; small lambda keeps u at zero
        u = clf_nominal_acc(np.array([25.0, 50.0]), 24.0, 1e-4, AccParams(**ACC_NOMINAL))
        np.testing.assert_allclose(u, [0.0])

    def test_hand_projection_value(self):
        p = AccParams(**ACC_NOMINAL)
        v, v_d, lam = 20.0, 24.0, 1.0
        u = clf_nominal_acc(np.array([v, 100.0]), v_d, lam, p)
        expected = p.rolling_resistance(v) + lam * p.m * (v_d - v) / 2.0
        assert u[0] == pytest.approx(expected, rel=1e-12)

    def test_matches_grid_search(self):
        p = AccParams(**ACC_NOMINAL)
        rng = np.random.default_rng(2)
        for _ in range(20):
            v = rng.uniform(10, 30)
            v_d = rng.uniform(15, 28)
            lam = rng.uniform(0.2, 3.0)
            u = clf_nominal_acc(np.array([v, 80.0]), v_d, lam, p)[0]
            us = np.arange(-20000.0, 20000.0, 0.01)
            err = v - v_d
            vdot = (-p.rolling_resistance(v) + us) / p.m
            feasible = 2 * err * vdot + lam * err * err <= 1e-12
            best = us[feasible][np.argmin(np.abs(us[feasible]))]
            assert abs(u - best) <= 0.01


class TestRoadProfile:
    def test_zero_outside_window(self):
        assert road_profile(0.5, 0.08, 1.0, 1.0) == 0.0
        assert road_profile(2.5, 0.08, 1.0, 1.0) == 0.0

    def test_peak_at_center(self):
        assert road_profile(1.5, amplitude=0.08, start=1.0, width=1.0) == pytest.approx(0.08)

    def test_bump_integral(self):
        ts = np.linspace(0.0, 3.0, 300001)
        vals = np.array([road_profile(t, amplitude=0.08, start=1.0, width=1.0) for t in ts])
        integral = np.trapezoid(vals, ts)
        assert integral == pytest.approx(0.08 * 1.0 / 2.0, rel=1e-6)


class TestPlantModels:
    """Each field equals f(x) + g(x) u (+ k2 / m2 d), the control-affine form written out."""

    def test_acc_field_consistency(self):
        p = AccParams(**ACC_TRUE)
        plant = make_acc_plant()
        rng = np.random.default_rng(5)
        for _ in range(50):
            x = np.array([rng.uniform(0.0, 40.0), rng.uniform(0.0, 150.0)])
            u = rng.normal(scale=2000.0, size=1)
            f = np.array([(-p.rolling_resistance(x[0]) + 0.0) / p.m, p.v0 - x[0]])
            g = np.array([[1.0 / p.m], [0.0]])
            expected = f + g @ u
            t = rng.uniform(0.0, 20.0)
            assert np.all(plant.field(x.tolist(), u.tolist(), t) == expected)

    def test_suspension_disturbance_enters_wheel_only(self):
        p = SuspensionParams(**SUSPENSION_TRUE)
        flat = make_suspension_plant()
        bump = make_suspension_plant(road=lambda t: 0.02 * t)
        rng = np.random.default_rng(6)
        for scale in [0.05] * 50 + [1e-4] * 50:  # small states let the input term's rounding show
            x = rng.normal(scale=scale, size=4)
            x1, x2, x3, x4 = x
            u = rng.normal(scale=500.0, size=1)
            t = rng.uniform(0.5, 3.0)
            f = np.array(
                [
                    x3,
                    x4,
                    (p.k1 * (x2 - x1) + p.b * (x4 - x3) + 0.0) / p.m1,
                    (p.k1 * (x1 - x2) - p.k2 * x2 + p.b * (x3 - x4) - 0.0 + p.k2 * 0.0) / p.m2,
                ]
            )
            g = np.array([[0.0], [0.0], [1.0 / p.m1], [-1.0 / p.m2]])
            road_gain = np.array([0.0, 0.0, 0.0, p.k2 / p.m2])
            xs, us = x.tolist(), u.tolist()
            assert np.all(flat.field(xs, us, t) == f + g @ u)
            assert np.all(bump.field(xs, us, t) == f + g @ u + road_gain * (0.02 * t))
            assert bump.field(xs, us, t)[:3] == flat.field(xs, us, t)[:3]
            assert bump.field(xs, us, t)[3] != flat.field(xs, us, t)[3]
        # a road at zero height is the flat road
        assert bump.field(xs, us, 0.0) == flat.field(xs, us, 0.0)

    def test_synthetic_zero_mismatch(self):
        plant = make_synthetic_plant(0.0)
        rng = np.random.default_rng(3)
        for _ in range(10):
            x = rng.normal(size=2)
            u = rng.normal(size=1)
            assert np.all(plant.field(x.tolist(), u.tolist(), 0.0) == np.array([x[1], u[0]]))

    def test_synthetic_mismatch_matches_numpy_square(self):
        rng = np.random.default_rng(4)
        for mismatch in (0.3, -1.7):
            plant = make_synthetic_plant(mismatch)
            oracle = synthetic_field_numpy(mismatch)
            for _ in range(200):
                x = rng.normal(scale=10.0 ** rng.uniform(-3, 3), size=2)
                u = rng.normal(size=1)
                assert plant.field(x.tolist(), u.tolist(), 0.0) == tuple(oracle(x, u, 0.0).tolist())
        # past sqrt(max float) x1 * x1 overflows to inf, as numpy's square does, instead of raising
        assert make_synthetic_plant(1.0).field([1e200, 0.0], [0.0], 0.0)[1] == math.inf
