import csv
import dataclasses
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from gpcbf import config as config_mod
from gpcbf import episodic as episodic_mod
from gpcbf import gp as gp_mod
from gpcbf import socp as socp_mod
from gpcbf.barrier import (
    CertificateTerms,
    HocbfDesign,
    certificate_terms,
    gamma_vector,
    halfspace_qp_filter,
    zeta_chain,
)
from gpcbf.episodic import (
    TERM_ABORTED,
    TERM_COMPLETED,
    TERM_INFEASIBLE,
    TERM_VIOLATION,
    STATUS_VIOLATION,
    _CSV_BLOCK_ROWS,
    _STEP_COLUMNS,
    _TRACE_COLUMNS,
    EpisodeLog,
    episodic_train,
    label_episode,
    make_gp_socp_controller,
    make_nominal_qp_controller,
    run_episode,
)
from gpcbf.gp import BaseKernelParams, ResidualDataset, fit, posterior_coefficients
from gpcbf.plants import (
    ACC_NOMINAL,
    ACC_TRUE,
    PlantModel,
    acc_design,
    make_acc_plant,
)
from gpcbf.experiment import build_scenario, run_benchmark
from gpcbf.socp import (
    STATUS_FACTORIZATION_FAILED,
    STATUS_INFEASIBLE,
    STATUS_OPTIMAL,
    FilterOutcome,
    safety_filter_step,
)

from _oracles import (
    double_integrator_design,
    episode_csv_reference,
    exact_dot,
    integrator_chain_design,
    label_window_reference,
    make_synthetic_plant,
)


def _constant_u_controller(value):
    def controller(t, x):
        return FilterOutcome((value,), "nominal")

    return controller


class TestLabeling:
    def test_zero_mismatch_labels_vanish(self):
        plant = make_synthetic_plant(0.0)
        design = double_integrator_design([1.0, 2.0], D=10.0)
        log = run_episode(
            plant, design, _constant_u_controller(0.7), np.array([0.0, 0.2]), 2.0,
            stop_on_violation=False,
        )
        rows = label_episode(log, design, 0.01, stride=3)
        assert len(rows) > 10
        assert max(abs(r[2]) for r in rows) <= 1e-9

    def test_regressor_carries_design_gamma(self):
        plant = make_synthetic_plant(0.3)
        design = double_integrator_design([1.0, 2.0], D=10.0)
        log = run_episode(
            plant, design, _constant_u_controller(0.5), np.array([0.0, 0.0]), 1.0,
            stop_on_violation=False,
        )
        gamma = gamma_vector([1.0, 2.0])
        for x, y, z in label_episode(log, design, 0.01, stride=1):
            np.testing.assert_array_equal(y[:2], gamma)
            assert y[2] == pytest.approx(0.5)

    def test_labels_match_analytic_residual_acc(self):
        plant = make_acc_plant()
        design = acc_design(ACC_NOMINAL, gains=(1.5, 2.5), D=30.0)
        log = run_episode(
            plant, design, _constant_u_controller(500.0), np.array([20.0, 100.0]), 3.0,
            stop_on_violation=False,
        )
        pt, pn = ACC_TRUE, ACC_NOMINAL

        def drag(p, v):
            return p["f0"] + p["f1"] * v + p["f2"] * v * v

        def analytic(x, u):
            v = x[0]
            d1 = (pt["v0"] - v) - (pn["v0"] - v)
            d2 = drag(pt, v) / pt["m"] - drag(pn, v) / pn["m"]
            dg = -1.0 / pt["m"] + 1.0 / pn["m"]
            return 4.0 * d1 + d2 + dg * u

        rows = label_episode(log, design, 0.01, stride=5)
        errs = [abs(z - analytic(x, y[2])) for x, y, z in rows]
        assert max(errs) <= 1e-6

    def test_truncation_error_second_order_in_dt(self):
        # u cancels the constant drift so the trajectory stays bounded while
        # the quadratic term keeps the fourth derivative of h away from zero
        plant = make_synthetic_plant(0.5)
        design = double_integrator_design([1.0, 2.0], D=100.0)

        def mean_error(period):
            log = run_episode(
                plant, design, _constant_u_controller(-0.5), np.array([1.0, 0.0]), 2.0,
                dt=period / 10.0, control_period=period, stop_on_violation=False,
            )
            rows = label_episode(log, design, period, stride=1)
            errs = [abs(z - (-0.5 * (1.0 + 0.5 * x[0] ** 2))) for x, y, z in rows]
            return float(np.mean(errs))

        e_coarse = mean_error(0.08)
        e_fine = mean_error(0.04)
        assert 3.0 <= e_coarse / e_fine <= 5.5

    def test_doubling_mismatch_doubles_labels(self):
        design = double_integrator_design([1.0, 2.0], D=100.0)
        zs = []
        for mismatch in (0.01, 0.02):
            plant = make_synthetic_plant(mismatch)
            log = run_episode(
                plant, design, _constant_u_controller(0.4), np.array([0.0, 0.5]), 2.0,
                stop_on_violation=False,
            )
            rows = label_episode(log, design, 0.01, stride=4)
            zs.append(np.array([r[2] for r in rows]))
        np.testing.assert_allclose(zs[1], 2.0 * zs[0], rtol=0.05)

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("r", [1, 3, 4])
    def test_episode_rounds_match_each_window_alone(self, r, m):
        # A chain of r integrators whose last row is not the design's (w =
        # -0.5 and a drift against w = -0.7), driven down through h = x0 -
        # 0.5, so the log ends in a violation row.  That row's h is set to
        # nan, which a label that read it would carry.
        row, u = (0.9, -0.4)[:m], (-1.0, 0.5)[:m]
        drive = " + ".join(f"{w} * u{j}" for j, w in enumerate(row))
        chain = [f"dx{i} = x{i + 1}" for i in range(r - 1)]
        chain.append(f"dx{r - 1} = -0.5 * x0 + {drive} + 0.1")
        plant = PlantModel(r, m, "\n".join(chain), {})
        design = integrator_chain_design([1.0 + 0.5 * i for i in range(r)], row)
        controller = lambda t, x: FilterOutcome(u, "nominal")
        log = run_episode(plant, design, controller, [0.9] + [0.0] * (r - 1), 3.0)
        assert log.status[-1] == STATUS_VIOLATION
        log.zeta[-1, 0] = np.nan
        steps = log.control_steps
        rows = label_episode(log, design, 0.01, stride=1)
        assert len(rows) == steps - 2 * r > 10

        def as_bytes(rows):
            return [[np.asarray(v).tobytes() for v in row] for row in rows]

        expected = [
            label_window_reference(log.h[c - r : c + r + 1], log.x[c], log.u[c], design, 0.01)
            for c in range(r, steps - r)
        ]
        assert as_bytes(rows) == as_bytes(expected)
        assert as_bytes(label_episode(log, design, 0.01, stride=3)) == as_bytes(expected[::3])


class TestRunEpisode:
    def test_zero_horizon_gives_empty_completed_log(self):
        plant = make_synthetic_plant(0.0)
        design = double_integrator_design([1.0, 1.0])
        log = run_episode(plant, design, _constant_u_controller(0.0), np.zeros(2), 0.0)
        assert len(log) == 0
        assert log.termination == TERM_COMPLETED

    def test_zero_mismatch_oracle_filter_is_safe(self):
        plant = make_synthetic_plant(0.0)
        design = double_integrator_design([1.5, 2.5], D=1.0)
        # nominal law pushes past the barrier; the true-model filter holds it
        u_nom = lambda t, x: np.array([4.0 * (1.5 - x[0]) - 2.5 * x[1]])
        log = run_episode(
            plant, design, make_nominal_qp_controller(design, u_nom), np.zeros(2), 6.0
        )
        assert log.termination == TERM_COMPLETED
        assert log.min_h >= 0.0
        assert log.x[:, 0].max() > 0.9  # the barrier actually engaged

    def test_violation_recorded_with_time(self):
        plant = make_acc_plant()
        design = acc_design(ACC_NOMINAL, gains=(1.5, 2.5), D=30.0)
        # drive hard at the lead car with no filter
        log = run_episode(
            plant, design, _constant_u_controller(4000.0), np.array([20.0, 40.0]), 10.0
        )
        assert log.termination == TERM_VIOLATION
        assert log.violation_time is not None
        assert log.h[-1] < 0.0  # trailing row documents the crossing

    def test_timestamps_strictly_increasing(self):
        plant = make_synthetic_plant(0.0)
        design = double_integrator_design([1.0, 1.0], D=5.0)
        log = run_episode(plant, design, _constant_u_controller(0.1), np.zeros(2), 1.0)
        assert np.all(np.diff(log.t) > 0)

    def test_deterministic_repetition(self):
        plant = make_acc_plant()
        design = acc_design(ACC_NOMINAL, gains=(1.5, 2.5), D=30.0)
        u_nom = lambda t, x: np.array([800.0 * np.sin(t)])
        ctrl = make_nominal_qp_controller(design, u_nom)
        log1 = run_episode(plant, design, ctrl, np.array([20.0, 100.0]), 3.0)
        log2 = run_episode(plant, design, ctrl, np.array([20.0, 100.0]), 3.0)
        assert np.array_equal(log1.x, log2.x)
        assert np.array_equal(log1.u, log2.u)
        assert np.array_equal(log1.h, log2.h)
        assert log1.termination == log2.termination

    def test_consecutive_infeasible_steps_abort(self):
        plant = make_synthetic_plant(0.0)
        design = double_integrator_design([1.0, 1.0], D=5.0)

        def controller(t, x):
            return FilterOutcome((0.0,), "infeasible")

        log = run_episode(plant, design, controller, np.zeros(2), 1.0)
        assert log.termination == TERM_INFEASIBLE
        assert len(log) == 5
        assert log.status == ["infeasible"] * 5

    def test_overflowing_integration_aborts(self):
        plant = make_synthetic_plant(0.0)
        design = double_integrator_design([1.0, 1.0], D=5.0)
        with np.errstate(over="ignore", invalid="ignore"):
            log = run_episode(plant, design, _constant_u_controller(1e308), np.zeros(2), 1.0)
        assert log.termination == TERM_ABORTED
        assert len(log) == 1
        assert log.u[0, 0] == 1e308

    @staticmethod
    def _cross_then_diverge_plant():
        # x1 grows by 1e-3 per substep from 0.9985, so h = 1 - x1 turns negative
        # after the second substep; the field returns inf from t = 0.0047 on,
        # so the fifth substep of the same hold is non-finite.
        return PlantModel(2, 1, "dx0 = 1.0\ndx1 = inf if t > 0.0047 else 0.0", {"inf": math.inf})

    def test_violation_before_divergence_in_one_hold_is_a_violation(self):
        plant = self._cross_then_diverge_plant()
        design = double_integrator_design([1.0, 1.0], D=1.0)
        log = run_episode(plant, design, _constant_u_controller(0.0), [0.9985, 0.0], 1.0)
        assert log.termination == TERM_VIOLATION
        assert log.violation_time == pytest.approx(0.002)
        assert log.status == ["nominal", "violation"]
        assert log.h[-1] < 0.0 and np.all(np.isfinite(log.x))

    def test_divergence_after_unstopped_violation_aborts(self):
        plant = self._cross_then_diverge_plant()
        design = double_integrator_design([1.0, 1.0], D=1.0)
        log = run_episode(
            plant, design, _constant_u_controller(0.0), [0.9985, 0.0], 1.0,
            stop_on_violation=False,
        )
        assert log.termination == TERM_ABORTED
        assert log.violation_time == pytest.approx(0.002)
        assert len(log) == 1


class TestNominalQpController:
    def test_half_space_point_that_overflows_is_an_infeasible_step(self):
        # zg is so small that the half-space point overflows: u_nom stays, flagged
        design = HocbfDesign(1, 1, "h = -1.0\nlf1 = 0.0\nlg0 = 6.8e-155", {}, [1.0])
        step = make_nominal_qp_controller(design, lambda t, x: np.zeros(1))(0.0, np.zeros(1))
        assert step.status == STATUS_INFEASIBLE
        assert type(step.u) is tuple and list(map(type, step.u)) == [float]
        assert step.u == (0.0,)

    @pytest.mark.parametrize("r", [1, 3, 4])
    def test_offset_within_four_eps_of_exact(self, monkeypatch, r):
        # gamma . zf + e_r h sums k = r + 1 <= 5 products in index order, so its
        # error is at most k 2^-53 / (1 - k 2^-53) sum |w_j v_j| < 4 eps sum |w_j v_j|.
        offsets, project = [], episodic_mod.halfspace_qp_filter

        def recording(u_nom, a, b):
            offsets.append(b)
            return project(u_nom, a, b)

        monkeypatch.setattr(episodic_mod, "halfspace_qp_filter", recording)
        eps = Fraction(sys.float_info.epsilon)
        rng = np.random.default_rng(10 + r)
        for _ in range(50):
            design = integrator_chain_design(rng.uniform(0.2, 5.0, size=r), [1.0])
            controller = make_nominal_qp_controller(design, lambda t, x: (0.0,))
            weights = [*design.gamma.tolist(), design.e_r]
            for _ in range(20):
                x = rng.choice([-1.0, 1.0], size=r) * 10.0 ** rng.uniform(-3.0, 3.0, size=r)
                cert = controller(0.0, x).cert
                exact, scale = exact_dot(weights, [*cert.zf, cert.h])
                assert abs(Fraction(offsets[-1]) - exact) <= 4 * eps * scale

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_beta_zero_cone_step_is_this_filter(self, m, r):
        # With a zero mean and beta = 0 the cone step projects u_nom onto the
        # half-space zg u + gamma . zf + e_r h >= 0 of this filter; its polish
        # may repair the last bits of the projected point.  Every fifth design
        # has a zero actuation row, whose violated steps are infeasible.
        rng = np.random.default_rng(10 * m + r)
        for k in range(10):
            row = rng.normal(size=m) if k % 5 else np.zeros(m)
            design = integrator_chain_design(rng.uniform(0.2, 5.0, size=r), row)
            for _ in range(20):
                x = rng.normal(scale=3.0, size=r)
                u_nom = tuple(rng.normal(scale=3.0, size=m).tolist())
                nominal = make_nominal_qp_controller(design, lambda t, x: u_nom)(0.0, x)
                M = rng.normal(size=(r + m, r + m))
                sigma = M @ M.T + 0.1 * np.eye(r + m)
                mu = np.zeros(r + m)
                step = safety_filter_step(u_nom, nominal.cert, mu, sigma, 0.0, design.gamma)
                assert step.status == nominal.status
                for a, b in zip(step.u, nominal.u, strict=True):
                    assert abs(a - b) <= 1e-12 * max(1.0, abs(b))


class TestGpSocpController:
    def test_infeasible_step_falls_back_to_mean_halfspace(self):
        design = double_integrator_design([1.5, 2.5], D=1.0)
        kp = [BaseKernelParams(1.0, np.array([1.0, 1.0]))] * 3
        prior = fit(
            ResidualDataset(
                X=np.zeros((0, 2)), Y=np.zeros((0, 3)), z=np.zeros(0), noise_variance=1e-6
            ),
            kp,
        )
        x = np.array([0.5, 0.8])
        u_nom = np.array([5.0])
        controller = make_gp_socp_controller(design, prior, 1e3, lambda t, x: u_nom)
        step = controller(0.0, x)
        assert step.status == "infeasible"
        assert step.necessary_value > 0.0

        cert = certificate_terms(design, x)
        mu, _ = posterior_coefficients(prior, x)
        r = design.r
        expected = halfspace_qp_filter(
            u_nom, cert.zg + mu[r:], float((cert.zf + mu[:r]) @ design.gamma) + cert.const
        )
        assert step.u == expected
        assert not np.array_equal(step.u, u_nom)  # the half-space constraint was active

    def test_sigma_holding_nan_flags_steps_until_the_episode_aborts(self, monkeypatch):
        design = double_integrator_design([1.5, 2.5], D=1.0)
        kp = [BaseKernelParams(1.0, np.array([1.0, 1.0]))] * 3
        prior = fit(
            ResidualDataset(
                X=np.zeros((0, 2)), Y=np.zeros((0, 3)), z=np.zeros(0), noise_variance=1e-6
            ),
            kp,
        )

        def nan_posterior(model, x):
            mu, sigma = posterior_coefficients(model, x)
            sigma = sigma.copy()
            sigma[1, 1] = np.nan
            return mu, sigma

        monkeypatch.setattr(episodic_mod, "posterior_coefficients", nan_posterior)
        u_nom = lambda t, x: np.array([5.0])
        controller = make_gp_socp_controller(design, prior, 2.0, u_nom)
        log = run_episode(make_synthetic_plant(0.0), design, controller, [0.5, 0.8], 1.0)
        assert log.termination == TERM_INFEASIBLE
        assert log.status == [STATUS_FACTORIZATION_FAILED] * 5
        # each flagged step applied the mean-only half-space, not u_nom
        cert = certificate_terms(design, log.x[0])
        mu, _ = posterior_coefficients(prior, log.x[0])
        d = float((cert.zf + mu[:2]) @ design.gamma) + cert.const
        expected = halfspace_qp_filter(u_nom(0.0, None), cert.zg + mu[2:], d)
        assert np.array_equal(log.u[0], expected) and log.u[0, 0] != 5.0


class TestLoggedChain:
    """Each row's h and zeta equal the chain evaluated afresh at the row's x."""

    @staticmethod
    def _assert_rows_match_fresh_chain(log, design):
        assert len(log) > 0
        for k in range(len(log)):
            fresh = np.array(zeta_chain(design, log.x[k]))
            assert log.zeta[k].tobytes() == fresh.tobytes()
            assert log.h[k : k + 1].tobytes() == fresh[:1].tobytes()

    @pytest.mark.parametrize("plant", ["acc", "suspension"])
    def test_every_arm(self, plant, tmp_path, monkeypatch):
        made = []  # the records episodic builds: nominal QP steps and trailing violation rows

        def recorded(*args, **kwargs):
            made.append(FilterOutcome(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(episodic_mod, "FilterOutcome", recorded)
        cfg = config_mod.defaults(plant)
        result = run_benchmark(cfg, str(tmp_path))
        assert any(step.status == "violation" for step in made)
        for step in made:
            assert type(step.u) is tuple and list(map(type, step.u)) == [float]
        sc = build_scenario(cfg)
        designs = {"nominal": sc.design_nom, "gp": sc.design_nom, "oracle": sc.design_true}
        for name, design in designs.items():
            self._assert_rows_match_fresh_chain(result.arms[name].log, design)
        # a trailing violation row, and a gp arm on the cone filter
        assert result.arms["nominal"].log.status[-1] == "violation"
        assert len(result.train.episodes) > 1

    def test_controllers_pass_their_certificate_terms(self):
        design = acc_design(ACC_NOMINAL, gains=(1.5, 2.5), D=30.0)
        x = np.array([20.0, 100.0])
        kp = [BaseKernelParams(1.0, np.array([1.0, 1.0]))] * 3
        prior = fit(
            ResidualDataset(
                X=np.zeros((0, 2)), Y=np.zeros((0, 3)), z=np.zeros(0), noise_variance=1e-6
            ),
            kp,
        )
        u_nom = lambda t, x: np.array([300.0])
        for controller in (
            make_nominal_qp_controller(design, u_nom),
            make_gp_socp_controller(design, prior, 2.0, u_nom),
        ):
            cert = controller(0.0, x).cert
            fresh = certificate_terms(design, x)
            assert cert.h == float(design.barrier(x)) == 70.0
            assert np.array(cert.zf).tobytes() == np.array(fresh.zf).tobytes()
            assert cert.const == fresh.const


class TestEpisodicTrain:
    def test_zero_mismatch_ends_after_first_episode(self):
        plant = make_synthetic_plant(0.0)
        design = double_integrator_design([1.5, 2.5], D=1.0)
        u_nom = lambda t, x: np.array([4.0 * (1.5 - x[0]) - 2.5 * x[1]])
        kp = [BaseKernelParams(1.0, np.array([1.0, 1.0]))] * 3
        result = episodic_train(
            plant, design, u_nom, kp, beta=2.0, x0=np.zeros(2), horizon=4.0, max_episodes=3,
            label_stride=5, noise_variance=1e-4,
        )
        assert result.succeeded
        assert len(result.episodes) == 1
        assert len(result.dataset) == 0

    def test_gram_that_will_not_factor_ends_training_with_last_good_model(self, monkeypatch):
        # The plant stands still until t = 0.1 s and then drives x1 through
        # the barrier at 10 m/s, so the nominal episode violates and its first
        # two labels share x = 0 and y = [gamma; 0].  With gains (1, 1),
        # gamma = [2, 1], and these signal variances the Gram entries of the
        # two rows are all 0.75 * 4 + 1 = 4: the second Cholesky pivot is
        # 4 - 2 * 2 = 0 exactly, and no noise or jitter lifts it.
        monkeypatch.setattr(gp_mod, "DEFAULT_JITTER_SCHEDULE", (0.0,))
        plant = PlantModel(2, 1, "dx0 = 10.0 if t > 0.1 else 0.0\ndx1 = 0.0", {})
        design = double_integrator_design([1.0, 1.0], D=1.0)
        kp = [
            BaseKernelParams(0.75, np.array([1.0, 1.0])),
            BaseKernelParams(1.0, np.array([1.0, 1.0])),
            BaseKernelParams(1.0, np.array([1.0, 1.0])),
        ]
        result = episodic_train(
            plant, design, lambda t, x: np.zeros(1), kp, beta=2.0, x0=np.zeros(2),
            horizon=1.0, max_episodes=3, label_stride=5, noise_variance=0.0,
        )
        assert not result.succeeded
        assert len(result.episodes) == 1
        assert result.episodes[0].termination == TERM_VIOLATION
        assert len(result.dataset) == 0 and len(result.model.dataset) == 0  # the prior
        rows = label_episode(result.episodes[0], design, 0.01, stride=5)
        assert len(rows) >= 2
        for x, y, _ in rows[:2]:
            assert np.array_equal(x, np.zeros(2)) and np.array_equal(y, [2.0, 1.0, 0.0])

    def test_two_input_projection_in_closed_loop(self, monkeypatch):
        # A double integrator p'' = 0.5 + 1.3 u1 + 0.5 u2 whose design knows
        # neither the drift nor the gain on u1, so the nominal episode drives
        # through h = 1 - p = 0 and the GP filter projects onto m = 2 cones
        # through the secular equation.
        plant = PlantModel(2, 2, "dx0 = x1\ndx1 = 0.5 + 1.3 * u0 + 0.5 * u1", {})
        design = HocbfDesign(
            2, 2, "h = 1.0 - x0\nlf1 = -x1\nlf2 = 0.0\nlg0 = -1.0\nlg1 = -0.5", {}, [1.5, 2.5]
        )
        kp = [BaseKernelParams(sf2, np.array([0.5, 0.5])) for sf2 in (1.0, 0.1, 0.1, 0.1)]
        projections, secular_calls = [], []
        project, secular = socp_mod._project, socp_mod._secular_candidates

        def counted_project(*args):
            result = project(*args)
            projections.append(result[1])
            return result

        def counted_secular(*args):
            secular_calls.append(1)
            return secular(*args)

        monkeypatch.setattr(socp_mod, "_project", counted_project)
        monkeypatch.setattr(socp_mod, "_secular_candidates", counted_secular)
        result = episodic_train(
            plant, design, lambda t, x: np.array([1.0, 0.5]), kp, beta=2.0, x0=np.zeros(2),
            horizon=6.0, max_episodes=6, label_stride=5, noise_variance=1e-6,
        )
        nominal, gp_log = result.episodes[0], result.episodes[-1]
        assert nominal.termination == TERM_VIOLATION
        assert result.succeeded and gp_log.termination == TERM_COMPLETED
        assert gp_log.min_h >= 0.0
        assert projections.count(STATUS_OPTIMAL) >= 100
        assert len(secular_calls) >= 100
        optimal = np.array(gp_log.status) == STATUS_OPTIMAL
        bound = -1e-8 * np.maximum(1.0, 2.0 * gp_log.sigma[optimal])
        assert np.all(gp_log.cone_margin[optimal] >= bound)

    def test_kernel_count_validated(self):
        plant = make_synthetic_plant(0.0)
        design = double_integrator_design([1.5, 2.5], D=1.0)
        kp = [BaseKernelParams(1.0, np.array([1.0, 1.0]))] * 2
        with pytest.raises(ValueError):
            episodic_train(
                plant, design, lambda t, x: np.zeros(1), kp, beta=1.0,
                x0=np.zeros(2), horizon=1.0, max_episodes=6, label_stride=5, noise_variance=1e-4,
            )


class TestStepRecordToLog:
    def test_each_field_of_the_record_reaches_its_column(self):
        # x1 rises by 1e-3 per substep from 0.9765, so h = 1 - x1 turns
        # negative inside the third hold: three control rows, then the
        # violation row.
        plant = PlantModel(2, 1, "dx0 = 1.0\ndx1 = 0.0", {})
        design = double_integrator_design([1.0, 1.0], D=1.0)
        calls, records = [], []

        def controller(t, x):
            k = len(records)
            cert = CertificateTerms(zf=np.array([11.0 + k, 0.0]), zg=np.zeros(1), const=0.0, h=40.0 + k)
            step = FilterOutcome(
                (0.375 + k,),
                ("optimal", "nominal", "infeasible")[k],
                sigma=0.5 + k,
                necessary_value=-2.25 - k,
                sufficient_eig=-3.125 - k,
                iterations=7 + k,
                cone_margin=0.0625 + k,
                cert=cert,
            )
            calls.append((t, x))
            records.append(step)
            return step

        log = run_episode(plant, design, controller, [0.9765, 0.0], 1.0)
        assert log.termination == TERM_VIOLATION
        assert log.status == ["optimal", "nominal", "infeasible", "violation"]
        for k, ((t, x), step) in enumerate(zip(calls, records)):
            assert log.t[k] == t
            assert type(x) is tuple and log.x[k].tobytes() == np.array(x).tobytes()
            assert log.u[k].tobytes() == np.array(step.u).tobytes()
            assert log.h[k] == step.cert.h
            assert log.zeta[k].tobytes() == np.array(zeta_chain(design, x, step.cert)).tobytes()
            # Every declared column, compared as its CSV field.
            for field, _, fmt in _STEP_COLUMNS + _TRACE_COLUMNS:
                assert fmt % getattr(log, field)[k] == fmt % getattr(step, field)
        # The violation row holds the last input and the record's defaults.
        last = len(records)
        fresh = np.array(zeta_chain(design, log.x[last]))
        assert log.t[last] == log.violation_time
        assert log.u[last].tobytes() == np.array(records[-1].u).tobytes()
        assert log.zeta[last].tobytes() == fresh.tobytes() and log.h[last] == fresh[0] < 0.0
        for column in (log.sigma, log.necessary_value, log.sufficient_eig, log.cone_margin):
            assert math.isnan(column[last])
        assert log.iterations[last] == 0


class TestEpisodeCsv:
    def test_schema_and_values(self, tmp_path):
        plant = make_acc_plant()
        design = acc_design(ACC_NOMINAL, gains=(1.5, 2.5), D=30.0)
        log = run_episode(
            plant, design, _constant_u_controller(100.0), np.array([20.0, 100.0]), 0.5
        )
        path = tmp_path / "episode.csv"
        log.to_csv(path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "t", "x_1", "x_2", "u_1", "h", "zeta_0", "zeta_1",
            "sigma", "status", "necessary_value", "sufficient_eig",
        ]
        assert len(rows) - 1 == len(log)
        assert float(rows[1][4]) == pytest.approx(70.0)

    def test_trace_flag_adds_iterations(self, tmp_path):
        plant = make_synthetic_plant(0.0)
        design = double_integrator_design([1.0, 1.0], D=5.0)
        log = run_episode(plant, design, _constant_u_controller(0.0), np.zeros(2), 0.2)
        path = tmp_path / "trace.csv"
        log.to_csv(path, trace=True)
        header = path.read_text().splitlines()[0].split(",")
        assert header[-2:] == ["solve_iterations", "cone_margin"]


def _special_values_log(steps: int) -> EpisodeLog:
    """A log with n = 2, m = 2, r = 3 whose floats include the formatting edge cases."""
    special = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 0.1, -1.2345678901234567e300, 7.0]
    values = np.resize(np.array(special), 12 * steps).reshape(steps, 12)
    status = (["optimal", "infeasible", "nominal"] * steps)[: max(steps - 1, 0)]
    status += ["violation"] if steps else []
    return EpisodeLog(
        t=values[:, 0],
        x=values[:, 1:3],
        u=values[:, 3:5],
        zeta=values[:, 5:8],  # h is zeta[:, 0]
        sigma=values[:, 9],
        status=status,
        necessary_value=values[:, 10],
        sufficient_eig=values[:, 11],
        iterations=np.arange(steps) * 7,
        cone_margin=values[::-1, 4].copy(),
        termination=TERM_VIOLATION,
        violation_time=None,
        min_h=0.0,
    )


class TestControlSteps:
    def test_all_rows_but_a_trailing_violation_row(self):
        violated = _special_values_log(4)  # three control rows, then the violation row
        completed = dataclasses.replace(violated, status=["optimal"] * 4)
        empty = _special_values_log(0)
        assert [log.control_steps for log in (violated, completed, empty)] == [3, 4, 0]


class TestEpisodeCsvBytes:
    @pytest.mark.parametrize("trace", [False, True])
    @pytest.mark.parametrize("steps", [0, 9, 2 * _CSV_BLOCK_ROWS + 3])
    def test_matches_csv_writer_reference(self, steps, trace, tmp_path):
        log = _special_values_log(steps)
        log.to_csv(tmp_path / "rows.csv", trace=trace)
        episode_csv_reference(log, tmp_path / "reference.csv", trace=trace)
        assert (tmp_path / "rows.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
