"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.  Tolerances are pinned here and nowhere else.
"""

import time

import numpy as np
import pytest

from gpcbf import config as config_mod
from gpcbf import validate as validate_mod
from gpcbf.barrier import halfspace_qp_filter
from gpcbf.episodic import TERM_COMPLETED, TERM_VIOLATION
from gpcbf.experiment import run_benchmark
from gpcbf.gp import BaseKernelParams, ResidualDataset, fit, posterior_coefficients
from gpcbf.socp import STATUS_OPTIMAL, effective_phi, safety_filter_step

from _oracles import composite_kernel_ref, stacked_gp_posterior


def _report(criterion: str, passed: bool, detail: str):
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{criterion}: {detail}"


@pytest.fixture(scope="session")
def acc_result(tmp_path_factory):
    out = tmp_path_factory.mktemp("acc")
    t0 = time.monotonic()
    result = run_benchmark(config_mod.defaults("acc"), str(out))
    return result, time.monotonic() - t0


@pytest.fixture(scope="session")
def susp_result(tmp_path_factory):
    out = tmp_path_factory.mktemp("susp")
    t0 = time.monotonic()
    result = run_benchmark(config_mod.defaults("suspension"), str(out))
    return result, time.monotonic() - t0


class TestCriterion1AccScenario:
    def test_acc_scenario(self, acc_result):
        result, elapsed = acc_result
        nominal = result.arms["nominal"].log
        gp = result.arms["gp"].log
        n_data = len(result.train.dataset)

        ok_time = elapsed < 60.0
        ok_nominal = (
            nominal.termination == TERM_VIOLATION
            and nominal.violation_time is not None
            and 5.0 <= nominal.violation_time <= 10.0
        )
        ok_gp = (
            gp.termination == TERM_COMPLETED
            and gp.min_h >= 0.0
            and gp.t[-1] >= 20.0 - 0.011
        )
        ok_improved = gp.min_h > nominal.min_h
        ok_data = 50 <= n_data <= 300
        _report(
            "1 (ACC scenario)",
            ok_time and ok_nominal and ok_gp and ok_improved and ok_data,
            f"wall={elapsed:.1f}s, nominal violation at "
            f"{nominal.violation_time}, gp min_h={gp.min_h:.4f}, N={n_data}",
        )


class TestCriterion2SuspensionScenario:
    def test_suspension_scenario(self, susp_result):
        result, elapsed = susp_result
        nominal = result.arms["nominal"].log
        gp = result.arms["gp"].log
        n_data = len(result.train.dataset)
        D = 0.06

        max_x1_nominal = float(nominal.x[:, 0].max())
        max_x1_gp = float(gp.x[:, 0].max())
        ok_time = elapsed < 60.0
        ok_nominal = max_x1_nominal > D
        ok_gp = gp.termination == TERM_COMPLETED and max_x1_gp <= D + 1e-3
        ok_improved = gp.min_h > nominal.min_h
        ok_data = 50 <= n_data <= 400
        _report(
            "2 (suspension scenario)",
            ok_time and ok_nominal and ok_gp and ok_improved and ok_data,
            f"wall={elapsed:.1f}s, nominal max x1={max_x1_nominal:.4f}, "
            f"gp max x1={max_x1_gp:.4f}, N={n_data}",
        )


class TestCriterion3OracleRecovery:
    def test_rms_deviation_halved(self, acc_result, susp_result):
        details = []
        ok = True
        for name, (result, _) in (("acc", acc_result), ("suspension", susp_result)):
            summary = {row["arm"]: row for row in result.summary}
            r_nom = float(summary["nominal"]["rms_dev_from_oracle"])
            r_gp = float(summary["gp"]["rms_dev_from_oracle"])
            ok = ok and (r_gp <= 0.5 * r_nom)
            details.append(f"{name}: gp={r_gp:.1f} vs nominal={r_nom:.1f}")
        _report("3 (oracle recovery)", ok, "; ".join(details))


class TestCriterion4SolverCorrectness:
    def test_grid_oracle_500(self):
        report = validate_mod.solver_suite(seed=2024, cases=500, tol=2e-4)
        ok = (
            report["passed"]
            and report["worst_abs_error"] <= 2e-4
            and report["elapsed_s"] < 30.0
        )
        _report(
            "4 (solver correctness)",
            ok,
            f"worst |u - grid| = {report['worst_abs_error']:.2e}, "
            f"{report['elapsed_s']:.1f}s for 500 instances",
        )


class TestCriterion5Decomposition:
    def test_residual_identity(self):
        report = validate_mod.decomposition_suite(seed=7, cases=100, tol=1e-8)
        _report(
            "5 (residual decomposition)",
            report["passed"],
            f"worst relative error {report['worst_relative_error']:.2e} over "
            f"{report['cases']} cases, r in (2, 3, 4)",
        )


class TestCriterion6KernelValidity:
    def test_gram_positive_semidefinite(self):
        report = validate_mod.kernel_suite(seed=11, cases=200, tol=-1e-8)
        _report(
            "6 (kernel validity)",
            report["passed"],
            f"min Gram eigenvalue {report['min_gram_eigenvalue']:.2e} over 200 draws",
        )


class TestCriterion7PosteriorStructure:
    def test_homogeneity_and_oracle_equivalence(self):
        rng = np.random.default_rng(31)
        worst_hom = 0.0
        worst_oracle = 0.0
        for _ in range(50):
            N = int(rng.integers(1, 12))
            n, q = 2, 3
            X = rng.normal(size=(N, n))
            Y = rng.normal(size=(N, q)) * 2.0
            z = rng.normal(size=N)
            sn2 = float(rng.uniform(1e-3, 0.1))
            params = [
                BaseKernelParams(rng.uniform(0.3, 2.0), rng.uniform(0.5, 2.0, size=n))
                for _ in range(q)
            ]
            model = fit(ResidualDataset(X=X, Y=Y, z=z, noise_variance=sn2), params)
            xstar = rng.normal(size=n)
            ystar = rng.normal(size=q)
            alpha = float(rng.uniform(-3.0, 3.0))
            mu, sigma = posterior_coefficients(model, xstar)

            mean = float(mu @ ystar)
            var = float(ystar @ sigma @ ystar)
            worst_hom = max(
                worst_hom,
                abs(float(mu @ (alpha * ystar)) - alpha * mean) / max(1.0, abs(mean)),
                abs(float((alpha * ystar) @ sigma @ (alpha * ystar)) - alpha**2 * var)
                / max(1.0, var),
            )
            sf2s = [p.signal_variance for p in params]
            ells = [p.lengthscales for p in params]
            kfn = lambda x, y, x2, y2: composite_kernel_ref(x, y, x2, y2, sf2s, ells)
            mean_ref, var_ref = stacked_gp_posterior(X, Y, z, sn2, kfn, xstar, ystar)
            worst_oracle = max(worst_oracle, abs(mean - mean_ref), abs(var - var_ref))
        ok = worst_hom <= 1e-10 and worst_oracle <= 1e-8
        _report(
            "7 (posterior structure)",
            ok,
            f"homogeneity err {worst_hom:.2e} (tol 1e-10), "
            f"stacked-GP oracle err {worst_oracle:.2e} (tol 1e-8), 50 datasets",
        )


class TestCriterion8FeasibilityConditions:
    def test_condition_consistency_1000_states(self):
        report = validate_mod.feasibility_suite(seed=5, n_states=1000)
        ok = (
            report["states_checked"] >= 1000
            and report["necessary_counterexamples"] == 0
            and report["sufficient_counterexamples"] == 0
            and report["pointwise_condition_violations"] == 0
        )
        _report(
            "8 (feasibility conditions)",
            ok,
            f"{report['states_checked']} states, statuses {report['statuses']}, "
            f"necessary/sufficient counterexamples "
            f"{report['necessary_counterexamples']}/{report['sufficient_counterexamples']}, "
            f"pointwise condition violations {report['pointwise_condition_violations']}",
        )


class TestCriterion9BetaDegeneration:
    def test_beta_zero_matches_halfspace(self):
        from gpcbf.barrier import CertificateTerms

        rng = np.random.default_rng(41)
        worst = 0.0
        checked = 0
        while checked < 200:
            r, m = 2, 1
            cert = CertificateTerms(
                zf=rng.normal(size=r), zg=rng.normal(size=m), const=rng.normal()
            )
            mu = rng.normal(size=r + m)
            # near-zero effective authority puts the projection at |u| ~ 1e3+,
            # where an absolute 1e-8 comparison is below fp resolution for
            # either route; such states are flagged as degenerate elsewhere
            if abs(cert.zg[0] + mu[r]) < 1e-2:
                continue
            M = rng.normal(size=(r + m, r + m))
            sigma = M @ M.T + 0.1 * np.eye(r + m)
            gamma = np.array([rng.uniform(0.5, 4.0), 1.0])
            u_nom = rng.normal(size=m) * 3.0
            out = safety_filter_step(u_nom, cert, mu, sigma, 0.0, gamma, tol=1e-11)
            phi = effective_phi(cert, mu)
            expected = halfspace_qp_filter(u_nom, phi[r:], float(phi[:r] @ gamma))
            assert out.status == STATUS_OPTIMAL
            worst = max(worst, float(np.max(np.abs(out.u - expected))))
            checked += 1
        _report(
            "9 (beta degeneration)",
            worst <= 1e-8,
            f"worst |u_socp - u_halfspace| = {worst:.2e} over 200 states (tol 1e-8)",
        )
