import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from gpcbf.barrier import (
    CertificateTerms,
    HocbfDesign,
    certificate_terms,
    elementary_symmetric,
    gains_from_char_coeffs,
    gamma_vector,
    halfspace_qp_filter,
    zeta_chain,
)
from gpcbf.errors import InfeasibleConstraintError, InvalidDesignError
from gpcbf.plants import (
    ACC_NOMINAL,
    ACC_TRUE,
    SUSPENSION_NOMINAL,
    SUSPENSION_TRUE,
    acc_design,
    make_acc_plant,
    make_suspension_plant,
    suspension_design,
)

from _oracles import (
    SymbolicSystem,
    certificate_terms_numpy,
    certificate_value,
    double_integrator_design,
    grid_min_norm_halfspace,
    halfspace_projection_vector,
    plant_symbolic_system,
    run_statements,
)


def _design_with_row(row):
    """The design h = -x1 of the double integrator, its LgLf h row passed through params."""
    row = np.atleast_1d(row)
    lg = "".join(f"\nlg{j} = row{j}" for j in range(row.size))
    params = {f"row{j}": v for j, v in enumerate(row)}
    return HocbfDesign(2, row.size, "h = -x0\nlf1 = -x1\nlf2 = 0.0" + lg, params, [1.0, 1.0])


class TestElementarySymmetric:
    def test_two_gains(self):
        np.testing.assert_allclose(elementary_symmetric([1.5, 2.5]), [4.0, 3.75])

    def test_single_gain(self):
        np.testing.assert_allclose(elementary_symmetric([1.0]), [1.0])

    def test_back_solved_suspension_gains(self):
        e = elementary_symmetric([15.475, 25.525])
        np.testing.assert_allclose(e, [41.0, 395.0], atol=5e-2)

    @pytest.mark.parametrize("bad", [[0.0], [1.0, -2.0], []])
    def test_rejects_invalid(self, bad):
        with pytest.raises(InvalidDesignError):
            elementary_symmetric(bad)

    def test_vieta_against_polynomial_expansion(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            r = int(rng.integers(1, 6))
            k = rng.uniform(0.05, 10.0, size=r)
            e = elementary_symmetric(k)
            # np.poly expands prod (s + k_i) independently
            coeffs = np.poly(-k)[1:]
            np.testing.assert_allclose(e, coeffs, rtol=1e-10)


class TestGammaVector:
    @pytest.mark.parametrize(
        "gains, gamma",
        [([0.7], [1.0]), ([1.5, 2.5], [4.0, 1.0]), ([1.0, 2.0, 3.0], [11.0, 6.0, 1.0])],
        ids=["r1", "r2", "r3"],
    )
    def test_hand_values(self, gains, gamma):
        np.testing.assert_allclose(gamma_vector(gains), gamma)

    def test_last_entry_always_one(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            k = rng.uniform(0.1, 5.0, size=rng.integers(1, 6))
            assert gamma_vector(k)[-1] == 1.0


class TestGainsFromCharCoeffs:
    def test_acc_pair(self):
        np.testing.assert_allclose(gains_from_char_coeffs([4.0, 3.75]), [1.5, 2.5])

    def test_suspension_pair(self):
        k = gains_from_char_coeffs([41.0, 395.0])
        np.testing.assert_allclose(k, [(41 - np.sqrt(101)) / 2, (41 + np.sqrt(101)) / 2])

    def test_complex_roots_rejected(self):
        with pytest.raises(InvalidDesignError):
            gains_from_char_coeffs([0.0, 1.0])


class TestCertificateTerms:
    def test_double_integrator_hand_values(self):
        design = double_integrator_design([1.0, 1.0], D=0.0)
        cert = certificate_terms(design, np.array([1.0, 2.0]))
        np.testing.assert_allclose(cert.zf, [-2.0, 0.0])
        np.testing.assert_allclose(cert.zg, [-1.0])
        assert cert.const == pytest.approx(-1.0)

    def test_acc_hand_values(self):
        design = acc_design(ACC_NOMINAL, gains=(1.5, 2.5), D=30.0)
        cert = certificate_terms(design, np.array([20.0, 100.0]))
        np.testing.assert_allclose(cert.zf, [-4.0, 200.1 / 825.0])
        np.testing.assert_allclose(cert.zg, [-1.0 / 825.0])
        assert cert.const == pytest.approx(3.75 * 70.0)

    def test_suspension_first_drift_term(self):
        design = suspension_design(SUSPENSION_NOMINAL, gains=(15.475, 25.525), D=0.06)
        cert = certificate_terms(design, np.array([0.01, 0.0, 0.2, 0.0]))
        assert cert.zf[0] == pytest.approx(-0.2)

    def test_value_is_affine_in_u(self):
        design = acc_design(ACC_NOMINAL, gains=(1.5, 2.5), D=30.0)
        cert = certificate_terms(design, np.array([18.0, 60.0]))
        v0 = certificate_value(cert, design.gamma, np.array([0.0]))
        v1 = certificate_value(cert, design.gamma, np.array([1.0]))
        v5 = certificate_value(cert, design.gamma, np.array([5.0]))
        assert v5 == pytest.approx(v0 + 5.0 * (v1 - v0), rel=1e-12)


class TestCertificateTermsOnFloats:
    """certificate_terms reads the state as floats; the bits are those of numpy scalars."""

    DESIGNS = {
        "acc": (lambda: acc_design(ACC_NOMINAL, gains=(1.5, 2.5), D=30.0), 2),
        "suspension": (lambda: suspension_design(SUSPENSION_NOMINAL, gains=(15.475, 25.525)), 4),
        "synthetic": (lambda: double_integrator_design((2.0, 3.0)), 2),
    }

    @pytest.mark.parametrize("plant", sorted(DESIGNS))
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_matches_evaluation_on_numpy_scalars(self, plant, data):
        make, n = self.DESIGNS[plant]
        design = make()
        entries = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
        x = np.array(data.draw(st.lists(entries, min_size=n, max_size=n)))
        cert = certificate_terms(design, x)
        zf, zg, h = certificate_terms_numpy(design, x)
        assert type(cert.zf) is list and type(cert.zg) is list
        assert all(type(v) is float for v in cert.zf + cert.zg)
        assert np.array(cert.zf).tobytes() == zf.tobytes()
        assert np.array(cert.zg).tobytes() == zg.tobytes()
        assert repr(cert.h) == repr(h)
        assert repr(cert.const) == repr(design.e_r * h)

    @pytest.mark.parametrize(
        "row", [np.array([np.nan]), np.array([np.inf]), np.array([1.0, -np.inf]), [np.nan], -np.inf]
    )
    def test_non_finite_actuation_row_raises(self, row):
        with pytest.raises(InvalidDesignError, match="non-finite actuation row"):
            certificate_terms(_design_with_row(row), np.array([1.0, 2.0]))


class TestZetaChain:
    def test_double_integrator(self):
        design = double_integrator_design([1.0, 1.0], D=0.0)
        np.testing.assert_allclose(zeta_chain(design, np.array([1.0, 2.0])), [-1.0, -3.0])

    def test_zero_barrier_gives_zero_head(self):
        design = double_integrator_design([2.0, 3.0], D=0.0)
        assert zeta_chain(design, np.array([0.0, 1.5]))[0] == 0.0

    def test_acc(self):
        design = acc_design(ACC_NOMINAL, gains=(1.5, 2.5), D=30.0)
        np.testing.assert_allclose(
            zeta_chain(design, np.array([20.0, 100.0])), [70.0, -4.0 + 1.5 * 70.0]
        )


class TestHalfspaceFilter:
    def test_multidim_feasible(self):
        np.testing.assert_allclose(
            halfspace_qp_filter([3.0, 4.0], [0.0, 1.0], 0.0), [3.0, 4.0]
        )

    def test_infeasible_raises(self):
        with pytest.raises(InfeasibleConstraintError):
            halfspace_qp_filter([1.0], [0.0], -1.0)

    @pytest.mark.parametrize(
        "u_nom, a, b",
        [
            ([0.0], [6.8e-155], -1.0),  # |a|^2 is subnormal and the step overflows to inf
            ([0.0, 0.0], [6.8e-155, 0.0], -1.0),  # the vector step holds inf * 0, a NaN
            ([0.0, 0.0], [1e-10, 1e-10], -1e300),  # a huge violation over a small |a|
        ],
    )
    def test_projection_that_is_not_finite_raises(self, u_nom, a, b):
        # RuntimeWarnings are errors under the suite's filterwarnings
        with pytest.raises(InfeasibleConstraintError):
            halfspace_qp_filter(u_nom, a, b)

    def test_result_satisfies_constraint(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            m = int(rng.integers(1, 4))
            a = rng.normal(size=m)
            if np.linalg.norm(a) < 1e-6:
                continue
            b = rng.normal()
            u = halfspace_qp_filter(rng.normal(size=m) * 3, a, b)
            assert a @ u + b >= -1e-12

    def test_matches_grid_search(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            a = rng.normal()
            if abs(a) < 0.1:
                continue
            b = rng.normal() * 5
            u_nom = rng.normal() * 5
            u = halfspace_qp_filter(u_nom, [a], b)[0]
            u_grid = grid_min_norm_halfspace(u_nom, a, b)
            assert abs(u - u_grid) <= 1e-4

    def test_one_input_bitwise_equal_to_vector_formula(self):
        rng = np.random.default_rng(19)
        zeros = [0.0, -0.0]
        sides = {"feasible": 0, "projected": 0, "raised": 0}
        for _ in range(3000):
            scale = 10.0 ** rng.uniform(-8.0, 8.0, size=3)
            u_nom, a, b = (rng.normal(size=3) * scale).tolist()
            # signed zeros in any slot; a zero a makes the constraint empty or trivial
            if rng.uniform() < 0.2:
                u_nom = zeros[int(rng.integers(2))]
            if rng.uniform() < 0.1:
                a = zeros[int(rng.integers(2))]
            if rng.uniform() < 0.1:
                b = zeros[int(rng.integers(2))]
            want = halfspace_projection_vector([u_nom], [a], b)
            if want is None:
                with pytest.raises(InfeasibleConstraintError):
                    halfspace_qp_filter(np.array([u_nom]), np.array([a]), b)
                sides["raised"] += 1
                continue
            for args in (
                (np.array([u_nom]), np.array([a]), b), (u_nom, a, np.float64(b)), ((u_nom,), (a,), b)
            ):
                got = halfspace_qp_filter(*args)
                assert type(got) is tuple and len(got) == 1 and type(got[0]) is float
                assert np.array(got).tobytes() == want.tobytes()
            sides["feasible" if want.tobytes() == np.array([u_nom]).tobytes() else "projected"] += 1
        assert min(sides.values()) >= 50, sides

    @pytest.mark.parametrize("a", [0.0, -0.0])
    def test_one_input_zero_row_raises_only_when_violated(self, a):
        with pytest.raises(InfeasibleConstraintError):
            halfspace_qp_filter(3.0, a, -1e-300)
        assert np.array(halfspace_qp_filter(3.0, a, 0.0)).tobytes() == np.array([3.0]).tobytes()


def _symbolic_polynomial_pair(r, rng):
    """Nonlinear strict-feedback true/nominal pair; residuals stay analytic."""
    xs = sp.symbols(f"x1:{r + 1}")
    drift_true, drift_nom = [], []
    for i in range(r - 1):
        pert = rng.uniform(-0.5, 0.5) * xs[0] ** 2 + rng.uniform(-0.5, 0.5) * xs[i]
        drift_true.append(xs[i + 1] + pert)
        drift_nom.append(xs[i + 1])
    drift_true.append(rng.uniform(-0.5, 0.5) * xs[0] + rng.uniform(-0.3, 0.3) * xs[0] ** 2)
    drift_nom.append(sp.Integer(0))
    gain_true = [sp.Integer(0)] * (r - 1) + [sp.Integer(1) + sp.Rational(1, 4)]
    gain_nom = [sp.Integer(0)] * (r - 1) + [sp.Integer(1)]
    h = xs[0]
    return (
        SymbolicSystem(xs, drift_true, gain_true, h),
        SymbolicSystem(xs, drift_nom, gain_nom, h),
    )


class TestResidualDecomposition:
    """zeta_r(true) = zeta_r(nominal) + gamma-weighted residuals (exact)."""

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_against_symbolic_recursion(self, r):
        rng = np.random.default_rng(17 + r)
        true_sys, nom_sys = _symbolic_polynomial_pair(r, rng)
        gains = rng.uniform(0.5, 3.0, size=r)
        gamma = gamma_vector(gains)

        true_lfs, true_lg = true_sys.lambdify_chain(r)
        nom_lfs, nom_lg = nom_sys.lambdify_chain(r)
        for _ in range(100):
            x = rng.normal(size=r)
            u = rng.normal() * 2
            zeta_true = true_sys.zeta_r(gains, x, u)
            zeta_nom = nom_sys.zeta_r(gains, x, u)
            resid = sum(
                gamma[i - 1] * (true_lfs[i](*x) - nom_lfs[i](*x)) for i in range(1, r + 1)
            )
            resid += (true_lg(*x) - nom_lg(*x)) * u
            assert abs(zeta_true - (zeta_nom + resid)) <= 1e-8 * max(1.0, abs(zeta_true))


# Each benchmark's plant factory, design factory, gains, threshold and its
# nominal and true parameters.  The suspension's bump starts at t = 1 s, so
# its statements at t = 0 leave the road out.
_BENCHMARKS = {
    "acc": (
        make_acc_plant, acc_design, (1.5, 2.5), 30.0, {"nominal": ACC_NOMINAL, "true": ACC_TRUE}
    ),
    "suspension": (
        lambda params: make_suspension_plant(params, 0.1, 1.0, 1.0),
        suspension_design,
        gains_from_char_coeffs([41.0, 395.0]),
        0.06,
        {"nominal": SUSPENSION_NOMINAL, "true": SUSPENSION_TRUE},
    ),
}


def _plant_and_design(name, side):
    make_plant, make_design, gains, D, params = _BENCHMARKS[name]
    return make_plant(params[side]), make_design(params[side], gains, D)


def _assert_same_coefficients(got, want):
    """got and want, expanded, have the same monomials, each coefficient within 1e-12 relative."""
    got, want = (sp.expand(sp.sympify(e)).as_coefficients_dict() for e in (got, want))
    for monomial in got.keys() | want.keys():
        a, b = float(got.get(monomial, 0)), float(want.get(monomial, 0))
        assert abs(a - b) <= 1e-12 * max(abs(a), abs(b)), (monomial, a, b)


class TestCertificateConsistency:
    """A design's statements are the Lie chain of its plant's own statements, run on symbols."""

    @pytest.mark.parametrize("side", ["nominal", "true"])
    @pytest.mark.parametrize("name", sorted(_BENCHMARKS))
    def test_design_statements_are_the_plants_lie_chain(self, name, side):
        plant, design = _plant_and_design(name, side)
        system = plant_symbolic_system(plant, design)
        symbols = {str(x): x for x in system.states}
        stated = run_statements(design.derivatives, design.params, symbols)
        chain = system.lf_chain(design.r)
        for i in range(1, design.r + 1):
            _assert_same_coefficients(stated[f"lf{i}"], chain[i])
        row = system.lg_row(chain[design.r - 1])
        assert len(row) == design.m and all(v != 0 for v in row)
        for j, want in enumerate(row):
            _assert_same_coefficients(stated[f"lg{j}"], want)

    @pytest.mark.parametrize("plant_name", ["acc", "suspension"])
    def test_against_symbolic_zeta_r(self, plant_name):
        # the affine decomposition equals the recursive chain on the nominal plant
        rng = np.random.default_rng(23)
        plant, design = _plant_and_design(plant_name, "nominal")
        system = plant_symbolic_system(plant, design)
        if plant_name == "acc":
            sample = lambda: np.array([rng.uniform(10, 30), rng.uniform(20, 120)])
        else:
            sample = lambda: rng.uniform(-0.2, 0.2, size=4)

        for _ in range(50):
            x = sample()
            u = rng.normal() * 100
            cert = certificate_terms(design, x)
            affine_val = certificate_value(cert, design.gamma, np.array([u]))
            recursive_val = system.zeta_r(design.gains, x, u)
            assert abs(affine_val - recursive_val) <= 1e-10 * max(1.0, abs(recursive_val))
