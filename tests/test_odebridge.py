"""Tests for the scalar-equation bridge and the error-function example."""

import unittest

import numpy as np

from solsurf.expr import Param, parse
from solsurf.geom import EVAL_ERRORS, WeierstrassData
from solsurf.immersion import DomainRect, LambdaZero
from solsurf.odebridge import (AntiderivativeNode, NonIntegrableForm, OdeSpec,
                               erf_example_data, erf_example_surface,
                               free_params, kummer_crosscheck,
                               ode_coefficients, standard_potential,
                               weierstrass_from_ode)

POINTS = [0.5 + 0j, 1.2 + 0.3j, -0.4 + 0.7j]


class TestOdeCoefficients(unittest.TestCase):
    def test_erf_data_exact_strings(self):
        spec = ode_coefficients(erf_example_data(1))
        self.assertEqual(str(spec.p), "-2*z")
        self.assertEqual(str(spec.q), "-2")
        self.assertEqual(spec.lam, 1.0)

    def test_symbolic_order_survives(self):
        spec = ode_coefficients(erf_example_data(Param("n")))
        self.assertEqual(str(spec.q), "-2*n")
        self.assertEqual(free_params(spec.q), {"n"})

    def test_generic_data_numeric(self):
        data = WeierstrassData(eta=parse("1+z"), psi=parse("z^2"), z0=0j, lam=0.5)
        spec = ode_coefficients(data)
        for z in POINTS:
            self.assertLess(abs(spec.p.eval(z) + 2.0 / (1 + z)), 1e-12)
            self.assertLess(abs(spec.q.eval(z) + 0.5 * (1 + z) ** 2 * 2 * z), 1e-12)

    def test_bound_params_substituted(self):
        data = WeierstrassData(eta=parse("exp(a*z)", params={"a"}), psi=parse("z"),
                               z0=0j, lam=1.0, params={"a": 0.25})
        spec = ode_coefficients(data)
        self.assertEqual(free_params(spec.p), set())
        self.assertLess(abs(spec.p.eval(1.0) + 0.5), 1e-12)


class TestStandardPotential(unittest.TestCase):
    def test_erf_potential(self):
        for n in (1, 2):
            pot = standard_potential(erf_example_data(n))
            for z in POINTS:
                self.assertLess(abs(pot.eval(z) - (1 - z * z - 2 * n)), 1e-10)

    def test_gauge_constants_drop_out(self):
        # c and c1 change the data but not the normal-form potential
        a = standard_potential(erf_example_data(1))
        b = standard_potential(erf_example_data(1, c=2.0, c1=0.3))
        for z in POINTS:
            self.assertLess(abs(a.eval(z) - b.eval(z)), 1e-10)


class TestWeierstrassFromOde(unittest.TestCase):
    def test_erf_equation_closed_form(self):
        spec = OdeSpec(p=parse("-2*z"), q=parse("-2"), lam=1.0)
        data = weierstrass_from_ode(spec)
        self.assertEqual(str(data.eta), "exp(0.5*z^2)")
        self.assertEqual(str(data.psi), "sqrt(pi)*erf(z)")
        back = ode_coefficients(data)
        self.assertEqual(str(back.p), "-2*z")
        self.assertEqual(str(back.q), "-2")

    def test_polynomial_round_trip(self):
        spec = OdeSpec(p=parse("0"), q=parse("-12*z^2"), lam=1.0)
        data = weierstrass_from_ode(spec, c=2.0)
        for z in POINTS:
            self.assertLess(abs(data.eta.eval(z) - 2.0), 1e-12)
            self.assertLess(abs(data.psi.eval(z) - z ** 3), 1e-12)

    def test_numeric_fallback_round_trip(self):
        # q/eta^2 has no closed antiderivative here; the numeric node must
        # still reproduce the coefficients exactly through its derivative
        spec = OdeSpec(p=parse("3*z^2"), q=parse("1+z"), lam=0.5)
        data = weierstrass_from_ode(spec)
        self.assertTrue(any(isinstance(e, AntiderivativeNode)
                            for e in _walk(data.psi)))
        back = ode_coefficients(data)
        for z in (0.3, 0.4 + 0.2j):
            self.assertLess(abs(back.p.eval(z) - 3 * z * z), 1e-9)
            self.assertLess(abs(back.q.eval(z) - (1 + z)), 1e-9)

    def test_failed_antiderivative_is_an_evaluation_error(self):
        # eta = exp(-1/2 int 1/z) from z0 = 0.5+0.5i has no value at the
        # pole z = 0: the scalar closure raises an EVAL_ERRORS member, as
        # every closure does at a bad point, and the array closure gives NaN
        spec = OdeSpec(p=parse("1/z"), q=parse("1"), lam=1.0)
        data = weierstrass_from_ode(spec, z0=0.5 + 0.5j)
        eta_f = data.functions()[0]
        eta_a = data.array_functions()[0]
        with self.assertRaises(EVAL_ERRORS):
            eta_f(0j)
        self.assertTrue(bool(np.isnan(eta_a(np.array([0j]))[0])))

    def test_rejects_degenerate_input(self):
        with self.assertRaises(ValueError):
            weierstrass_from_ode(OdeSpec(p=parse("0"), q=parse("1"), lam=0.0))
        with self.assertRaises(NonIntegrableForm):
            weierstrass_from_ode(OdeSpec(p=parse("a*z"), q=parse("1"), lam=1.0))

    def test_rejects_lambda_whose_reciprocal_overflows(self):
        # psi = -(1/lambda) int q/eta^2 - c1, and 1/1e-320 is inf
        with self.assertRaises(LambdaZero):
            weierstrass_from_ode(OdeSpec(p=parse("0"), q=parse("1"),
                                         lam=1e-320))


def _walk(e):
    yield e
    for name in getattr(e, "__dataclass_fields__", {}):
        v = getattr(e, name)
        if hasattr(v, "__dataclass_fields__"):
            yield from _walk(v)


class TestErfExampleData(unittest.TestCase):
    def test_base_values(self):
        data = erf_example_data(1, c=1.3, c1=0.25)
        self.assertLess(abs(data.eta.eval(0.0) - 1.3), 1e-12)
        self.assertLess(abs(data.psi.eval(0.0) + 0.25), 1e-12)
        self.assertEqual(data.z0, 1.0 + 0j)

    def test_q_constancy_identity(self):
        # lambda eta^2 psi' is identically 2n whatever c and lambda are
        for n, lam, c in ((1, 1.0, 1.0), (2, 0.7, 1.3), (3, 0.25, 0.8)):
            data = erf_example_data(n, c=c, lam=lam)
            _, _, _, dpsi = data.functions()
            eta_f = data.functions()[0]
            for z in POINTS:
                got = lam * eta_f(z) ** 2 * dpsi(z)
                self.assertLess(abs(got - 2 * n), 1e-10)

    def test_rejects_zero_lambda(self):
        with self.assertRaises(ValueError):
            erf_example_data(1, lam=0.0)

    def test_rejects_lambda_whose_coefficient_overflows(self):
        # psi's coefficient n/(lambda c^2) would be inf
        with self.assertRaises(LambdaZero):
            erf_example_data(2, lam=1e-320)

    def test_surface_patch(self):
        patch = erf_example_surface(1, domain=DomainRect(0.8, 1.2, -0.2, 0.2, 9, 9))
        self.assertTrue(bool(np.all(patch.valid)))
        self.assertLess(float(np.nanmax(patch.residuals["hyperboloid"])), 1e-8)


class TestKummerCrosscheck(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.report = kummer_crosscheck(1)

    def test_report_shape(self):
        rep = self.report
        for key in ("n", "sigma", "column_deviation", "fd_residual",
                    "scalar_residual", "beta_relation_residual",
                    "wronskian_abs", "base_point_deviation", "max_deviation",
                    "pass", "notes"):
            self.assertIn(key, rep)
        self.assertEqual(np.shape(rep["column_deviation"]), (2, 2))
        self.assertIsInstance(rep["pass"], bool)

    def test_columns_independent(self):
        self.assertGreater(self.report["wronskian_abs"], 1e-6)

    def test_companion_equation_diagnosis(self):
        # the tabulated columns satisfy w'' + 2z w' - 2n w = 0, with the
        # opposite first-order sign from the target equation; the report
        # must measure and name that
        scalar = self.report["scalar_residual"]
        self.assertLess(scalar["companion"], 1e-4)
        self.assertGreater(scalar["stated"], 1e-1)
        self.assertTrue(any("companion" in note for note in self.report["notes"]))


if __name__ == "__main__":
    unittest.main()
