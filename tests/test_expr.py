"""Tests for the expression parser, evaluator, and symbolic derivative."""

import cmath
import math
import unittest

import numpy as np

from solsurf.expr import (ExprSyntaxError, UnknownFunction, UnknownIdentifier,
                          UnboundParameter, PoleOrOverflow, Param, Num, parse,
                          evaluate, derivative, simplify, subst_params)
from solsurf.odebridge import AntiderivativeNode

POINTS = [0.3 + 0.4j, -1.2 + 0.1j, 2.0 - 0.5j, 0.05j, 1.0 + 0.0j]


def fd_derivative(e, z, params=None, h=1e-6):
    fp = evaluate(e, z + h, params=params)
    fm = evaluate(e, z - h, params=params)
    return (fp - fm) / (2.0 * h)


class TestParseEvaluate(unittest.TestCase):
    """Every expression is checked against plain Python complex arithmetic."""

    def check(self, text, fn, points=POINTS):
        e = parse(text)
        for z in points:
            self.assertAlmostEqual(evaluate(e, z), fn(z), places=12,
                                   msg="%s at %r" % (text, z))

    def test_polynomial(self):
        self.check("1+z", lambda z: 1 + z)
        self.check("z^2-3*z+2", lambda z: z * z - 3 * z + 2)
        self.check("-z^3", lambda z: -z ** 3)
        self.check("(1+z)*(1-z)", lambda z: (1 + z) * (1 - z))

    def test_precedence_and_unary(self):
        self.check("2*z^2", lambda z: 2 * z ** 2)
        self.check("-z^2", lambda z: -(z ** 2))
        self.check("2^3^z", lambda z: 2 ** (3 ** z))
        self.check("1-2-3*z", lambda z: 1 - 2 - 3 * z)
        self.check("6/2/3", lambda z: 1.0)

    def test_constants(self):
        self.check("i*z", lambda z: 1j * z)
        self.check("pi", lambda z: complex(math.pi))
        self.check("e^z", lambda z: math.e ** z)
        self.check("2*pi*i", lambda z: 2j * math.pi)

    def test_functions(self):
        self.check("exp(z)", cmath.exp)
        self.check("exp(z^2/2)", lambda z: cmath.exp(z * z / 2))
        self.check("sqrt(1+z^2)", lambda z: cmath.sqrt(1 + z * z))
        self.check("sin(z)*cos(z)", lambda z: cmath.sin(z) * cmath.cos(z))
        self.check("log(2+z)", lambda z: cmath.log(2 + z))
        self.check("cosh(z)^2-sinh(z)^2", lambda z: 1.0 + 0j)

    def test_erf(self):
        e = parse("erf(z)")
        self.assertAlmostEqual(evaluate(e, 1.0), 0.842700792949715, places=12)
        self.assertAlmostEqual(evaluate(e, -1.0), -0.842700792949715, places=12)

    def test_whitespace_and_nesting(self):
        self.check("  ( z +  1 ) * exp( -z )  ", lambda z: (z + 1) * cmath.exp(-z))

    def test_format_round_trip(self):
        for text in ("z^2-3*z+2", "exp(z^2/2)", "(1+z)/(2-z)", "-2*z",
                     "sqrt(pi)*erf(z)", "z*(z+1)*(z+2)", "2^z"):
            e = parse(text)
            again = parse(str(e))
            for z in POINTS:
                self.assertAlmostEqual(evaluate(e, z), evaluate(again, z),
                                       places=12, msg=text)


class TestParseErrors(unittest.TestCase):
    def test_syntax(self):
        for bad in ("", "1+", "(z", "z)", "* z", "1 2", "z^", "1..2"):
            with self.assertRaises(ExprSyntaxError, msg=bad):
                parse(bad)

    def test_unknown_function(self):
        with self.assertRaises(UnknownFunction):
            parse("tan(z)")

    def test_unknown_identifier(self):
        # strict mode: identifiers outside the declared parameter set fail
        with self.assertRaises(UnknownIdentifier):
            parse("z + q", params={"a"})
        # permissive mode defers to evaluation time
        e = parse("z + q")
        with self.assertRaises(UnboundParameter):
            evaluate(e, 1.0)

    def test_params_must_be_declared(self):
        e = parse("a*z", params={"a"})
        self.assertAlmostEqual(evaluate(e, 2.0, params={"a": 3.0}), 6.0)
        with self.assertRaises(UnboundParameter):
            evaluate(e, 2.0)

    def test_pole_raises(self):
        e = parse("1/z")
        with self.assertRaises(PoleOrOverflow):
            evaluate(e, 0.0)


class TestDerivative(unittest.TestCase):
    """Symbolic derivatives against central differences."""

    EXPRS = ["z^3-2*z", "exp(z^2/2)", "1/(1+z^2)", "sqrt(1+z)",
             "sin(2*z)", "z*exp(-z)", "log(2+z)", "erf(z)",
             "(1+z)^4", "cosh(z)*z^2", "2^z"]

    def test_against_finite_differences(self):
        for text in self.EXPRS:
            e = parse(text)
            de = derivative(e)
            for z in POINTS:
                want = fd_derivative(e, z)
                got = evaluate(de, z)
                self.assertLess(abs(got - want), 1e-7 * max(1.0, abs(want)),
                                "d/dz %s at %r: %r vs %r" % (text, z, got, want))

    def test_erf_derivative_closed_form(self):
        de = derivative(parse("erf(z)"))
        for z in POINTS:
            want = 2.0 / math.sqrt(math.pi) * cmath.exp(-z * z)
            self.assertAlmostEqual(evaluate(de, z), want, places=12)

    def test_second_derivative(self):
        d2 = derivative(derivative(parse("exp(z^2/2)")))
        for z in POINTS:
            want = (1 + z * z) * cmath.exp(z * z / 2)
            self.assertLess(abs(evaluate(d2, z) - want), 1e-10 * abs(want))

    def test_derivative_with_params(self):
        e = parse("a*z^2+b", params={"a", "b"})
        de = derivative(e)
        binding = {"a": 2.5, "b": -1.0}
        for z in POINTS:
            self.assertAlmostEqual(evaluate(de, z, params=binding), 5.0 * z,
                                   places=12)


class TestSingleEvaluator(unittest.TestCase):
    """eval is the compiled closure with a check of the result only."""

    def test_eval_is_the_compiled_closure(self):
        for text in TestDerivative.EXPRS:
            e = parse(text)
            f = e.compiled()
            for z in POINTS:
                got = evaluate(e, z)
                want = f(z)
                self.assertEqual((got.real, got.imag), (want.real, want.imag),
                                 "%s at %r" % (text, z))

    def test_result_checked(self):
        with self.assertRaises(PoleOrOverflow):
            evaluate(parse("exp(z)"), 30.0)          # beyond the blowup bound
        with self.assertRaises(PoleOrOverflow):
            evaluate(parse("log(z)"), 0.0)

    def test_intermediate_values_unchecked(self):
        # exp(30) exceeds the bound, but the product cancels it
        v = evaluate(parse("exp(z)*exp(-z)"), 30.0)
        self.assertLess(abs(v - 1.0), 1e-12)

    def test_antiderivative_node(self):
        node = AntiderivativeNode(parse("sin(z)*exp(z)"), 0.2 + 0.1j)
        f = node.compiled()
        for z in POINTS:
            self.assertEqual(node.eval(z), f(z), "at %r" % (z,))


class TestSubstParams(unittest.TestCase):
    def test_partial_binding(self):
        e = parse("a*z+b", params={"a", "b"})
        half = subst_params(e, {"a": 2.0})
        with self.assertRaises(UnboundParameter):
            evaluate(half, 1.0)
        full = subst_params(half, {"b": 3.0})
        self.assertAlmostEqual(evaluate(full, 1.0), 5.0)

    def test_unmentioned_bindings_ignored(self):
        e = parse("z^2")
        same = subst_params(e, {"a": 1.0})
        self.assertAlmostEqual(evaluate(same, 2.0), 4.0)


class TestSimplify(unittest.TestCase):
    """Structural simplification used by the scalar-equation bridge."""

    def assertSameExpr(self, got, want_text):
        self.assertEqual(str(got), str(parse(want_text)))

    def test_cancels_exponentials(self):
        # e^{z^2} from the square of exp(z^2/2) against e^{-z^2}
        e = parse("exp(z^2/2)*exp(z^2/2)*exp(-z^2)*(-2)")
        self.assertSameExpr(simplify(e), "-2")

    def test_cancels_rational_factor(self):
        e = parse("(-2)*(z*exp(z^2/2))/exp(z^2/2)")
        self.assertSameExpr(simplify(e), "-2*z")

    def test_keeps_symbolic_parameter(self):
        e = parse("(-2)*n*exp(z^2)*exp(-z^2)", params={"n"})
        self.assertSameExpr(simplify(e), str(parse("-2*n", params={"n"})))

    def test_value_preserved(self):
        texts = ["(1+z)*(1-z)/(1+z)", "exp(z)*exp(-z)*z^2",
                 "2*z*exp(z^2)/(2*exp(z^2))", "-(z*4)/2",
                 "z^3/z"]
        for text in texts:
            e = parse(text)
            s = simplify(e)
            for z in [0.7 + 0.2j, -0.4 + 1.1j]:
                self.assertAlmostEqual(evaluate(s, z), evaluate(e, z),
                                       places=10, msg=text)

    def test_zero_exponent_collapses(self):
        e = parse("exp(z^2-z^2)")
        self.assertEqual(str(simplify(e)), "1")

    def test_leaves_are_untouched(self):
        self.assertIsInstance(simplify(Num(3.0)), Num)
        self.assertIsInstance(simplify(Param("n")), Param)


if __name__ == "__main__":
    unittest.main()
