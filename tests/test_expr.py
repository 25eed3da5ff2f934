"""Tests for the expression parser, evaluator, and symbolic derivative."""

import cmath
import math
import unittest
import warnings

import numpy as np

from solsurf.expr import (ExprSyntaxError, UnknownFunction, UnknownIdentifier,
                          UnboundParameter, PoleOrOverflow, Param, Num, Pow,
                          Div, Var, parse, evaluate, derivative, simplify,
                          subst_params)
from solsurf.odebridge import AntiderivativeNode

POINTS = [0.3 + 0.4j, -1.2 + 0.1j, 2.0 - 0.5j, 0.05j, 1.0 + 0.0j]


def fd_derivative(e, z, params=None, h=1e-3):
    """Fourth-order central difference.  A step this wide reads erf's
    jumps of up to its 0.5e-12 tolerance, where its summed degree
    changes, as about 1e-9, wherever the jumps lie."""
    def f(w):
        return evaluate(e, w, params=params)

    return (-f(z + 2 * h) + 8 * f(z + h) - 8 * f(z - h)
            + f(z - 2 * h)) / (12 * h)


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


def _pow_oracle(base, expo):
    # the scalar power the library had before it used Python's own: integral
    # exponents up to 1024 through an int power, with its own error for 0
    # to a negative power
    if expo.imag == 0.0 and expo.real == int(expo.real) and abs(expo.real) <= 1024:
        n = int(expo.real)
        if base == 0 and n < 0:
            raise ZeroDivisionError("0 raised to a negative power")
        return base ** n
    return base ** expo


def _outcome(f, *args):
    # repr of the value, or the type of the exception raised
    try:
        return repr(f(*args))
    except Exception as exc:
        return type(exc)


class TestScalarPower(unittest.TestCase):
    """The scalar closure of z^b is Python's complex power, which gives the
    values and the exceptions of the integer-power rule it replaced: an
    integral exponent up to 100 in magnitude multiplies repeatedly, and 0
    to a negative power raises ZeroDivisionError."""

    rng = np.random.default_rng(7)
    BASES = ([0j, 1 + 0j, -1 + 0j, 1j, 1e-300 + 0j, 1e300 + 1j]
             + [complex(x, y) for x, y in rng.uniform(-3, 3, (300, 2))])
    EXPONENTS = ([complex(n) for n in range(-120, 121)]
                 + [complex(n) for n in (101, -101, 500, 1000, -1000, 1024,
                                         -1024, 1025, 2000)]
                 + [0.5 + 0j, 2.5 + 0.5j, complex(2.0, 1e-300)])

    def test_bound_exponent_against_the_oracle(self):
        power = Pow(Var(), Param("b"))
        outcomes = set()
        for b in self.EXPONENTS:
            f = power.compiled({"b": b})
            for z in self.BASES:
                want = _outcome(_pow_oracle, z, b)
                self.assertEqual(_outcome(f, z), want, "%r^%r" % (z, b))
                outcomes.add(want)
        # both of the oracle's errors occur among the pairs
        self.assertLessEqual({ZeroDivisionError, OverflowError}, outcomes)

    def test_literal_exponent_against_the_oracle(self):
        # a nonnegative integral literal took a branch of its own
        for b in self.EXPONENTS:
            if b.imag or b.real < 0 or b.real != int(b.real):
                continue
            f = Pow(Var(), Num(b.real)).compiled()
            for z in self.BASES:
                self.assertEqual(_outcome(f, z), _outcome(_pow_oracle, z, b),
                                 "%r^%r" % (z, b))


def _div_oracle(x, y, array):
    # the rule Div._compile had before the leaf library supplied the
    # quotient: Python's / for scalars, NaN at a zero denominator for arrays
    if array:
        return np.where(y == 0, complex(math.nan, math.nan), x / y)
    return x / y


class TestQuotient(unittest.TestCase):
    """Div compiles by one rule, the library's quotient, which gives the
    values and the exceptions of the two rules it replaced."""

    rng = np.random.default_rng(11)
    SPECIAL = [complex(re, im) for re in (0.0, -0.0) for im in (0.0, -0.0)]
    SPECIAL += [complex(math.inf, 0.0), complex(-math.inf, 0.0),
                complex(0.0, math.inf), complex(0.0, -math.inf),
                complex(math.nan, 0.0), complex(math.nan, math.nan)]
    DENOMINATORS = SPECIAL + [complex(x, y)
                              for x, y in rng.uniform(-3, 3, (300, 2))]
    NUMERATORS = [1 + 0j, 0j, complex(-0.0, -0.0), 2.5 - 1j, 1e300 + 1e300j,
                  complex(math.inf, 0.0), complex(math.nan, 0.0)]

    def test_scalar_closure_against_the_oracle(self):
        outcomes = set()
        for a in self.NUMERATORS:
            f = Div(Param("a"), Var()).compiled({"a": a})
            for z in self.DENOMINATORS:
                want = _outcome(_div_oracle, a, z, False)
                self.assertEqual(_outcome(f, z), want, "%r/%r" % (a, z))
                outcomes.add(want)
        self.assertIn(ZeroDivisionError, outcomes)

    def test_array_closure_against_the_oracle(self):
        z = np.array(self.DENOMINATORS)
        for a in self.NUMERATORS:
            got = Div(Param("a"), Var()).compiled_array({"a": a})(z)
            with np.errstate(all="ignore"):
                want = _div_oracle(a, z, True)
            np.testing.assert_array_equal(got.view(np.uint64),
                                          want.view(np.uint64), repr(a))
            self.assertTrue(bool(np.all(np.isnan(got[z == 0]))))


class TestArrayClosures(unittest.TestCase):
    """compiled_array against the scalar closure, element by element: the
    two agree to rounding.  numpy's products, quotients, powers and
    ufuncs round differently from Python's complex type and cmath, by at
    most 3.3e-16 relative on these points, with numpy's SIMD dispatch on
    or off (NPY_DISABLE_CPU_FEATURES)."""

    PARAMS = {"a": 2.0, "b": 0.7 - 0.2j}
    # points on the principal cuts of sqrt and log, with both signed zeros
    CUT_POINTS = [-1.0 + 0.0j, complex(-1.0, -0.0),
                  complex(-4.0, 1e-300), complex(-4.0, -1e-300)]
    # one expression per node type
    NODES = ["2.5", "pi", "i", "z", "b", "z+b", "z-2", "z*b", "b/z",
             "(1+z)/(2-i*z)", "-z", "z^2", "z^3", "z^-2", "z^a", "z^(0-3)",
             "exp(z)", "sqrt(z)", "sin(z)", "cos(z)", "sinh(z)", "cosh(z)",
             "erf(z)", "erf(z)*exp(z^2/2)-sqrt(pi)*cosh(b*z)",
             "log(z)", "log(2+z)*z", "(1+z)^0.5", "z^0.5", "2^z", "z^b"]
    REL = 1e-15

    def points(self):
        return np.array(POINTS + self.CUT_POINTS)

    def compare(self, f, g, label, rel=REL):
        pts = self.points()
        got = g(pts)
        self.assertEqual(got.shape, pts.shape, label)
        for k, z in enumerate(pts.tolist()):
            want = f(z)
            self.assertLessEqual(abs(got[k] - want), rel * abs(want),
                                 "%s at %r: %r vs %r"
                                 % (label, z, got[k], want))

    def test_every_node_type(self):
        for text in self.NODES:
            e = parse(text)
            self.compare(e.compiled(self.PARAMS),
                         e.compiled_array(self.PARAMS), text)

    def test_large_power_phase(self):
        # numpy's power is exp(b log z) and Python's rotates by b arg z:
        # their last-bit difference grows with |b arg z|, here to 5.5e-16
        e = parse("z^2.5")
        self.compare(e.compiled(), e.compiled_array(), "z^2.5")

    def test_antiderivative_node(self):
        node = AntiderivativeNode(parse("sin(z)*exp(z)"), 0.2 + 0.1j)
        self.compare(node.compiled(), node.compiled_array(), "antiderivative",
                     rel=4e-16)

    def test_shape(self):
        z = np.linspace(-1, 1, 6).reshape(2, 3) + 0.5j
        for text in ("3", "z", "exp(z)"):
            self.assertEqual(parse(text).compiled_array()(z).shape, (2, 3))

    def test_raising_points_are_non_finite(self):
        cases = [("1/z", 0.0), ("log(z)", 0.0), ("(2*z-1)^(0-1)", 0.5),
                 ("exp(z)", 800.0), ("erf(z)", 9.0),
                 # an overflow divided into stays non-finite
                 ("1/exp(z)", 710.0), ("1/cosh(z)", 711.0),
                 ("1/sin(z)", 800j), ("1/z^100", 1e4), ("1/z^2.5", 1e200)]
        for text, z in cases:
            e = parse(text)
            with self.assertRaises((ZeroDivisionError, OverflowError,
                                    ValueError), msg=text):
                e.compiled()(z)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = e.compiled_array()(np.array([z, 0.5 + 0.5j]))
            self.assertFalse(bool(np.isfinite(got[0])), text)
            # numpy's power takes 1/z^100 by exp and log, 1.0e-15 off
            want = e.compiled()(0.5 + 0.5j)
            self.assertLessEqual(abs(got[1] - want), 2e-15 * abs(want), text)


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

    def test_explicit_zero_denominator_is_kept(self):
        # a zero coefficient does not fold away a division by zero: the
        # simplified tree raises wherever the input does
        for text in ("0/0", "0*(1/0)", "z*0/0"):
            e = parse(text)
            s = simplify(e)
            for z in [0j, 0.7 + 0.2j, -0.4 + 1.1j]:
                with self.assertRaises(PoleOrOverflow, msg=text):
                    evaluate(e, z)
                with self.assertRaises(PoleOrOverflow, msg=text):
                    evaluate(s, z)

    def test_leaves_are_untouched(self):
        self.assertIsInstance(simplify(Num(3.0)), Num)
        self.assertIsInstance(simplify(Param("n")), Param)


if __name__ == "__main__":
    unittest.main()
