"""Tests for the special functions: erf, Kummer 1F1, Hermite."""

import cmath
import math
import unittest

import numpy as np

from solsurf.specfun import (SeriesResult, OutOfRange, PoleInParameter,
                             erf_series, erf_c, erf_array, kummer_series,
                             kummer_c, gamma_half, hermite_h)
from solsurf.specfun import (_maclaurin_degree, _maclaurin_degrees,
                             _scaled_degree, _scaled_degrees)

# reference value of erf(1), to 15 digits
ERF_ONE = 0.842700792949715

SQRT_PI = math.sqrt(math.pi)


def d1(f, z, h=1e-2):
    """Fourth-order first derivative; tolerant of ~1e-13 evaluation noise."""
    return (-f(z + 2 * h) + 8 * f(z + h) - 8 * f(z - h) + f(z - 2 * h)) / (12 * h)


def d2(f, z, h=1e-2):
    """Fourth-order second derivative."""
    return (-f(z + 2 * h) + 16 * f(z + h) - 30 * f(z)
            + 16 * f(z - h) - f(z - 2 * h)) / (12 * h * h)


class TestErfArray(unittest.TestCase):
    def test_equals_scalar_series(self):
        # both series, the diagonals between them, the radius, and beyond.
        # numpy's rounding can move where a series stops, so the values
        # agree within twice the tolerance (1e-12 by default), relative to
        # max(1, |v|); NaN marks exactly the points where erf_c raises
        re, im = np.meshgrid(np.linspace(-8.5, 8.5, 41),
                             np.linspace(-6.0, 6.0, 25))
        z = (re + 1j * im).ravel()
        z = np.concatenate([z, [0j, 1e-300j, 8.0 + 0j, 3.0 + 3.0j,
                                complex(np.nan, 0.0)]])
        got = erf_array(z.reshape(-1, 5)).ravel()
        for k, w in enumerate(z.tolist()):
            try:
                want = erf_c(w)
            except (ValueError, ArithmeticError):
                self.assertTrue(bool(np.isnan(got[k])), repr(w))
                continue
            self.assertLessEqual(abs(got[k] - want),
                                 2e-12 * max(1.0, abs(want)), repr(w))


def adaptive_stop_scaled(z):
    """The first k at which the scaled series' former per-term stopping
    rule holds at z: the geometric tail bound after term k at most
    0.5e-12."""
    z2 = z * z
    pref = 2.0 / SQRT_PI * z * cmath.exp(-z2)
    w = 2.0 * z2
    term = 1.0 + 0.0j
    k = 0
    while True:
        k += 1
        term = term * w / (2 * k + 1)
        ratio = abs(w) / (2 * k + 3)
        if ratio < 1.0 and (abs(pref) * abs(term) * ratio / (1.0 - ratio)
                            <= 0.5e-12):
            return k


def adaptive_stop_maclaurin(z):
    """The same for the Maclaurin series: the next term below term k and
    at most 0.5e-12."""
    z2 = z * z
    power = z
    k = 0
    while True:
        k += 1
        power = power * (-z2) / k
        term = power / (2 * k + 1)
        nxt = abs(power) * abs(z2) / ((k + 1) * (2 * k + 3))
        if nxt < abs(term) and 2.0 / SQRT_PI * nxt <= 0.5e-12:
            return k


class TestDegreeTable(unittest.TestCase):
    def test_value_does_not_depend_on_the_other_elements(self):
        # the erf data's patch, summed by the scaled series, and the patch
        # turned by i, summed by the Maclaurin series.  Next to points of
        # low degree (|z| = 0.1) the highest degree of each series in the
        # call is the block's own; next to |z| = 7.9 it is many times that
        re, im = np.meshgrid(np.linspace(0.68, 1.32, 9),
                             np.linspace(-0.32, 0.32, 9))
        patch = (re + 1j * im).ravel()
        block = np.concatenate([patch, 1j * patch])
        n = block.size
        phase = np.exp(2j * np.pi * np.arange(n) / n)
        got = [erf_array(np.concatenate([block, radius * phase]))[:n]
               for radius in (0.1, 7.9)]
        self.assertFalse(np.isnan(got[0]).any())
        np.testing.assert_array_equal(got[0].view(float), got[1].view(float))

    def test_degree_never_below_the_adaptive_stop(self):
        # both series over the disc |z| <= 8, each also where erf_series
        # would sum the other.  On a 401^2 grid the table's degree exceeded
        # the adaptive stop by at most 4 terms (scaled series, mean 0.42)
        # and 5 (Maclaurin series, mean 0.29)
        x = np.linspace(-8.0, 8.0, 61)
        z = (x[None, :] + 1j * x[:, None]).ravel()
        z = z[(np.abs(z) <= 8.0) & (z != 0)]
        z2 = z * z
        pref = 2.0 / SQRT_PI * z * np.exp(-z2)
        aw, apref, az2 = np.abs(2.0 * z2), np.abs(pref), np.abs(z2)
        scaled = ([_scaled_degree(a, p)
                   for a, p in zip(aw.tolist(), apref.tolist())],
                  _scaled_degrees(aw, apref), adaptive_stop_scaled, 4)
        maclaurin = ([_maclaurin_degree(a) for a in az2.tolist()],
                     _maclaurin_degrees(az2), adaptive_stop_maclaurin, 5)
        for scalar, array, stop, bound in (scaled, maclaurin):
            # the scalar and the array form read the same entries
            self.assertEqual(scalar, array.tolist())
            for w, deg in zip(z.tolist(), scalar):
                over = deg - stop(w)
                self.assertGreaterEqual(over, 0, repr(w))
                self.assertLessEqual(over, bound, repr(w))


class TestErf(unittest.TestCase):
    def test_reference_value(self):
        r = erf_series(1.0)
        self.assertIsInstance(r, SeriesResult)
        self.assertLess(abs(r.value - ERF_ONE), 1e-12)
        self.assertLessEqual(r.truncation_estimate, 0.5e-12)

    def test_against_math_erf_on_reals(self):
        for x in np.linspace(-4.0, 4.0, 33):
            self.assertLess(abs(erf_c(x) - math.erf(x)), 1e-12, str(x))

    def test_cancellation_is_refused(self):
        # near the diagonals Re z^2 ~ 0 the terms grow far beyond erf(z):
        # summed here, the value would be 1.4e3 relative off.  Its rounding
        # scale exceeds the tolerance, so the series refuses the point
        for z in (-5.95 + 5j, -5.95 - 5j):
            with self.assertRaises(OutOfRange):
                erf_series(z)
            self.assertTrue(bool(np.isnan(erf_array(np.array([z]))[0])))
        # on the real axis every term is positive: nothing is refused
        for x in np.linspace(-8.0, 8.0, 65):
            self.assertLess(abs(erf_c(x) - math.erf(x)), 1e-12, str(x))

    def test_other_series_where_the_first_refuses(self):
        # Re z^2 > 0 picks the scaled series, whose term mass (5.3e3) the
        # rounding check refuses here; the Maclaurin series sums it within
        # tol.  Reference value from mpmath at 30 digits
        z = -2.1335 + 2.0714j
        want = -1.14362057435290022 - 0.01881729275001036j
        self.assertGreaterEqual((z * z).real, 0.0)
        self.assertLess(abs(erf_c(z) - want), 1e-12)
        self.assertLess(abs(erf_array(np.array([z]))[0] - want), 1e-12)

    def test_refused_point_in_a_batch(self):
        # the point above among points that each series takes at once:
        # it still gets the Maclaurin value, and every element equals
        # erf_array of that element alone to rounding (numpy's SIMD loops
        # can round an element by its place in the array)
        z = np.array([0.3 + 0.1j, -2.1335 + 2.0714j, 0.2 + 1.5j, 2.0 - 0.5j,
                      1.0 + 3.0j, complex(np.nan, 0.0), 9.0 + 0j])
        got = erf_array(z)
        self.assertLess(abs(got[1] - (-1.14362057435290022
                                      - 0.01881729275001036j)), 1e-12)
        alone = np.array([erf_array(z[k:k + 1])[0] for k in range(z.size)])
        np.testing.assert_allclose(got, alone, rtol=1e-15)
        self.assertEqual(np.isnan(got).tolist(), [False] * 5 + [True] * 2)

    def test_odd_function(self):
        for z in (0.5 + 0.5j, 1.5 - 0.3j, 2.0j):
            self.assertLess(abs(erf_c(z) + erf_c(-z)), 1e-12)

    def test_conjugation_symmetry(self):
        for z in (0.5 + 0.5j, 1.7 - 1.1j):
            lhs = erf_c(z.conjugate())
            rhs = erf_c(z).conjugate()
            self.assertLess(abs(lhs - rhs), 1e-12)

    def test_imaginary_axis_growth(self):
        # erf(iy) = i * erfi(y); purely imaginary, rapidly growing
        v = erf_c(2.0j)
        self.assertLess(abs(v.real), 1e-12)
        self.assertGreater(v.imag, 10.0)

    def test_derivative_relation(self):
        # a fourth-order stencil wide enough that erf's jumps of up to
        # 0.5e-12, where its summed degree changes, read as about 1e-9
        for z in (0.3 + 0.2j, 1.0 - 0.5j):
            fd = d1(erf_c, z, h=1e-3)
            want = 2.0 / SQRT_PI * cmath.exp(-z * z)
            self.assertLess(abs(fd - want), 1e-8)


class TestKummer(unittest.TestCase):
    def test_exponential_case(self):
        # 1F1(a; a; z) = e^z
        for z in (0.7, -1.3 + 0.4j, 2.0j):
            self.assertLess(abs(kummer_c(0.5, 0.5, z) - cmath.exp(z)), 1e-11)

    def test_erf_connection(self):
        # erf(z) = (2z/sqrt(pi)) 1F1(1/2; 3/2; -z^2)
        want = SQRT_PI / 2.0 * ERF_ONE
        got = kummer_c(0.5, 1.5, -1.0)
        self.assertLess(abs(got - want), 1e-10)
        for z in (0.8, 1.3 + 0.2j):
            lhs = 2.0 * z / SQRT_PI * kummer_c(0.5, 1.5, -z * z)
            self.assertLess(abs(lhs - erf_c(z)), 1e-11)

    def test_polynomial_termination(self):
        # nonpositive integer a truncates the series exactly
        r = kummer_series(-2.0, 0.5, 1.7)
        self.assertEqual(r.truncation_estimate, 0.0)
        a, b, z = -2.0, 0.5, 1.7
        want = 1.0 + a / b * z + a * (a + 1) / (b * (b + 1)) * z * z / 2.0
        self.assertLess(abs(r.value - want), 1e-13)

    def test_kummer_transformation(self):
        # 1F1(a; b; z) = e^z 1F1(b-a; b; -z)
        for (a, b, z) in ((0.5, 1.5, 0.9), (1.0, 2.5, -1.2 + 0.7j)):
            lhs = kummer_c(a, b, z)
            rhs = cmath.exp(z) * kummer_c(b - a, b, -z)
            self.assertLess(abs(lhs - rhs), 1e-11)

    def test_ode_residual(self):
        # w = 1F1(a; b; x) solves x w'' + (b - x) w' - a w = 0
        for (a, b) in ((0.5, 1.5), (1.0, 0.5), (1.5, 2.5)):
            f = lambda x: kummer_c(a, b, x)
            for x in (0.4, 1.0, 1.7):
                res = x * d2(f, x) + (b - x) * d1(f, x) - a * f(x)
                self.assertLess(abs(res), 1e-6)

    def test_pole_in_lower_parameter(self):
        with self.assertRaises(PoleInParameter):
            kummer_c(0.5, 0.0, 1.0)
        with self.assertRaises(PoleInParameter):
            kummer_c(0.5, -3.0, 1.0)


class TestGammaHalf(unittest.TestCase):
    def test_values(self):
        self.assertAlmostEqual(gamma_half(1), SQRT_PI, places=14)
        self.assertAlmostEqual(gamma_half(2), 1.0, places=14)
        self.assertAlmostEqual(gamma_half(3), SQRT_PI / 2.0, places=14)
        self.assertAlmostEqual(gamma_half(4), 1.0, places=14)
        self.assertAlmostEqual(gamma_half(5), 0.75 * SQRT_PI, places=14)
        self.assertAlmostEqual(gamma_half(6), 2.0, places=14)

    def test_against_math_gamma(self):
        for k in range(1, 12):
            self.assertAlmostEqual(gamma_half(k), math.gamma(k / 2.0), places=12)

    def test_rejects_nonpositive(self):
        with self.assertRaises(ValueError):
            gamma_half(0)
        with self.assertRaises(ValueError):
            gamma_half(2.5)


class TestHermite(unittest.TestCase):
    def test_classical_polynomials(self):
        for z in (0.0, 0.7, -1.2 + 0.5j):
            self.assertLess(abs(hermite_h(0, z) - 1.0), 1e-13)
            self.assertLess(abs(hermite_h(1, z) - 2 * z), 1e-13)
            self.assertLess(abs(hermite_h(2, z) - (4 * z * z - 2)), 1e-12)
            self.assertLess(abs(hermite_h(3, z) - (8 * z ** 3 - 12 * z)), 1e-12)

    def test_negative_index_base_value(self):
        # H_{-1}(0) = sqrt(pi)/2, from the integral it represents
        self.assertLess(abs(hermite_h(-1, 0.0) - SQRT_PI / 2.0), 1e-12)

    def test_ode_residual(self):
        # H_nu solves w'' - 2 z w' + 2 nu w = 0 for every integer nu
        for nu in (-2, -1, 0, 1, 2):
            f = lambda z: hermite_h(nu, z)
            for z in (0.4, 1.0 + 0.3j, -0.8):
                res = d2(f, z) - 2 * z * d1(f, z) + 2 * nu * f(z)
                scale = max(abs(f(z)), 1.0)
                self.assertLess(abs(res) / scale, 1e-6,
                                "nu=%d z=%r" % (nu, z))

    def test_derivative_lowers_index(self):
        # H_nu' = 2 nu H_{nu-1}
        h = 1e-6
        for nu in (-2, -1, 1, 2, 3):
            for z in (0.5, 1.1 - 0.2j):
                fd = (hermite_h(nu, z + h) - hermite_h(nu, z - h)) / (2 * h)
                want = 2.0 * nu * hermite_h(nu - 1, z)
                self.assertLess(abs(fd - want), 1e-7 * max(1.0, abs(want)))

    def test_rejects_fractional_order(self):
        with self.assertRaises(ValueError):
            hermite_h(0.5, 1.0)


if __name__ == "__main__":
    unittest.main()
