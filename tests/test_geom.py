"""Tests for surface fields, finite differences, and compatibility residuals."""

import cmath
import math
import unittest
from unittest import mock

import numpy as np

import solsurf.geom
from solsurf.expr import parse
from solsurf.geom import (DomainError, StencilOutOfDomain,
                          WeierstrassData, SurfaceFields,
                          weierstrass_solution, fields_from_weierstrass,
                          wirtinger_dz, wirtinger_dzbar, mixed_dzdzbar,
                          gmc_residual, build_UV, zero_curvature_residual,
                          wirtinger_pair)

DATASETS = [
    ("1", "z", 1.0),
    ("1+0.3*z", "z^2", 0.7),
    ("exp(z/4)", "0.5*z", 1.3),
    ("2", "sin(z)/2", 0.5),
    ("1/(2+z)", "z", 1.0),
]


def make_data(eta, psi, lam, z0=0j):
    return WeierstrassData(eta=parse(eta), psi=parse(psi), z0=z0, lam=lam)


class TestWirtinger(unittest.TestCase):
    """The operators on functions with known z and zbar derivatives."""

    def test_holomorphic(self):
        f = lambda z: z ** 3 - 2 * z
        for z in (0.4 + 0.1j, -0.7 + 0.6j):
            self.assertLess(abs(wirtinger_dz(f, z) - (3 * z * z - 2)), 1e-9)
            self.assertLess(abs(wirtinger_dzbar(f, z)), 1e-9)

    def test_antiholomorphic(self):
        f = lambda z: z.conjugate() ** 2
        for z in (0.4 + 0.1j, 1.0 - 0.3j):
            self.assertLess(abs(wirtinger_dz(f, z)), 1e-9)
            self.assertLess(abs(wirtinger_dzbar(f, z) - 2 * z.conjugate()), 1e-9)

    def test_mixed(self):
        # d^2/dz dzbar of |z|^4 = 4 |z|^2
        f = lambda z: (z * z.conjugate()) ** 2
        for z in (0.5 + 0.5j, -0.2 + 0.9j):
            want = 4.0 * (z * z.conjugate()).real
            self.assertLess(abs(mixed_dzdzbar(f, z) - want), 1e-7)

    def test_vector_valued(self):
        f = lambda z: np.array([z.real, z.imag, (z * z).real])
        got = wirtinger_dz(f, 0.3 + 0.2j)
        self.assertEqual(got.shape, (3,))
        self.assertTrue(np.allclose(got, [0.5, -0.5j, 0.3 + 0.2j], atol=1e-9))


class TestWeierstrassFields(unittest.TestCase):
    def test_conformal_factor_and_hopf(self):
        for eta, psi, lam in DATASETS:
            data = make_data(eta, psi, lam)
            eta_f, _, psi_f, dpsi_f = data.functions()
            for z in (0.2 + 0.1j, -0.4 + 0.3j):
                u, q = weierstrass_solution(data, z)
                ev, pv = eta_f(z), psi_f(z)
                m = abs(ev) ** 2 * (1.0 + abs(pv) ** 2)
                self.assertAlmostEqual(u, 2.0 * math.log(m), places=11)
                self.assertLess(abs(q + ev * ev * dpsi_f(z)), 1e-12)

    def test_analytic_u_z_matches_differences(self):
        for eta, psi, lam in DATASETS:
            fields = fields_from_weierstrass(make_data(eta, psi, lam))
            for z in (0.25 + 0.15j, -0.3 - 0.2j):
                fd = wirtinger_dz(fields.u, z)
                self.assertLess(abs(fields.u_z(z) - fd), 1e-7,
                                "%s %s at %r" % (eta, psi, z))

    def test_degenerate_point_raises(self):
        data = make_data("z", "z", 1.0)
        with self.assertRaises(DomainError):
            weierstrass_solution(data, 0.0)


class TestGmcResidual(unittest.TestCase):
    def test_vanishes_for_induced_fields(self):
        for eta, psi, lam in DATASETS:
            fields = fields_from_weierstrass(make_data(eta, psi, lam))
            for z in (0.3 + 0.2j, -0.25 + 0.35j):
                r1, r2 = gmc_residual(fields, z)
                self.assertLess(abs(r1), 1e-6, "%s %s" % (eta, psi))
                self.assertLess(abs(r2), 1e-6)

    def test_detects_broken_hopf(self):
        base = fields_from_weierstrass(make_data("1", "z", 1.0))
        bq = base.Q
        broken = SurfaceFields(u=base.u, Q=lambda z: bq(z) + 0.1 * z.conjugate(),
                               H=1.0, lam=1.0)
        worst = 0.0
        for z in (0.3 + 0.2j, -0.4 + 0.1j, 0.5j):
            r1, r2 = gmc_residual(broken, z)
            worst = max(worst, abs(r1), abs(r2))
        self.assertGreater(worst, 1e-2)

    def test_detects_wrong_mean_curvature(self):
        base = fields_from_weierstrass(make_data("1", "z", 1.0))
        # H != lambda breaks the Gauss equation through the e^u term
        wrong = SurfaceFields(u=base.u, Q=base.Q, H=1.5, lam=1.0)
        r1, _ = gmc_residual(wrong, 0.4 + 0.2j)
        self.assertGreater(abs(r1), 1e-2)


class TestLaxPair(unittest.TestCase):
    def test_build_UV_shapes_and_trace(self):
        fields = fields_from_weierstrass(make_data("1+0.3*z", "z^2", 0.7))
        z = 0.3 + 0.2j
        U, V = build_UV(fields, fields.u_z(z), z)
        self.assertEqual(U.shape, (2, 2))
        self.assertEqual(V.shape, (2, 2))
        self.assertLess(abs(np.trace(U)), 1e-14)
        self.assertLess(abs(np.trace(V)), 1e-14)

    def test_unitary_regime_at_zero(self):
        # at lambda = H = 0 the pair satisfies V = -U, the condition that
        # keeps the wavefunction unitary
        data = make_data("1+0.3*z", "z^2", 0.0)
        fields = fields_from_weierstrass(data)
        z = 0.4 - 0.1j
        U, V = build_UV(fields, fields.u_z(z), z)
        self.assertTrue(np.allclose(V, -U, atol=1e-13))

    def test_zero_curvature_for_induced_fields(self):
        for eta, psi, lam in DATASETS:
            data = make_data(eta, psi, lam)
            for z in (0.3 + 0.2j, -0.2 + 0.25j):
                r = zero_curvature_residual(data, z)
                self.assertLess(float(np.max(np.abs(r))), 1e-6,
                                "%s %s at %r" % (eta, psi, z))

    def test_zero_curvature_detects_perturbation(self):
        base = fields_from_weierstrass(make_data("1", "z", 1.0))
        bq = base.Q
        broken = SurfaceFields(u=base.u, Q=lambda z: bq(z) + 0.1 * z.conjugate(),
                               H=1.0, lam=1.0)
        worst = 0.0
        for z in (0.3 + 0.2j, -0.4 + 0.1j):
            worst = max(worst, float(np.max(np.abs(
                zero_curvature_residual(broken, z)))))
        self.assertGreater(worst, 1e-2)


def _old_derivative(f, z, h, k):
    """The former per-derivative stencil, d/dz (k = 0) or d/dzbar (k = 1)
    of f alone, Richardson-extrapolated."""
    def once(step):
        vals = [np.asarray(f(p), dtype=complex)
                for p in (z + step, z - step, z + 1j * step, z - 1j * step)]
        return wirtinger_pair(*vals, step)[k]

    return (4.0 * once(0.5 * h) - once(h)) / 3.0


def _two_function_residual(source, z, h=1e-4):
    """zero_curvature_residual in its former form: U and V^H as two
    functions, each with its own stencil (18 build_UV calls)."""
    if isinstance(source, WeierstrassData):
        fields = fields_from_weierstrass(source)
    else:
        fields = source
    if fields.u_z is not None:
        u_z = fields.u_z
    else:
        def u_z(w):
            return complex(_old_derivative(fields.u, w, h, 0))

    def ufun(w):
        return build_UV(fields, u_z(w), w)[0]

    def vdfun(w):
        return build_UV(fields, u_z(w), w)[1].conj().T

    z = complex(z)
    du = _old_derivative(ufun, z, h, 1)
    dv = _old_derivative(vdfun, z, h, 0)
    uu = ufun(z)
    vv = vdfun(z)
    return du - dv + uu @ vv - vv @ uu


def _bits(a):
    return np.ascontiguousarray(a, dtype=complex).view(np.uint64)


class TestOneStencil(unittest.TestCase):
    """zero_curvature_residual differences the stack (U, V^H) once."""

    POINTS = [complex(x, y) for x in (-0.3, -0.1, 0.1, 0.3)
              for y in (-0.25, -0.05, 0.05, 0.2, 0.3)]

    def sources(self):
        data = make_data("1+0.3*z", "z^2", 0.7)
        base = fields_from_weierstrass(make_data("exp(z/4)", "0.5*z", 1.3))
        # without u_z, u is differenced as well
        no_uz = SurfaceFields(u=base.u, Q=base.Q, H=base.H, lam=base.lam)
        return (("data", data), ("fields without u_z", no_uz))

    def test_bitwise_equal_to_two_function_form(self):
        self.assertEqual(len(self.POINTS), 20)
        for label, source in self.sources():
            for z in self.POINTS:
                got = zero_curvature_residual(source, z)
                want = _two_function_residual(source, z)
                np.testing.assert_array_equal(_bits(got), _bits(want),
                                              "%s at %r" % (label, z))

    def test_nine_build_UV_calls_per_point(self):
        for label, source in self.sources():
            with mock.patch.object(solsurf.geom, "build_UV",
                                   wraps=build_UV) as counting:
                zero_curvature_residual(source, 0.2 + 0.1j)
            self.assertEqual(counting.call_count, 9, label)


class TestArrayForm(unittest.TestCase):
    """gmc_residual and zero_curvature_residual at an array of points
    equal the scalar calls point by point, to the stencils' rounding."""

    # the battery's 10 x 10 points over [-0.5, 0.5]^2
    XS = np.linspace(-0.5, 0.5, 10)
    POINTS = (XS[None, :] + 1j * XS[:, None]).ravel()

    # Measured largest deviations over DATASETS and their perturbed fields,
    # with numpy's SIMD dispatch on and off: r1 2.2e-9, r2 2.9e-13, the
    # zero-curvature entries 4.5e-12.  r1 differences u at step 1e-3,
    # which weights its values by up to 1.1e7 in sum, so an ulp-level
    # difference in u (log and the array closures) reaches 1e-8
    R1_BOUND = 2e-8
    BOUND = 1e-10

    def fields(self):
        for eta, psi, lam in DATASETS:
            fields = fields_from_weierstrass(make_data(eta, psi, lam))
            bq = fields.Q
            # the perturbation --perturb injects
            perturbed = SurfaceFields(
                u=fields.u, Q=lambda z, bq=bq: bq(z) + 0.1 * z.conjugate(),
                H=lam, lam=lam, u_z=fields.u_z)
            yield "%s %s" % (eta, psi), fields
            yield "%s %s perturbed" % (eta, psi), perturbed

    def test_equals_scalar_calls(self):
        for label, fields in self.fields():
            r1, r2 = gmc_residual(fields, self.POINTS)
            zc = zero_curvature_residual(fields, self.POINTS)
            self.assertEqual(zc.shape, (100, 2, 2))
            for k, z in enumerate(self.POINTS):
                s1, s2 = gmc_residual(fields, z)
                self.assertLess(abs(r1[k] - s1), self.R1_BOUND, label)
                self.assertLess(abs(r2[k] - s2), self.BOUND, label)
                self.assertLess(float(np.max(np.abs(
                    zc[k] - zero_curvature_residual(fields, z)))),
                    self.BOUND, label)

    def test_nan_where_the_scalar_call_raises(self):
        # the pole at 0.251 is on gmc's stencil around 0.25 (step 1e-3)
        # and at the point 0.251 itself
        fields = fields_from_weierstrass(make_data("1/(z-0.251)", "z", 1.0))
        pts = np.array([0.25, 0.251, 0.1 + 0.1j])
        r1, r2 = gmc_residual(fields, pts)
        zc = zero_curvature_residual(fields, pts)
        self.assertTrue(np.isnan(np.maximum(np.abs(r1), np.abs(r2)))[:2].all())
        for z in pts[:2]:
            with self.assertRaises(StencilOutOfDomain):
                gmc_residual(fields, z)
        with self.assertRaises(DomainError):
            zero_curvature_residual(fields, pts[1])
        self.assertTrue(np.isnan(zc[1]).all())
        # off the stencil, a huge residual stays a value
        self.assertTrue(np.isfinite(zc[0]).all())
        self.assertGreater(float(np.max(np.abs(zc[0]))), 1e4)
        self.assertTrue(np.isfinite([r1[2], r2[2]]).all())

    def test_build_UV_over_arrays(self):
        fields = fields_from_weierstrass(make_data("1+0.3*z", "z^2", 0.7))
        U, V = build_UV(fields, fields.u_z(self.POINTS), self.POINTS)
        self.assertEqual(U.shape, (100, 2, 2))
        for k, z in enumerate(self.POINTS):
            u1, v1 = build_UV(fields, fields.u_z(z), z)
            np.testing.assert_allclose(U[k], u1, rtol=1e-14, atol=1e-15)
            np.testing.assert_allclose(V[k], v1, rtol=1e-14, atol=1e-15)


class TestWeierstrassData(unittest.TestCase):
    def test_functions_cache(self):
        data = make_data("1+z", "z^2", 1.0)
        self.assertIs(data.functions(), data.functions())

    def test_param_binding(self):
        data = WeierstrassData(eta=parse("1+a*z", params={"a"}), psi=parse("z"),
                               z0=0j, lam=1.0, params={"a": 0.5})
        eta_f = data.functions()[0]
        self.assertAlmostEqual(eta_f(2.0), 2.0)


if __name__ == "__main__":
    unittest.main()
