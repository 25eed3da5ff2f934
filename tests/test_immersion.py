"""Tests for immersion formulas, grid sampling, and frame reconstruction."""

import dataclasses
import math
import unittest
from unittest import mock

import numpy as np

import solsurf.lsp
from solsurf.expr import parse
from solsurf.geom import WeierstrassData, weierstrass_solution
from solsurf.lsp import (PathSpec, QuadratureFailure, Wavefunction,
                         gauge_matrix, integrate_reduced, integrate_full)
from solsurf.immersion import (DomainRect, LambdaZero, DegenerateFrame,
                               _phi_vector_batch, sym_immersion, shifted_immersion,
                               enneper_weierstrass, loop_period,
                               sample_surface, frame_and_curvature)

from hermitian_model import lorentz_from_hermitian, rho_action

ENNEPER = {"eta": parse("1"), "psi": parse("z"), "z0": 0j}


def enneper(lam):
    return WeierstrassData(lam=lam, **ENNEPER)


def lorentz_norm(x):
    return x[1] * x[1] + x[2] * x[2] + x[3] * x[3] - x[0] * x[0]


class TestDomainRect(unittest.TestCase):
    def test_validation(self):
        with self.assertRaises(ValueError):
            DomainRect(-1, 1, -1, 1, 1, 8)
        with self.assertRaises(ValueError):
            DomainRect(1, -1, -1, 1, 8, 8)

    def test_spacing_and_points(self):
        dom = DomainRect(-1, 1, 0, 1, 5, 3)
        self.assertAlmostEqual(dom.dx, 0.5)
        self.assertAlmostEqual(dom.dy, 0.5)
        self.assertEqual(dom.point(1, 2), 0 + 0.5j)
        self.assertEqual(dom.grid().shape, (3, 5))


class TestPointImmersion(unittest.TestCase):
    def test_hyperboloid_law(self):
        for lam in (0.5, 1.0, 2.0):
            data = enneper(lam)
            wf = integrate_full(data, PathSpec.line(0j, 0.6 + 0.3j), tol=1e-12)
            x = sym_immersion(wf)
            self.assertLess(abs(lorentz_norm(x) + 1.0 / lam ** 2), 1e-10, lam)
            self.assertGreater(x[0], 0.0)

    def test_lambda_zero_rejected(self):
        data = enneper(1.0)
        wf = integrate_full(data, PathSpec.line(0j, 0.5), tol=1e-12)
        with self.assertRaises(LambdaZero):
            sym_immersion(dataclasses.replace(wf, lam=0.0))
        with self.assertRaises(LambdaZero):
            shifted_immersion(dataclasses.replace(wf, lam=0.0))

    def test_value_not_2x2_or_unimodular_refused(self):
        for value, message in ((np.eye(3), "must be 2x2"),
                               (np.diag([2.0, 1.0]), "determinant drifted")):
            wf = Wavefunction(value=value.astype(complex), at=0j, lam=0.8,
                              which="reduced")
            for immersion in (sym_immersion, shifted_immersion):
                with self.assertRaisesRegex(ValueError, message):
                    immersion(wf)

    def test_shifted_limit_hits_flat_surface(self):
        # the shifted image converges, at rate O(lambda), to the classical
        # minimal surface carried over by (X1, X2, X3) = (-2F1, -2F2, 2F3)
        z = 0.7 + 0.4j
        f = enneper_weierstrass(enneper(1.0), PathSpec.line(0j, z), tol=1e-12)
        want = np.array([0.0, -2.0 * f[0], -2.0 * f[1], 2.0 * f[2]])
        errs = []
        for lam in (1e-2, 1e-3):
            data = enneper(lam)
            wf = integrate_reduced(data, PathSpec.line(0j, z), tol=1e-12)
            errs.append(np.max(np.abs(shifted_immersion(wf) - want)))
        self.assertLess(errs[1], 1e-2)
        # one decade of lambda buys roughly one decade of error
        self.assertGreater(errs[0] / errs[1], 5.0)


class TestImmersionOracle(unittest.TestCase):
    """The tuple formula against the Hermitian-matrix model of the tests."""

    def check(self, got, phi, lam, shift):
        v = phi.value
        want = lorentz_from_hermitian(v.conj().T @ v - shift * np.eye(2),
                                      tol=1e-8) / lam
        scale = float(np.max(np.abs(want)))
        self.assertLess(float(np.max(np.abs(got - want))), 1e-14 * scale)

    def test_sym_and_shifted_match_matrix_model(self):
        data = WeierstrassData(eta=parse("1+0.3*z"), psi=parse("z^2-0.4*i*z"),
                               z0=0j, lam=0.8)
        for z in (0.6 + 0.3j, -0.4 + 0.7j, 0.2 - 0.5j):
            path = PathSpec.line(0j, z)
            full = integrate_full(data, path, tol=1e-12)
            reduced = integrate_reduced(data, path, tol=1e-12)
            self.check(sym_immersion(full), full, 0.8, 0.0)
            self.check(sym_immersion(dataclasses.replace(reduced, lam=0.3)),
                       reduced, 0.3, 0.0)
            self.check(shifted_immersion(reduced), reduced, 0.8, 1.0)


class TestEnneperIntegral(unittest.TestCase):
    def test_classical_anchors(self):
        data = enneper(1.0)
        f1 = enneper_weierstrass(data, PathSpec.line(0j, 1.0), tol=1e-12)
        self.assertTrue(np.allclose(f1, [1.0 / 3.0, 0.0, 0.5], atol=1e-10))
        fi = enneper_weierstrass(data, PathSpec.line(0j, 1j), tol=1e-12)
        self.assertTrue(np.allclose(fi, [0.0, -1.0 / 3.0, -0.5], atol=1e-10))

    def test_loop_period_catenoid_like(self):
        # eta^2 = 1/z^2, psi = z: the only residue sits in the third
        # component, giving a period of 2 pi i around the puncture
        data = WeierstrassData(eta=parse("1/z"), psi=parse("z"), z0=1 + 0j, lam=1.0)
        loop = PathSpec(points=(1.0, 1j, -1.0, -1j, 1.0))
        period = loop_period(data, loop, tol=1e-12)
        self.assertTrue(np.allclose(period, [0.0, 0.0, 2j * math.pi], atol=1e-9))

    def test_loop_must_close(self):
        with self.assertRaises(ValueError):
            loop_period(enneper(1.0), PathSpec(points=(0.0, 1.0, 1j)))

    def test_failure_names_the_segment_as_complex_numbers(self):
        data = WeierstrassData(eta=parse("1/z"), psi=parse("z"), z0=-1 + 0j,
                               lam=1.0)
        with self.assertRaises(QuadratureFailure) as ctx:
            enneper_weierstrass(data, PathSpec(points=(-1.0, 1.0, 1 + 1j)))
        self.assertIn("path segment (-1+0j) -> (1+0j):", str(ctx.exception))
        self.assertNotIn("np.", str(ctx.exception))


def stacked_phi_vector(data, z):
    """The integrand as fresh arrays, the formula _phi_vector_batch keeps."""
    eta_a, _, psi_a, _ = data.array_functions()
    ev, pv = eta_a(z), psi_a(z)
    e2 = ev * ev
    p2 = pv * pv
    return np.stack((0.5 * (1.0 - p2) * e2, 0.5j * (1.0 + p2) * e2,
                     pv * e2), axis=1)


class TestPhiVectorBatch(unittest.TestCase):
    # the first bisection round of a 128^2 e3-direct row: 127 hops, three
    # 15-node rules each
    def points(self, n):
        rng = np.random.default_rng(n)
        return rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)

    def test_bit_equal_to_fresh_arrays(self):
        # with psi = z the psi closure returns z itself, and with eta = psi
        # = z both do: the work arrays must never be what the closures gave
        for eta, psi in (("z", "z"), ("1", "z"), ("1+0.2*z", "z^2")):
            data = WeierstrassData(eta=parse(eta), psi=parse(psi), z0=0j,
                                   lam=0.8)
            fvals = _phi_vector_batch(data)
            for n in (5715, 100, 5715):
                z = self.points(n)
                z.setflags(write=False)
                before = z.copy()
                got = fvals(z)
                self.assertEqual(got.shape, (n, 3))
                self.assertTrue(np.array_equal(got, stacked_phi_vector(data, z)),
                                "%s %s n=%d" % (eta, psi, n))
                self.assertTrue(np.array_equal(z, before))

    def test_calls_of_one_size_share_a_buffer(self):
        fvals = _phi_vector_batch(enneper(1.0))
        first = fvals(self.points(5715))
        second = fvals(self.points(5715))
        self.assertTrue(np.shares_memory(first, second))


class TestSampleSurface(unittest.TestCase):
    def test_h3_patch_residuals(self):
        patch = sample_surface(enneper(1.0), DomainRect(-0.5, 0.5, -0.5, 0.5, 9, 9),
                               "h3", tol=1e-10)
        self.assertEqual(patch.points.shape, (9, 9, 4))
        self.assertTrue(bool(np.all(patch.valid)))
        self.assertLess(float(np.nanmax(patch.residuals["hyperboloid"])), 1e-8)
        self.assertLess(float(np.nanmax(patch.residuals["det_drift"])), 1e-9)

    def test_h3_reduced_system_same_law(self):
        # gauge between the systems is unitary, so the Sym-type image of
        # the reduced wavefunction lies on the same hyperboloid
        patch = sample_surface(enneper(1.0), DomainRect(-0.5, 0.5, -0.5, 0.5, 7, 7),
                               "h3", tol=1e-10, system="reduced")
        self.assertLess(float(np.nanmax(patch.residuals["hyperboloid"])), 1e-8)

    def test_direct_matches_path_integral(self):
        data = enneper(1.0)
        dom = DomainRect(-0.5, 0.5, -0.5, 0.5, 5, 5)
        patch = sample_surface(data, dom, "e3-direct", tol=1e-10)
        self.assertEqual(patch.points.shape, (5, 5, 3))
        z = dom.point(3, 4)
        want = enneper_weierstrass(data, PathSpec.line(0j, z), tol=1e-12)
        self.assertTrue(np.allclose(patch.points[3, 4], want, atol=1e-9))

    def test_h3_matches_path_integral(self):
        data = enneper(1.0)
        dom = DomainRect(-0.5, 0.5, -0.5, 0.5, 5, 5)
        patch = sample_surface(data, dom, "h3", tol=1e-10)
        z = dom.point(3, 4)
        want = sym_immersion(integrate_full(data, PathSpec.line(0j, z), tol=1e-12))
        self.assertTrue(np.allclose(patch.points[3, 4], want, rtol=0.0, atol=1e-7))

    def test_limit_matches_path_integral(self):
        data = enneper(0.1)
        dom = DomainRect(-0.5, 0.5, -0.5, 0.5, 5, 5)
        patch = sample_surface(data, dom, "e3-limit", tol=1e-10)
        z = dom.point(3, 4)
        want = shifted_immersion(integrate_reduced(data, PathSpec.line(0j, z),
                                                   tol=1e-12))
        self.assertTrue(np.allclose(patch.points[3, 4], want, rtol=0.0, atol=1e-7))

    def test_limit_patch_x0_small(self):
        patch = sample_surface(enneper(1e-3), DomainRect(-0.5, 0.5, -0.5, 0.5, 5, 5),
                               "e3-limit", tol=1e-10)
        self.assertLess(float(np.nanmax(patch.residuals["x0_abs"])), 1e-2)

    def test_pole_masked(self):
        data = WeierstrassData(eta=parse("1/(z-0.5)"), psi=parse("z"), z0=0j, lam=1.0)
        dom = DomainRect(0.0, 1.0, -0.5, 0.5, 3, 3)
        patch = sample_surface(data, dom, "h3", tol=1e-8)
        self.assertFalse(patch.valid[1, 1])            # the pole itself
        self.assertTrue(patch.valid[0, 0])
        self.assertTrue(bool(np.all(np.isnan(patch.points[1, 1]))))

    def test_argument_validation(self):
        data = enneper(1.0)
        dom = DomainRect(-1, 1, -1, 1, 3, 3)
        with self.assertRaises(ValueError):
            sample_surface(data, dom, "sphere")
        with self.assertRaises(ValueError):
            sample_surface(data, dom, "e3-direct", system="full")
        with self.assertRaises(LambdaZero):
            sample_surface(enneper(0.0), dom, "h3")

    def test_h3_refuses_lambda_whose_square_underflows(self):
        # the hyperboloid record divides by lambda^2, which is 0.0 here
        with self.assertRaises(LambdaZero):
            sample_surface(enneper(1e-300), DomainRect(-1, 1, -1, 1, 3, 3), "h3")


class TestH3GaugeMove(unittest.TestCase):
    """Default h3 is the reduced system's Sym-type surface moved by the
    constant gauge rho(M(z0)); the sampler never integrates the full
    system."""

    # (eta, psi, z0): clean data, a pole on a sample, a pole and exp
    CASES = (("1+0.2*z", "z^2", 0j), ("1/z", "z", 0.9 + 0.9j),
             ("exp(z)", "1/(z-0.3)", 0.1j))
    DOM = DomainRect(-1.0, 1.0, -1.0, 1.0, 33, 33)

    def data(self, eta, psi, z0):
        return WeierstrassData(eta=parse(eta), psi=parse(psi), z0=z0, lam=0.8)

    def test_h3_is_reduced_patch_moved_by_gauge_at_z0(self):
        for eta, psi, z0 in self.CASES:
            data = self.data(eta, psi, z0)
            h3 = sample_surface(data, self.DOM, "h3")
            red = sample_surface(data, self.DOM, "h3", system="reduced")
            label = "%s %s" % (eta, psi)
            np.testing.assert_array_equal(h3.valid, red.valid, label)
            self.assertTrue(h3.valid.sum() > 0.9 * h3.valid.size, label)
            m0 = gauge_matrix(data, z0)
            for x, want in zip(h3.points[h3.valid], red.points[red.valid]):
                moved = rho_action(m0, want)
                self.assertLessEqual(np.max(np.abs(x - moved)),
                                     1e-13 * np.max(np.abs(want)), label)

    def test_h3_needs_no_full_system_coefficient(self):
        # every full-system coefficient goes through geom's Lax pair
        def refuse(*args, **kwargs):
            raise AssertionError("full-system Lax pair built")

        dom = DomainRect(-1.0, 1.0, -1.0, 1.0, 11, 11)
        for eta, psi, z0 in self.CASES:
            data = self.data(eta, psi, z0)
            want = sample_surface(data, dom, "h3")
            with mock.patch.object(solsurf.lsp, "lax_coefficient", refuse):
                got = sample_surface(data, dom, "h3")
            np.testing.assert_array_equal(got.valid, want.valid)
            np.testing.assert_array_equal(got.points, want.points)

    def test_gauge_undefined_at_z0_masks_every_sample(self):
        data = self.data("z", "z", 0j)
        patch = sample_surface(data, DomainRect(-0.5, 0.5, -0.5, 0.5, 9, 9),
                               "h3")
        self.assertFalse(bool(patch.valid.any()))
        self.assertTrue(bool(np.isnan(patch.points).all()))


class TestFrameAndCurvature(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.dom = DomainRect(-0.3, 0.3, -0.3, 0.3, 13, 13)
        cls.patch = sample_surface(enneper(1.0), cls.dom, "h3", tol=1e-10)

    def test_mean_curvature_and_conformality(self):
        fr = frame_and_curvature(self.patch, (6, 6))
        self.assertLess(abs(fr.H_est - 1.0), 5e-3)
        ip = (fr.F_z[1] ** 2 + fr.F_z[2] ** 2 + fr.F_z[3] ** 2 - fr.F_z[0] ** 2)
        self.assertLess(abs(ip) / math.exp(fr.u), 1e-4)

    def test_u_and_hopf_match_data(self):
        fr = frame_and_curvature(self.patch, (6, 8))
        u, q = weierstrass_solution(self.patch.data, self.dom.point(6, 8))
        self.assertAlmostEqual(fr.u, u, places=4)
        self.assertLess(abs(fr.Q_est - q), 1e-4)

    def test_wide_stencil_beats_narrow(self):
        # index (1, 1) only affords the second-order stencil; (6, 6) gets
        # the fourth-order one and lands orders of magnitude closer
        inner = frame_and_curvature(self.patch, (6, 6))
        edge = frame_and_curvature(self.patch, (1, 1))
        self.assertLess(abs(inner.H_est - 1.0), abs(edge.H_est - 1.0))
        self.assertLess(abs(inner.H_est - 1.0), 1e-4)

    def test_normal_is_orthogonal(self):
        fr = frame_and_curvature(self.patch, (5, 7))
        g = np.diag([-1.0, 1.0, 1.0, 1.0])
        self.assertLess(abs(fr.F @ g @ fr.N), 1e-6)
        self.assertAlmostEqual(float(fr.N @ g @ fr.N), 1.0, places=9)

    def test_euclidean_frame_minimal(self):
        patch = sample_surface(enneper(1.0), self.dom, "e3-direct", tol=1e-10)
        fr = frame_and_curvature(patch, (6, 6))
        self.assertLess(abs(fr.H_est), 1e-6)
        self.assertAlmostEqual(float(fr.N @ fr.N), 1.0, places=9)

    def test_interior_required(self):
        with self.assertRaises(ValueError):
            frame_and_curvature(self.patch, (0, 5))

    def test_masked_neighbor_degenerate(self):
        patch = sample_surface(enneper(1.0), DomainRect(-0.3, 0.3, -0.3, 0.3, 5, 5),
                               "h3", tol=1e-10)
        patch.valid[1, 2] = False
        with self.assertRaises(DegenerateFrame):
            frame_and_curvature(patch, (2, 2))


if __name__ == "__main__":
    unittest.main()
