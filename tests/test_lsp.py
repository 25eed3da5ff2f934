"""Tests for path handling, wavefunction integration, Picard series, gauge."""

import cmath
import math
import unittest
from unittest import mock

import numpy as np

import solsurf.lsp
from solsurf.expr import parse
from solsurf.geom import (DomainError, WeierstrassData, build_UV,
                          fields_from_weierstrass, lax_coefficient)
from solsurf.lsp import (PathSpec, PoleClearanceViolated, BranchAmbiguity,
                         IncompatibleSystem, Wavefunction, propagate,
                         integrate_reduced, integrate_full, picard_series,
                         gauge_matrix, gauge_equivalence_residual,
                         reduced_coefficient, _full_coef)


def make_data(eta, psi, lam, z0=0j):
    return WeierstrassData(eta=parse(eta), psi=parse(psi), z0=z0, lam=lam)


class TestPathSpec(unittest.TestCase):
    def test_needs_two_points(self):
        with self.assertRaises(ValueError):
            PathSpec(points=(1.0,))

    def test_line_and_length(self):
        p = PathSpec.line(0.0, 3 + 4j)
        self.assertEqual(p.points, (0j, 3 + 4j))
        self.assertAlmostEqual(p.length(), 5.0)

    def test_segments_skip_repeats(self):
        p = PathSpec(points=(0.0, 1.0, 1.0, 1 + 1j))
        self.assertEqual(p.segments(), [(0j, 1 + 0j), (1 + 0j, 1 + 1j)])

    def test_pole_clearance(self):
        p = PathSpec(points=(0.0, 2.0), poles=(1 + 0.001j,))
        with self.assertRaises(PoleClearanceViolated):
            p.validate()
        # same pole, generous margin: fine
        PathSpec(points=(0.0, 2.0), poles=(1 + 0.5j,)).validate()


class TestReducedIntegration(unittest.TestCase):
    DATA = make_data("1+0.3*z", "z^2", 0.8)

    def test_metadata(self):
        wf = integrate_reduced(self.DATA, PathSpec.line(0.0, 0.7 + 0.2j))
        self.assertIsInstance(wf, Wavefunction)
        self.assertEqual(wf.at, 0.7 + 0.2j)
        self.assertEqual(wf.lam, 0.8)
        self.assertEqual(wf.which, "reduced")

    def test_determinant_preserved(self):
        # trace-free coefficient, so det Psi = 1 along any path
        wf = integrate_reduced(self.DATA, PathSpec.line(0.0, 1.5 + 0.9j))
        self.assertLess(abs(np.linalg.det(wf.value) - 1.0), 1e-10)

    def test_path_independence(self):
        # holomorphic system: straight path and a detour must agree
        end = 0.8 + 0.6j
        straight = integrate_reduced(self.DATA, PathSpec.line(0.0, end))
        bent = integrate_reduced(self.DATA, PathSpec(points=(0.0, 0.8, end)))
        detour = integrate_reduced(self.DATA, PathSpec(points=(0.0, -0.3j, 1.1j, end)))
        self.assertLess(np.max(np.abs(straight.value - bent.value)), 1e-9)
        self.assertLess(np.max(np.abs(straight.value - detour.value)), 1e-9)

    def test_propagate_round_trip(self):
        y = propagate(self.DATA, 0.0, 1 + 1j, (1, 0, 0, 1))
        back = propagate(self.DATA, 1 + 1j, 0.0, y)
        for got, want in zip(back, (1, 0, 0, 1)):
            self.assertLess(abs(got - want), 1e-9)


class TestReducedCoefficient(unittest.TestCase):
    def test_entries(self):
        data = make_data("1+0.3*z", "z^2", 0.8)
        z = 0.4 - 0.3j
        eta, psi = 1 + 0.3 * z, z * z
        w = 0.8 * eta * eta
        want = np.array([[w * psi, -w], [w * psi * psi, -w * psi]])
        got = reduced_coefficient(data, z)
        self.assertLess(np.max(np.abs(got - want)), 1e-15 * np.max(np.abs(want)))
        self.assertLess(abs(np.trace(got)), 1e-15)

    def test_pole_and_overflow_raise_domain_error(self):
        # a pole, and exp(400), which is finite while its square is not
        for eta, z in (("1/z", 0.0), ("exp(z)", 400.0)):
            with self.assertRaises(DomainError, msg=eta):
                reduced_coefficient(make_data(eta, "z", 0.5), z)
        data = make_data("exp(z)", "z", 0.5)
        self.assertTrue(np.isfinite(reduced_coefficient(data, 40.0)).all())


class TestFullIntegration(unittest.TestCase):
    DATA = make_data("1", "z", 1.0)

    def test_determinant_preserved(self):
        wf = integrate_full(self.DATA, PathSpec.line(0.0, 0.6 + 0.4j))
        self.assertEqual(wf.which, "full")
        self.assertLess(abs(np.linalg.det(wf.value) - 1.0), 1e-10)

    def test_incompatible_fields_near_path(self):
        # the probe at the midpoint of the path sits on the pole of
        # eta = 1/z, where the fields cannot be evaluated, so integration
        # must refuse
        data = make_data("1/z", "z", 1.0)
        with self.assertRaisesRegex(IncompatibleSystem,
                                    "not evaluable near path at 0j"):
            integrate_full(data, PathSpec.line(-0.5, 0.5))

    def test_coefficient_is_lax_pair(self):
        # the integrator's coefficient along a -> b is U d + V^H conj(d),
        # d = b - a, with (U, V) the Lax pair geom builds from the fields
        data = make_data("1+0.3*z-0.2*z^2", "z^2+0.5*z", 0.8)
        rng = np.random.default_rng(5)
        fields = fields_from_weierstrass(data)
        coef = _full_coef(data)
        for _ in range(20):
            a, b = rng.uniform(-0.6, 0.6, 2) + 1j * rng.uniform(-0.6, 0.6, 2)
            t = rng.uniform()
            z = a + t * (b - a)
            U, V = build_UV(fields, fields.u_z(z), z)
            want = U * (b - a) + V.conj().T * np.conj(b - a)
            got = np.array(coef(complex(a), complex(b - a), t)).reshape(2, 2)
            self.assertLess(np.max(np.abs(got - want)),
                            1e-13 * np.max(np.abs(want)))

    def test_full_hop_uses_the_geom_lax_pair(self):
        with mock.patch.object(solsurf.lsp, "lax_coefficient",
                               wraps=lax_coefficient) as lax_pair:
            y = propagate(self.DATA, 0.0, 0.3 + 0.2j, (1, 0, 0, 1),
                          system="full")
        self.assertGreater(lax_pair.call_count, 0)
        want = integrate_full(self.DATA, PathSpec.line(0.0, 0.3 + 0.2j))
        self.assertLess(np.max(np.abs(np.array(y).reshape(2, 2)
                                      - want.value)), 1e-12)

    def test_propagate_takes_h_only_as_lambda(self):
        # the benchmark's hop loop passes H = lambda (or None); the full
        # system is integrated at H = lambda only
        want = propagate(self.DATA, 0.0, 0.3 + 0.2j, (1, 0, 0, 1),
                         system="full")
        got = propagate(self.DATA, 0.0, 0.3 + 0.2j, (1, 0, 0, 1),
                        system="full", H=self.DATA.lam)
        self.assertEqual(got, want)
        with self.assertRaises(ValueError):
            propagate(self.DATA, 0.0, 0.3 + 0.2j, (1, 0, 0, 1),
                      system="full", H=0.3)

    def test_round_trip(self):
        y = propagate(self.DATA, 0.0, 0.5 + 0.3j, (1, 0, 0, 1), system="full")
        back = propagate(self.DATA, 0.5 + 0.3j, 0.0, y, system="full")
        for got, want in zip(back, (1, 0, 0, 1)):
            self.assertLess(abs(got - want), 1e-9)


class TestPicardSeries(unittest.TestCase):
    def test_order_zero_is_identity(self):
        data = make_data("1+0.2*z", "z^2", 0.1)
        self.assertTrue(np.array_equal(picard_series(data, 2.0, 0), np.eye(2)))

    def test_order_bounds(self):
        data = make_data("1", "z", 0.1)
        for bad in (-1, 9):
            with self.assertRaises(ValueError):
                picard_series(data, 1.0, bad)

    def test_first_order_closed_form(self):
        # eta = 1, psi = z: the first iterated integral over [0, 1] is
        # [[1/2, -1], [1/3, -1/2]], and order 1 truncates right after it
        lam = 1e-3
        data = make_data("1", "z", lam)
        got = picard_series(data, 1.0, 1)
        want = np.eye(2) + lam * np.array([[0.5, -1.0], [1.0 / 3.0, -0.5]])
        self.assertLess(np.max(np.abs(got - want)), 1e-13)

    def test_converges_to_integrated_solution(self):
        data = make_data("1+0.2*z", "z^2", 0.025)
        ref = integrate_reduced(data, PathSpec.line(0.0, 3.0), tol=1e-13).value
        err6 = np.max(np.abs(picard_series(data, 3.0, 6) - ref))
        err2 = np.max(np.abs(picard_series(data, 3.0, 2) - ref))
        self.assertLess(err6, 1e-8)
        self.assertGreater(err2, err6)


def _track_branch(eta_f, z_from, z_to, s, steps):
    """The gauge's former root continuation: s = (eta/conj(eta))^{1/2}
    carried from z_from to z_to by nearest-phase steps, refined while a
    step moves the phase too far to tell the two roots apart."""
    if z_to == z_from:
        return s
    while steps <= 4096:
        cur = s
        ok = True
        for k in range(1, steps + 1):
            ev = eta_f(z_from + (z_to - z_from) * (k / steps))
            if abs(ev) < 1e-300:
                raise BranchAmbiguity("eta vanishes on the path")
            cand = cmath.exp(0.5j * cmath.phase(ev / ev.conjugate()))
            d_plus = abs(cand - cur)
            d_minus = abs(cand + cur)
            if min(d_plus, d_minus) > 1.2:
                ok = False
                break
            cur = cand if d_plus <= d_minus else -cand
        if ok:
            return cur
        steps *= 2
    raise BranchAmbiguity("branch tracking failed to stabilize")


def _continued_gauge(data, points):
    """The gauge matrix with its root continued from z0 through points,
    as the former gauge_matrix did along the straight path z0 -> z."""
    eta_f, _, psi_f, _ = data.functions()
    e0 = eta_f(data.z0)
    s = cmath.exp(0.5j * cmath.phase(e0 / e0.conjugate()))
    prev = data.z0
    for z in points:
        s = _track_branch(eta_f, prev, complex(z), s, 64)
        prev = complex(z)
    pv = psi_f(prev)
    sc = s.conjugate()
    return np.array([[sc * pv.conjugate(), s], [-sc, s * pv]],
                    dtype=complex) / math.sqrt(1.0 + abs(pv) ** 2)


class TestGaugeTransform(unittest.TestCase):
    DATA = make_data("1+0.2*z", "z^2", 0.7)

    def test_unitary(self):
        for z in (0.5 + 0.4j, -0.3 + 0.2j, 1.1):
            m = gauge_matrix(self.DATA, z)
            self.assertLess(np.max(np.abs(m.conj().T @ m - np.eye(2))), 1e-12)
            self.assertLess(abs(np.linalg.det(m) - 1.0), 1e-12)

    def test_branch_continuation_winds(self):
        # eta = exp(2 i z) on the real axis: eta/conj(eta) = exp(4 i x),
        # whose continuously tracked square root reaches -1 at x = pi/2
        # even though the principal root there is +1
        data = make_data("exp(2*i*z)", "z", 1.0)
        z = 0.5 * math.pi
        m = gauge_matrix(data, z)
        s = m[0, 1] * math.sqrt(1.0 + abs(z) ** 2)
        self.assertLess(abs(s + 1.0), 1e-6)

    def test_closed_form_matches_continued_root(self):
        # straight paths, detours above and below the zero of z-1 to z = 2
        # (the straight path crosses it), a loop around both zeros of
        # z^2-0.25 and a path part way around one, and the winding root
        # of exp(2iz): every continuation lands on the closed form
        cases = [("1+0.2*z", (0.5 + 0.4j,)),
                 ("1+0.2*z", (-0.3 + 0.2j,)),
                 ("z-1", (1 + 1j, 2.0)),
                 ("z-1", (1 - 1j, 2.0)),
                 ("z^2-0.25", (1j, -1 + 1j, -1 - 1j, 1 - 1j, 1 + 1j, 0.3j)),
                 ("z^2-0.25", (0.25j, 0.75 + 0.25j, 0.75 - 0.25j, 0.1 - 0.25j)),
                 ("exp(2*i*z)", (0.5 * math.pi,))]
        for eta, points in cases:
            data = make_data(eta, "z", 0.7)
            want = _continued_gauge(data, points)
            got = gauge_matrix(data, points[-1])
            self.assertLess(np.max(np.abs(got - want)), 1e-13, (eta, points))

    def test_eta_zero_refused(self):
        data = make_data("z-1", "z", 1.0)
        with self.assertRaises(BranchAmbiguity):
            gauge_matrix(data, 1.0)
        at_zero = make_data("z-1", "z", 1.0, z0=1.0)
        with self.assertRaises(BranchAmbiguity):
            gauge_matrix(at_zero, 0.5)

    def test_equivalence_residual_three_paths(self):
        end = 0.5 + 0.4j
        paths = [PathSpec.line(0.0, end),
                 PathSpec(points=(0.0, 0.5, end)),
                 PathSpec(points=(0.0, -0.2j, end))]
        for path in paths:
            res = gauge_equivalence_residual(self.DATA, path)
            self.assertLess(res["dz_residual"], 1e-4, res)
            self.assertLess(res["dzbar_residual"], 1e-4, res)
            self.assertLess(res["m_unitarity"], 1e-12, res)
            self.assertLess(res["trdet_drift"], 1e-8, res)


if __name__ == "__main__":
    unittest.main()
