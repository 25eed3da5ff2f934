"""Tests for the adaptive Gauss-Legendre quadrature and the e3-direct
sampling built on it."""

import cmath
import math
import unittest
from unittest import mock

import numpy as np

import solsurf.immersion
from solsurf._quad import (QuadratureFailure, adaptive_gl, adaptive_gl_batch,
                           gl_nodes)
from solsurf.expr import parse
from solsurf.geom import EVAL_ERRORS, WeierstrassData
from solsurf.immersion import (DomainRect, _probe_validity, loop_period,
                               sample_surface)
from solsurf.lsp import PathSpec


def _bits(v):
    return np.atleast_1d(np.asarray(v, dtype=complex)).view(np.uint64).tolist()


def vec3(z):
    return np.array([cmath.exp(z), z * z, 1.0 / (2.0 + z)])


class TestAdaptiveGl(unittest.TestCase):
    def test_polynomial_exact(self):
        got = adaptive_gl(lambda z: z ** 3, 0.1 - 0.2j, 0.7 + 0.4j)
        want = ((0.7 + 0.4j) ** 4 - (0.1 - 0.2j) ** 4) / 4.0
        self.assertLess(abs(got - want), 1e-15)

    def test_vector_integrand(self):
        a, b = -0.3 + 0.1j, 0.8 - 0.5j
        got = adaptive_gl(vec3, a, b, tol=1e-13)
        want = [cmath.exp(b) - cmath.exp(a), (b ** 3 - a ** 3) / 3.0,
                cmath.log(2.0 + b) - cmath.log(2.0 + a)]
        self.assertEqual(got.shape, (3,))
        self.assertLess(float(np.max(np.abs(got - want))), 1e-13)

    def test_equal_endpoints_give_zeros(self):
        got = adaptive_gl(vec3, 0.3 + 0.2j, 0.3 + 0.2j)
        self.assertEqual(got.shape, (3,))
        self.assertTrue(bool(np.all(got == 0.0)))
        self.assertEqual(adaptive_gl(cmath.exp, 0.5, 0.5), 0.0)

    def test_non_finite_integrand_fails(self):
        def f(z):
            return complex(math.inf, 0.0) if z.real > 0.3 else 1.0 + 0j

        with self.assertRaises(QuadratureFailure):
            adaptive_gl(f, 0.0, 1.0)

    def test_exhausted_depth_fails(self):
        def step(z):
            return 1.0 + 0j if z.real < 0.1234 else 0j

        with self.assertRaises(QuadratureFailure):
            adaptive_gl(step, 0.0, 1.0, tol=1e-12, max_depth=5)

    def test_integrand_errors_pass_through(self):
        with self.assertRaises(ZeroDivisionError):
            adaptive_gl(lambda z: 1.0 / z, -1.0, 1.0)


def depth_first_gl(f, a, b, tol, depth, n=15):
    """The adaptive rule as a depth-first recursion over a scalar f: the
    reference order of visits and of summation."""
    x, w = gl_nodes(n)

    def rule(a, b):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        total = None
        for xm, wm in zip(x, w):
            v = wm * np.asarray(f(mid + half * xm), dtype=complex)
            total = v if total is None else total + v
        return half * total

    def rec(a, b, tol, depth):
        m = 0.5 * (a + b)
        whole, fine = rule(a, b), rule(a, m) + rule(m, b)
        if not np.all(np.isfinite(fine)):
            raise QuadratureFailure("non-finite")
        if float(np.max(np.abs(fine - whole))) <= tol:
            return fine
        if depth <= 0:
            raise QuadratureFailure("depth")
        return rec(a, m, 0.5 * tol, depth - 1) + rec(m, b, 0.5 * tol, depth - 1)

    return rec(complex(a), complex(b), tol, depth)


def wiggly(z):
    # on a real segment, 32 to 128 intervals open on one bisection level,
    # more than the batch advances per segment in one round
    return cmath.sin(1000 * z) + 1.0 / (z - 0.37 - 0.0005j)


class TestDepthFirstOrder(unittest.TestCase):
    def test_deep_trees_match_recursion(self):
        for a, b, tol in ((0.0, 1.0, 1e-9), (-1.0, 1.0, 1e-8),
                          (0.2 + 0.001j, 0.9, 1e-9)):
            want = depth_first_gl(wiggly, a, b, tol, 24)
            got = adaptive_gl(wiggly, a, b, tol=tol)
            self.assertEqual(_bits(got), _bits(want), (a, b, tol))

    def test_rounding_floor_fails_in_bounded_work(self):
        # 1e6 exp(z) on [0, 1] carries rounding noise near 1e-10 in every
        # rule, so a 1e-14 tolerance is met on no interval at any depth.
        # The segment fails down its leftmost path: at most 25 rounds of
        # 16 intervals, not the 2**24 intervals of its last level.
        budget = 15 + 25 * 16 * 30
        calls = []

        def f(z):
            calls.append(z)
            if len(calls) > budget:
                raise RuntimeError("integrand called %d times" % len(calls))
            return 1e6 * cmath.exp(z)

        with self.assertRaises(QuadratureFailure):
            depth_first_gl(f, 0.0, 1.0, 1e-14, 24)
        del calls[:]
        with self.assertRaises(QuadratureFailure):
            adaptive_gl(f, 0.0, 1.0, tol=1e-14)

        ends = np.array([1.0, -1.0, 1.0 + 1.0j, 0.5, 2.0])
        points = [0]

        def fa(zs):
            points[0] += zs.size
            if points[0] > budget * ends.size:
                raise RuntimeError("%d integrand points" % points[0])
            return 1e6 * np.exp(zs)

        total, failed = adaptive_gl_batch(fa, np.zeros(ends.size), ends,
                                          tol=1e-14)
        self.assertTrue(bool(failed.all()))
        self.assertTrue(bool(np.isnan(total).all()))


class TestBatch(unittest.TestCase):
    def segments(self):
        rng = np.random.default_rng(3)
        a = rng.uniform(-1, 1, 12) + 1j * rng.uniform(-1, 1, 12)
        b = rng.uniform(-1, 1, 12) + 1j * rng.uniform(-1, 1, 12)
        return a, b

    def test_batch_equals_single_calls(self):
        a, b = self.segments()
        # a vector integrand whose rows the batch evaluates one by one
        total, failed = adaptive_gl_batch(
            lambda zs: np.array([vec3(z) for z in zs.tolist()]), a, b,
            tol=1e-11)
        self.assertFalse(bool(failed.any()))
        self.assertEqual(total.shape, (12, 3))
        for k in range(12):
            want = adaptive_gl(vec3, a[k], b[k], tol=1e-11)
            self.assertLessEqual(float(np.max(np.abs(total[k] - want))),
                                 1e-15 * max(1.0, float(np.max(np.abs(want)))))

    def test_scalar_integrand_batch(self):
        a, b = self.segments()
        total, failed = adaptive_gl_batch(
            lambda zs: np.array([cmath.sin(3 * z) for z in zs.tolist()]),
            a, b, tol=1e-12)
        self.assertEqual(total.shape, (12,))
        for k in range(12):
            want = adaptive_gl(lambda z: cmath.sin(3 * z), a[k], b[k],
                               tol=1e-12)
            self.assertLessEqual(abs(total[k] - want), 1e-15)

    def test_failure_is_per_segment(self):
        # segment 1 crosses the pole at 0.5 through a node; the others
        # stay clear of it and keep their values
        a = np.array([-1.0, 0.0, 0.6 + 1j], dtype=complex)
        b = np.array([-0.2, 1.0, 0.9 + 1j], dtype=complex)

        def inv(zs):
            with np.errstate(divide="ignore", invalid="ignore"):
                return 1.0 / (zs - 0.5)

        total, failed = adaptive_gl_batch(inv, a, b, tol=1e-10)
        self.assertEqual(failed.tolist(), [False, True, False])
        self.assertTrue(bool(np.isnan(total[1])))
        for k in (0, 2):
            want = cmath.log(b[k] - 0.5) - cmath.log(a[k] - 0.5)
            self.assertLess(abs(total[k] - want), 1e-10)

    def test_empty_batch(self):
        total, failed = adaptive_gl_batch(np.exp, [], [])
        self.assertEqual(total.shape, (0,))
        self.assertEqual(failed.shape, (0,))


# ROADMAP item 4 cases: an 11 x 11 grid on [-1, 1]^2 based at 0.9+0.9i
SINGULAR_CASES = {
    # (eta, psi): (valid count under e3-direct, under h3)
    ("1/z", "z"): (104, 104),
    ("1/(z-0.05-0.05*i)", "z"): (110, 110),
    ("1", "sqrt(z)"): (65, 120),
}


class TestDirectSampling(unittest.TestCase):
    dom = DomainRect(-1.0, 1.0, -1.0, 1.0, 11, 11)

    def data(self, eta, psi):
        return WeierstrassData(eta=parse(eta), psi=parse(psi),
                               z0=0.9 + 0.9j, lam=1.0)

    def test_singular_masks(self):
        bottom = {(0, j) for j in range(11)}
        masked = {
            ("1/z", "z"): bottom | {(5, j) for j in range(5, 11)},
            ("1/(z-0.05-0.05*i)", "z"): bottom,
            ("1", "sqrt(z)"): ({(i, j) for i in range(5) for j in range(11)}
                               | {(5, 5)}),
        }
        for (eta, psi), (n_direct, n_h3) in SINGULAR_CASES.items():
            data = self.data(eta, psi)
            direct = sample_surface(data, self.dom, "e3-direct", tol=1e-8)
            self.assertEqual(int(direct.valid.sum()), n_direct, eta + " " + psi)
            got = {tuple(int(k) for k in ij)
                   for ij in np.argwhere(~direct.valid)}
            self.assertEqual(got, masked[eta, psi], eta + " " + psi)
            self.assertTrue(bool(np.all(np.isnan(direct.points[~direct.valid]))))
            self.assertTrue(bool(np.all(np.isfinite(direct.points[direct.valid]))))
            h3 = sample_surface(data, self.dom, "h3", tol=1e-8)
            self.assertEqual(int(h3.valid.sum()), n_h3, eta + " " + psi)

    def test_probe_matches_scalar_closures(self):
        # the rule the probe applies, spelled out with the scalar closures
        dom = DomainRect(-1.0, 1.0, -1.0, 1.0, 17, 17)
        zgrid = dom.grid()
        cases = list(SINGULAR_CASES) + [("1", "log(z)"), ("z", "1/(z-0.25)"),
                                        ("exp(1/z)", "erf(4*z)")]
        for eta, psi in cases:
            data = self.data(eta, psi)
            eta_f, deta_f, psi_f, dpsi_f = data.functions()
            for need_deta in (False, True):
                want = np.zeros(zgrid.shape, dtype=bool)
                for (i, j), z in np.ndenumerate(zgrid):
                    try:
                        fs = (eta_f, psi_f, dpsi_f) + ((deta_f,) if need_deta
                                                       else ())
                        vals = [f(z) for f in fs]
                    except EVAL_ERRORS:
                        continue
                    want[i, j] = (vals[0] != 0.0
                                  and all(np.isfinite(v) for v in vals))
                got = _probe_validity(data, zgrid, need_deta)
                self.assertTrue(np.array_equal(got, want),
                                "%s %s %s" % (eta, psi, need_deta))

    def test_tolerance_below_rounding_floor_masks(self):
        # no hop can meet 1e-17, so every sample is masked; each failing
        # batch of hops stays within bounded work
        budget = 15 + 25 * 16 * 30
        batch = solsurf.immersion.adaptive_gl_batch

        def bounded(f, a, b, **kwargs):
            points = [0]

            def counted(zs):
                points[0] += zs.size
                if points[0] > budget * np.size(a):
                    raise RuntimeError("%d integrand points" % points[0])
                return f(zs)

            return batch(counted, a, b, **kwargs)

        data = self.data("1", "z")
        dom = DomainRect(-1.0, 1.0, -1.0, 1.0, 9, 9)
        with mock.patch.object(solsurf.immersion, "adaptive_gl_batch", bounded):
            patch = sample_surface(data, dom, "e3-direct", tol=1e-17)
        self.assertFalse(bool(patch.valid.any()))
        self.assertTrue(bool(np.isnan(patch.points).all()))

    def test_path_through_pole_fails(self):
        # the middle node of the first segment sits on the pole of eta
        data = self.data("1/z", "z")
        with self.assertRaises(QuadratureFailure):
            loop_period(data, PathSpec(points=(-1.0, 1.0, 1j, -1.0)))

    def test_direct_sampling_makes_no_scalar_quadratures(self):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return adaptive_gl(*args, **kwargs)

        data = self.data("1+0.2*z", "z^2")
        dom = DomainRect(-0.5, 0.5, -0.5, 0.5, 17, 17)
        with mock.patch.object(solsurf.immersion, "adaptive_gl", counting):
            patch = sample_surface(data, dom, "e3-direct", tol=1e-8)
        self.assertTrue(bool(patch.valid.all()))
        self.assertEqual(calls, [])


if __name__ == "__main__":
    unittest.main()
