"""Tests for the adaptive Gauss-Kronrod quadrature and the e3-direct
sampling built on it."""

import cmath
import math
import os
import subprocess
import sys
import unittest
from unittest import mock

import numpy as np

import solsurf.immersion
from solsurf._quad import (QuadratureFailure, _KRONROD_W, _KRONROD_X,
                           adaptive_gl, adaptive_gl_batch, gl_nodes,
                           integration_matrix)
from solsurf.expr import parse
from solsurf.geom import EVAL_ERRORS, WeierstrassData
from solsurf.immersion import (DomainRect, _probe_validity, loop_period,
                               sample_surface)
from solsurf.lsp import PathSpec
from solsurf.odebridge import AntiderivativeNode


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
        # a zero-length segment too
        with self.assertRaises(QuadratureFailure):
            adaptive_gl(lambda z: complex(math.inf, 0.0), 0.5, 0.5)

    def test_non_finite_whole_is_bisected(self):
        # the middle node of [0, 1] sits on the one bad point; its halves
        # never sample it, so the segment is integrated, not failed
        def f(z):
            return complex(math.inf, 0.0) if z == 0.5 else z

        self.assertLessEqual(abs(adaptive_gl(f, 0.0, 1.0) - 0.5), 1e-15)
        with np.errstate(invalid="ignore"):
            want = depth_first_gl(f, 0.0, 1.0, 1e-10, 24)
        self.assertLessEqual(abs(want - 0.5), 1e-15)

    def test_exhausted_depth_fails(self):
        def step(z):
            return 1.0 + 0j if z.real < 0.1234 else 0j

        with self.assertRaises(QuadratureFailure):
            adaptive_gl(step, 0.0, 1.0, tol=1e-12)

    def test_integrand_errors_pass_through(self):
        with self.assertRaises(ZeroDivisionError):
            adaptive_gl(lambda z: 1.0 / z, -1.0, 1.0)


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


class TestFifteenPointRule(unittest.TestCase):
    """adaptive_gl_batch's rule, QUADPACK's Gauss-Kronrod (7, 15) pair, is
    written out, so that sampling costs no import of numpy.polynomial."""

    def moment_errors(self, w, x):
        # the rule's error on x^j over [-1, 1], j = 0..23
        return [abs(float(np.sum(w * x ** j)) - (1 + (-1) ** j) / (j + 1.0))
                for j in range(24)]

    def test_literals_integrate_monomials(self):
        x, (wk, wg) = _KRONROD_X, _KRONROD_W
        self.assertEqual(x.shape, (15,))
        self.assertTrue(bool(np.all(np.diff(x) > 0)))
        # G7 lives on the odd-index nodes, and nowhere else
        self.assertTrue(bool(np.all(wg[0::2] == 0.0)))
        self.assertTrue(bool(np.all(wg[1::2] > 0.0)))
        # K15 is exact through degree 23, G7 through degree 13 only
        kron = self.moment_errors(wk, x)
        gauss = self.moment_errors(wg[1::2], x[1::2])
        self.assertLessEqual(max(kron), 1e-15, kron)
        self.assertLessEqual(max(gauss[:14]), 1e-15, gauss)
        self.assertGreater(gauss[14], 1e-5)
        for w in (wk, wg):
            self.assertLessEqual(abs(float(np.sum(w)) - 2.0), 1e-15)

    def test_sampling_imports_no_polynomial_module(self):
        code = ("import sys\n"
                "from solsurf import DomainRect, WeierstrassData, parse\n"
                "from solsurf.immersion import sample_surface\n"
                "data = WeierstrassData(eta=parse('1+0.2*z'), "
                "psi=parse('z^2'), z0=0j, lam=0.8)\n"
                "patch = sample_surface(data, DomainRect(-0.6, 0.6, -0.6, "
                "0.6, 9, 9), 'e3-direct')\n"
                "assert patch.valid.all()\n"
                "sys.exit('numpy.polynomial' in sys.modules)\n")
        proc = subprocess.run([sys.executable, "-c", code],
                              env=dict(os.environ, PYTHONPATH=SRC),
                              capture_output=True, text=True, timeout=300)
        self.assertEqual(proc.returncode, 0, proc.stderr)


def _legendre_values(nmax, x):
    # P[i, m] = P_i(x_m) for i = 0..nmax by the three-term recurrence
    p = np.empty((nmax + 1, x.size))
    p[0] = 1.0
    if nmax >= 1:
        p[1] = x
    for i in range(1, nmax):
        p[i + 1] = ((2 * i + 1) * x * p[i] - i * p[i - 1]) / (i + 1)
    return p


def _termwise_matrix(n):
    # the antiderivative matrix as it was built before numpy's legendre
    # module built it: int P_i = (P_{i+1} - P_{i-1})/(2i+1) for i >= 1 and
    # int P_0 = P_1 + P_0, each vanishing at x = -1
    x, w = gl_nodes(n)
    p = _legendre_values(n, x)
    coef = ((2.0 * np.arange(n) + 1.0) / 2.0)[:, None] * p[:n] * w[None, :]
    anti = np.empty((n, n))
    anti[0] = p[1] + 1.0
    for i in range(1, n):
        anti[i] = (p[i + 1] - p[i - 1]) / (2 * i + 1)
    return anti.T @ coef


class TestIntegrationMatrix(unittest.TestCase):
    """The Picard oracle's spectral antiderivative matrix S."""

    SIZES = (8, 32, 48, 64, 96)

    def test_equals_the_termwise_matrix(self):
        for n in self.SIZES:
            x, w, s = integration_matrix(n)
            self.assertEqual(s.shape, (n, n))
            self.assertLessEqual(float(np.max(np.abs(s - _termwise_matrix(n)))),
                                 1e-15, n)

    def test_integrates_monomials_from_minus_one(self):
        # S x^k = (x^(k+1) - (-1)^(k+1)) / (k+1) at the nodes, for k < n
        for n in self.SIZES:
            x, _, s = integration_matrix(n)
            k = np.arange(n)
            want = (x[:, None] ** (k + 1) - (-1.0) ** (k + 1)) / (k + 1)
            err = float(np.max(np.abs(s @ x[:, None] ** k - want)))
            self.assertLessEqual(err, 2e-14, n)

    def test_import_loads_no_polynomial_module(self):
        # S and the Gauss nodes load numpy.polynomial on their first call;
        # importing the package and its command line loads none of it
        code = ("import sys, solsurf, solsurf.cli\n"
                "sys.exit(sorted(m for m in sys.modules\n"
                "                if m.startswith('numpy.polynomial')) or 0)\n")
        proc = subprocess.run([sys.executable, "-c", code],
                              env=dict(os.environ, PYTHONPATH=SRC),
                              capture_output=True, text=True, timeout=300)
        self.assertEqual((proc.returncode, proc.stderr), (0, ""))


class TestMendImportsNoMaskedArrays(unittest.TestCase):
    """The kappa mend of the ODE targets' sweep finds its lines without
    np.unique, which imports numpy.ma (1.1 MB) on its first call."""

    def test_h3_mend_imports_no_masked_arrays(self):
        # pole-verify's data at 17^2 takes the mend; the subprocess exits
        # 2 if it does not, and 1 if numpy.ma is loaded after the run
        code = ("import sys\n"
                "import solsurf.immersion as im\n"
                "from solsurf import DomainRect, WeierstrassData, parse\n"
                "calls = []\n"
                "sweep = im._sweep_grid\n"
                "def counting(*args):\n"
                "    weak, fix = args[-1]\n"
                "    def counted(*a):\n"
                "        calls.append(1)\n"
                "        return fix(*a)\n"
                "    return sweep(*args[:-1], (weak, counted))\n"
                "im._sweep_grid = counting\n"
                "data = WeierstrassData(eta=parse('1.011/z'), psi=parse('z'), "
                "z0=0.9+0.9j, lam=0.8)\n"
                "im.sample_surface(data, DomainRect(-1, 1, -1, 1, 17, 17), "
                "'h3')\n"
                "if not calls:\n"
                "    sys.exit(2)\n"
                "sys.exit('numpy.ma' in sys.modules)\n")
        proc = subprocess.run([sys.executable, "-c", code],
                              env=dict(os.environ, PYTHONPATH=SRC),
                              capture_output=True, text=True, timeout=300)
        self.assertEqual(proc.returncode, 0, proc.stderr)


def depth_first_gl(f, a, b, tol, depth):
    """The adaptive rule as a depth-first recursion over a scalar f: the
    reference order of visits and of summation."""
    eps = np.finfo(float).eps

    def rule(a, b):
        # K15, G7 and the rounding floor, summed node by node
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        kron = gauss = re = im = 0.0
        for xm, wk, wg in zip(_KRONROD_X, *_KRONROD_W):
            v = np.asarray(f(mid + half * xm), dtype=complex)
            kron, gauss = kron + wk * v, gauss + wg * v
            re, im = re + wk * np.abs(v.real), im + wk * np.abs(v.imag)
        return half * kron, half * gauss, eps * abs(half) * (re + im)

    def worst(err, floor):
        return float(np.max(np.maximum(err, floor)))

    def rec(a, b, tol, depth, whole):
        m = 0.5 * (a + b)
        (left, _, f_left), (right, _, f_right) = rule(a, m), rule(m, b)
        fine = left + right
        if not np.all(np.isfinite(fine)):
            raise QuadratureFailure("non-finite")
        if worst(np.abs(fine - whole), f_left + f_right) <= tol:
            return fine
        if depth <= 0:
            raise QuadratureFailure("depth")
        return (rec(a, m, 0.5 * tol, depth - 1, left)
                + rec(m, b, 0.5 * tol, depth - 1, right))

    a, b = complex(a), complex(b)
    kron, gauss, floor = rule(a, b)
    # a whole that is not finite is refused, and its halves decide
    if worst(np.abs(kron - gauss), floor) <= tol:
        return kron
    return rec(a, b, tol, depth, kron)


def wiggly(z):
    # on a real segment, 32 to 128 intervals open on one bisection level,
    # more than the batch advances per segment in one round
    return cmath.sin(1000 * z) + 1.0 / (z - 0.37 - 0.0005j)


class TestDepthFirstOrder(unittest.TestCase):
    def test_deep_trees_match_recursion(self):
        # the last segment is accepted at K15 in the first round
        for a, b, tol in ((0.0, 1.0, 1e-9), (-1.0, 1.0, 1e-8),
                          (0.2 + 0.001j, 0.9, 1e-9), (0.5, 0.5005, 1e-9)):
            # the same intervals, each rule summed in node order; the batch
            # adds accepted intervals to its total round by round, not as
            # the recursion's tree adds them, and reads up to 2e-16
            # relative off
            want = depth_first_gl(wiggly, a, b, tol, 24)
            got = adaptive_gl(wiggly, a, b, tol=tol)
            self.assertLessEqual(abs(got - want), 1e-15 * abs(want),
                                 (a, b, tol))

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


class TestToleranceNearRounding(unittest.TestCase):
    """The rounding floor is the rounding a rule's sum carries, about one
    machine epsilon per unit of sum w |f|: a tolerance above it is met."""

    def test_antiderivative_of_a_large_integrand(self):
        # AntiderivativeNode integrates to an absolute 1e-12; exp(z) from 0
        # to 8 sums about 3e3, a floor of 6.6e-13
        node = AntiderivativeNode(parse("exp(z)"), 0j)
        f, fa = node.compiled(), node.compiled_array()
        zs = np.array([4.0, 4.0 + 1.0j, 6.0, 8.0])
        want = np.exp(zs) - 1.0
        got = fa(zs)
        for k, z in enumerate(zs.tolist()):
            bound = max(1e-12, 4 * sys.float_info.epsilon * abs(want[k]))
            self.assertLessEqual(abs(got[k] - want[k]), bound, z)
            self.assertLessEqual(abs(f(z) - want[k]), bound, z)

    def test_direct_sampling_at_two_epsilons(self):
        # README's data: a hop of the 17^2 grid sums well under 1 in
        # w |f|, so a tolerance of two machine epsilons masks no sample
        data = WeierstrassData(eta=parse("1+0.2*z"), psi=parse("z^2"),
                               z0=0j, lam=0.8)
        dom = DomainRect(-0.6, 0.6, -0.6, 0.6, 17, 17)
        patch = sample_surface(data, dom, "e3-direct",
                               tol=2 * sys.float_info.epsilon)
        self.assertTrue(bool(patch.valid.all()))
        ref = sample_surface(data, dom, "e3-direct", tol=1e-8)
        np.testing.assert_allclose(patch.points, ref.points, rtol=0,
                                   atol=1e-13)


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

    def test_values_do_not_depend_on_the_batch(self):
        # each rule is summed in node order by elementwise operations, so
        # a segment gets the same bits alone as among others, deep (the
        # last two pass the pole) or not,
        # whatever BLAS or SIMD kernels numpy runs on
        a, b = self.segments()
        a = np.concatenate([a, [0.0, 0.2 + 0.001j]])
        b = np.concatenate([b, [1.0, 0.9]])

        def scalar(zs):
            return np.sin(3 * zs) + 1.0 / (zs - 0.37 - 0.0005j)

        def vector(zs):
            return np.stack([np.exp(zs), zs * zs, 1.0 / (2.0 + zs)], axis=1)

        for f in (scalar, vector):
            total, failed = adaptive_gl_batch(f, a, b, tol=1e-9)
            self.assertFalse(bool(failed.any()))
            for k in range(a.size):
                alone, _ = adaptive_gl_batch(f, a[k:k + 1], b[k:k + 1],
                                             tol=1e-9)
                np.testing.assert_array_equal(alone[0], total[k])

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


# ROADMAP item 8 cases: an 11 x 11 grid on [-1, 1]^2 based at 0.9+0.9i,
# and the samples masked at tol 1e-8, the same under h3, e3-limit and
# e3-direct.  The seed column x = 0.8 keeps every path off the pole and
# the sqrt cut but row 5, whose left half runs from the seed column into
# the pole of 1/z, and along the cut of sqrt(z) from its branch point
SINGULAR_CASES = {
    ("1/z", "z"): {(5, j) for j in range(6)},
    ("1/(z-0.05-0.05*i)", "z"): set(),
    ("1", "sqrt(z)"): {(5, 5)},
}


class TestDirectSampling(unittest.TestCase):
    dom = DomainRect(-1.0, 1.0, -1.0, 1.0, 11, 11)

    def data(self, eta, psi):
        return WeierstrassData(eta=parse(eta), psi=parse(psi),
                               z0=0.9 + 0.9j, lam=1.0)

    def test_singular_masks(self):
        for (eta, psi), masked in SINGULAR_CASES.items():
            data = self.data(eta, psi)
            for target in ("e3-direct", "h3", "e3-limit"):
                label = "%s %s %s" % (eta, psi, target)
                patch = sample_surface(data, self.dom, target, tol=1e-8)
                self.assertEqual(int(patch.valid.sum()), 121 - len(masked),
                                 label)
                got = {tuple(int(k) for k in ij)
                       for ij in np.argwhere(~patch.valid)}
                self.assertEqual(got, masked, label)
                self.assertTrue(bool(np.all(np.isnan(
                    patch.points[~patch.valid]))), label)
                self.assertTrue(bool(np.all(np.isfinite(
                    patch.points[patch.valid]))), label)

    def test_probe_matches_scalar_closures(self):
        # the rule the probe applies, spelled out with the scalar closures
        dom = DomainRect(-1.0, 1.0, -1.0, 1.0, 17, 17)
        zgrid = dom.grid()
        cases = list(SINGULAR_CASES) + [("1", "log(z)"), ("z", "1/(z-0.25)"),
                                        ("exp(1/z)", "erf(4*z)")]
        for eta, psi in cases:
            data = self.data(eta, psi)
            eta_f, _, psi_f, dpsi_f = data.functions()
            want = np.zeros(zgrid.shape, dtype=bool)
            for (i, j), z in np.ndenumerate(zgrid):
                try:
                    vals = [f(z) for f in (eta_f, psi_f, dpsi_f)]
                except EVAL_ERRORS:
                    continue
                want[i, j] = (vals[0] != 0.0
                              and all(np.isfinite(v) for v in vals))
            got, _ = _probe_validity(data, zgrid)
            self.assertTrue(np.array_equal(got, want), "%s %s" % (eta, psi))

    def test_h3_masks_equal_e3_limit_masks(self):
        # both sweep the reduced system, so singular data masks alike
        cases = [(eta, psi, self.dom) for eta, psi in SINGULAR_CASES]
        cases.append(("1", "log(z)", DomainRect(-1.0, 1.0, -1.0, 1.0, 17, 17)))
        for eta, psi, dom in cases:
            data = self.data(eta, psi)
            for tol in (1e-8, 1e-2):
                h3 = sample_surface(data, dom, "h3", tol=tol)
                limit = sample_surface(data, dom, "e3-limit", tol=tol)
                np.testing.assert_array_equal(h3.valid, limit.valid,
                                              "%s %s tol %g" % (eta, psi, tol))

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

    def test_clean_hops_take_fifteen_points(self):
        # on README's data every hop is accepted at K15 in the first round:
        # 15 integrand points per hop, one per grid sample (z0 = 0 lies on
        # a sample and reaches it by a zero-length hop)
        points, hops = [0], [0]
        phi_batch = solsurf.immersion._phi_vector_batch
        batch = solsurf.immersion.adaptive_gl_batch

        def counted_phi(data):
            fvals = phi_batch(data)

            def counted(zs):
                points[0] += zs.size
                return fvals(zs)

            return counted

        def counted_batch(f, a, b, **kwargs):
            hops[0] += np.size(a)
            return batch(f, a, b, **kwargs)

        data = WeierstrassData(eta=parse("1+0.2*z"), psi=parse("z^2"),
                               z0=0j, lam=0.8)
        dom = DomainRect(-0.6, 0.6, -0.6, 0.6, 17, 17)
        with mock.patch.object(solsurf.immersion, "_phi_vector_batch",
                               counted_phi), \
                mock.patch.object(solsurf.immersion, "adaptive_gl_batch",
                                  counted_batch):
            patch = sample_surface(data, dom, "e3-direct", tol=1e-8)
        self.assertTrue(bool(patch.valid.all()))
        self.assertEqual(hops[0], 17 * 17)
        self.assertEqual(points[0], 15 * hops[0])


if __name__ == "__main__":
    unittest.main()
