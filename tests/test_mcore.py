"""Tests for the Hermitian-matrix model of Lorentz 4-space.

The model (tests/hermitian_model.py, formerly the library module
solsurf.mcore) is the oracle of the immersion formulas' tests, so it is
checked on its own here.
"""

import unittest

import numpy as np

from hermitian_model import (det2, hermitian_from_lorentz,
                             lorentz_from_hermitian, lorentz_inner, rho_action)

ID2 = np.eye(2, dtype=complex)
# the Pauli matrices
SIGMA = (np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
         np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
         np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex))


def random_su2(rng):
    """Haar-ish SU(2) element from a normalized quaternion."""
    q = rng.standard_normal(4)
    q = q / np.linalg.norm(q)
    return np.array([[q[0] + 1j * q[1], q[2] + 1j * q[3]],
                     [-q[2] + 1j * q[3], q[0] - 1j * q[1]]])


def random_sl2c(rng):
    m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    d = det2(m)
    if abs(d) < 1e-6:
        m = m + ID2
        d = det2(m)
    return m / np.sqrt(d)


class TestHermitianMap(unittest.TestCase):
    def setUp(self):
        self.rng = np.random.default_rng(20240811)

    def test_round_trip(self):
        for _ in range(20):
            x = self.rng.standard_normal(4)
            m = hermitian_from_lorentz(x)
            self.assertTrue(np.allclose(m, m.conj().T))
            back = lorentz_from_hermitian(m)
            self.assertTrue(np.allclose(back, x, atol=1e-14))

    def test_basis_images(self):
        self.assertTrue(np.allclose(hermitian_from_lorentz([1, 0, 0, 0]), ID2))
        for k in range(3):
            e = [0.0] * 4
            e[k + 1] = 1.0
            self.assertTrue(np.allclose(hermitian_from_lorentz(e), SIGMA[k]))

    def test_norm_is_minus_det(self):
        for _ in range(20):
            x = self.rng.standard_normal(4)
            m = hermitian_from_lorentz(x)
            self.assertAlmostEqual(lorentz_inner(x, x), -det2(m).real, places=12)
            self.assertAlmostEqual(det2(m).imag, 0.0, places=12)

    def test_skew_part_rejected(self):
        m = hermitian_from_lorentz([1.0, 0.5, -0.25, 2.0])
        m[0, 1] += 1e-6j
        with self.assertRaisesRegex(ValueError, "skew part"):
            lorentz_from_hermitian(m, tol=1e-10)
        # jitter below tol is symmetrized away instead
        m2 = hermitian_from_lorentz([1.0, 0.5, -0.25, 2.0])
        m2[0, 1] += 1e-13j
        lorentz_from_hermitian(m2, tol=1e-10)

    def test_shape_checks(self):
        with self.assertRaises(ValueError):
            hermitian_from_lorentz([1.0, 2.0, 3.0])
        with self.assertRaises(ValueError):
            lorentz_from_hermitian(np.eye(3))


class TestInnerProduct(unittest.TestCase):
    def test_signature(self):
        self.assertEqual(lorentz_inner([1, 0, 0, 0], [1, 0, 0, 0]), -1.0)
        for k in range(1, 4):
            e = [0.0] * 4
            e[k] = 1.0
            self.assertEqual(lorentz_inner(e, e), 1.0)


class TestGroupAction(unittest.TestCase):
    def setUp(self):
        self.rng = np.random.default_rng(42)

    def test_action_is_isometric(self):
        for _ in range(10):
            a = random_sl2c(self.rng)
            x = self.rng.standard_normal(4)
            y = self.rng.standard_normal(4)
            ax = rho_action(a, x)
            ay = rho_action(a, y)
            self.assertAlmostEqual(lorentz_inner(ax, ay),
                                   lorentz_inner(x, y), places=10)

    def test_su2_fixes_time_axis(self):
        for _ in range(10):
            a = random_su2(self.rng)
            t = rho_action(a, [1.0, 0.0, 0.0, 0.0])
            self.assertTrue(np.allclose(t, [1.0, 0.0, 0.0, 0.0], atol=1e-12))

    def test_non_unimodular_rejected(self):
        with self.assertRaisesRegex(ValueError, "det"):
            rho_action(2.0 * ID2, [1.0, 0.0, 0.0, 0.0])

    def test_composition(self):
        a = random_sl2c(self.rng)
        b = random_sl2c(self.rng)
        x = self.rng.standard_normal(4)
        lhs = rho_action(b, rho_action(a, x))
        rhs = rho_action(a @ b, x)
        self.assertTrue(np.allclose(lhs, rhs, atol=1e-10))


if __name__ == "__main__":
    unittest.main()
