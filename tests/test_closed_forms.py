"""Exact references for the grid sampler: data whose wavefunction and
classical integral have closed forms, and data with a pole of psi, where
the ODE gauge G = [[1, 0], [psi, 1]] of the sweep is large.

The reduced system Psi_z = lambda eta^2 [[psi, -1], [psi^2, -psi]] Psi
becomes Phi_z = [[0, -lambda eta^2], [-psi', 0]] Phi for Psi = G Phi.
With eta = 1 and psi = z (the Enneper cousin) that coefficient is
constant, and Phi(z) = exp(z [[0, -lambda], [-1, 0]]), so with
k = sqrt(lambda)

    Psi = [[cosh kz, -k sinh kz], [z cosh kz - sinh kz / k,
            cosh kz - kz sinh kz]].

With eta = sqrt(m) / z and psi = z (the catenoid cousins) the lower row
of Phi solves c'' = lambda m c / z^2, an Euler equation: c = z^r with
r (r - 1) = lambda m, and the upper row is -c'.  Either fundamental
solution F, moved by F(z0)^{-1}, is the sampler's Psi with Psi(z0) = I;
h3 moves it by the gauge M(z0) and e3-limit shifts it (_lorentz4).  The
classical integral of (1/2 (1 - psi^2), i/2 (1 + psi^2), psi) eta^2 is a
polynomial for the first and elementary for the second.
"""

import unittest

import numpy as np

from solsurf.expr import parse
from solsurf.geom import WeierstrassData
from solsurf.immersion import DomainRect, _lorentz4, sample_surface
from solsurf.lsp import gauge_matrix

# every valid sample against the closed form, relative to max(1, |x|),
# at tol 1e-8 on 65^2.  Measured: the Enneper cousin 8.5e-12 (h3) and
# 1.3e-11 (e3-limit), the catenoid cousins at most 5.9e-12 and 7.6e-12,
# e3-direct at most 7.2e-16 (the sweep of the reduced system itself read
# 1.1e-12 / 1.9e-12 on the Enneper cousin and 5.8e-11 / 7.3e-11 on the
# catenoid cousin m = 2)
ODE_BOUND = 1e-9
DIRECT_BOUND = 1e-13

# psi = 1/z: every target keeps 1072 of the 33^2 samples, and the sweep
# at tol 1e-8 reads 2.45e-9 (h3) and 3.24e-9 (e3-limit) against itself
# at tol 1e-12, relative to max(1, |x|) (3.56e-9 / 3.79e-9 for the sweep
# of the reduced system)
PSI_POLE_BOUND = 1e-8


def _mul(a, b):
    """Product of 2x2 matrices given by their row-major entries."""
    return (a[0] * b[0] + a[1] * b[2], a[0] * b[1] + a[1] * b[3],
            a[2] * b[0] + a[3] * b[2], a[2] * b[1] + a[3] * b[3])


def _inverse(a):
    det = a[0] * a[3] - a[1] * a[2]
    return (a[3] / det, -a[1] / det, -a[2] / det, a[0] / det)


def _enneper(lam):
    k = np.sqrt(lam)

    def psi_matrix(z):
        c, s = np.cosh(k * z), np.sinh(k * z)
        return c, -k * s, z * c - s / k, c - k * z * s

    def integral(z):
        return np.stack([0.5 * (z - z ** 3 / 3), 0.5j * (z + z ** 3 / 3),
                         0.5 * z ** 2], axis=-1)

    return psi_matrix, integral


def _catenoid(lam, m):
    r1, r2 = (0.5 * (1.0 + s * np.sqrt(1.0 + 4.0 * lam * m))
              for s in (1.0, -1.0))

    def psi_matrix(z):
        # G F, F's columns the two Euler solutions (-c', c)
        f = (-r1 * z ** (r1 - 1.0), -r2 * z ** (r2 - 1.0), z ** r1, z ** r2)
        return _mul((1.0, 0.0, z, 1.0), f)

    def integral(z):
        return np.stack([-0.5 * m * (1.0 / z + z), 0.5j * m * (z - 1.0 / z),
                         m * np.log(z)], axis=-1)

    return psi_matrix, integral


class TestClosedForms(unittest.TestCase):

    def check(self, data, domain, psi_matrix, integral, tol=1e-8):
        """Every valid sample of all three targets against the closed
        form; returns the deviations by target."""
        z = domain.grid()
        z0 = np.array(data.z0)
        psi = _mul(psi_matrix(z), _inverse(psi_matrix(z0)))
        m0 = tuple(gauge_matrix(data, data.z0).ravel())
        want = {
            "h3": np.stack(_lorentz4(_mul(psi, m0), data.lam, 0.0), axis=-1),
            "e3-limit": np.stack(_lorentz4(psi, data.lam, 1.0), axis=-1),
            "e3-direct": (integral(z) - integral(z0)).real,
        }
        devs = {}
        for target, x in want.items():
            patch = sample_surface(data, domain, target, tol=tol)
            self.assertTrue(patch.valid.all(), target)
            scale = np.maximum(1.0, np.abs(x).max(axis=-1))
            devs[target] = float(np.max(np.abs(patch.points - x).max(axis=-1)
                                        / scale))
            bound = DIRECT_BOUND if target == "e3-direct" else ODE_BOUND
            self.assertLessEqual(devs[target], bound, target)
        return devs

    def test_enneper_cousin(self):
        data = WeierstrassData(eta=parse("1"), psi=parse("z"), z0=0j,
                               lam=0.8)
        self.check(data, DomainRect(-1.0, 1.0, -1.0, 1.0, 65, 65),
                   *_enneper(0.8))

    def test_catenoid_cousins(self):
        # on the right half plane, where z^r and log z are principal
        for m in (0.5, 2.0):
            data = WeierstrassData(eta=parse("sqrt(%r)/z" % m),
                                   psi=parse("z"), z0=1.0, lam=0.8)
            self.check(data, DomainRect(0.5, 1.5, -0.5, 0.5, 65, 65),
                       *_catenoid(0.8, m))

    def test_a_wrong_closed_form_fails(self):
        """The comparison sees a change of the data: the Enneper cousin's
        closed form at lambda 0.8 against a sweep at lambda 0.81."""
        data = WeierstrassData(eta=parse("1"), psi=parse("z"), z0=0j,
                               lam=0.81)
        with self.assertRaises(AssertionError):
            self.check(data, DomainRect(-1.0, 1.0, -1.0, 1.0, 17, 17),
                       *_enneper(0.8))


class TestPsiPole(unittest.TestCase):
    """eta = 1, psi = 1/z: G grows with |psi| next to the pole at 0, which
    lies on the centre sample of the 33^2 grid of CI's pole mesh."""

    def test_masks_and_points(self):
        data = WeierstrassData(eta=parse("1"), psi=parse("1/z"),
                               z0=0.9 + 0.9j, lam=0.8)
        domain = DomainRect(-1.0, 1.0, -1.0, 1.0, 33, 33)
        masks = []
        for target in ("h3", "e3-limit", "e3-direct"):
            patch = sample_surface(data, domain, target, tol=1e-8)
            self.assertEqual(int(patch.valid.sum()), 1072, target)
            masks.append(patch.valid)
            if target == "e3-direct":
                continue
            tight = sample_surface(data, domain, target, tol=1e-12)
            both = patch.valid & tight.valid
            scale = np.maximum(1.0, np.abs(tight.points).max(axis=-1))
            dev = np.abs(patch.points - tight.points).max(axis=-1) / scale
            self.assertLessEqual(float(dev[both].max()), PSI_POLE_BOUND,
                                 target)
        for mask in masks[1:]:
            np.testing.assert_array_equal(mask, masks[0])


if __name__ == "__main__":
    unittest.main()
