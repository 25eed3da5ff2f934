"""The grid-wide frame sweep against the per-point reconstruction it
replaced, which this file keeps as the reference implementation."""

import io
import math
import unittest
import warnings
from unittest import mock

import numpy as np

import frame_model
import solsurf.cli
import solsurf.immersion
from solsurf.cli import main as cli_main
from solsurf.expr import parse
from solsurf.geom import WeierstrassData
from solsurf.immersion import (FRAME_COLLINEAR, FRAME_CONFORMAL, FRAME_EDGE,
                               FRAME_MASKED, FRAME_OK, FRAME_RANK,
                               FRAME_TIMELIKE, DegenerateFrame, DomainRect,
                               SurfacePatch, frame_and_curvature, frame_sweep,
                               sample_surface)

_G = np.diag([-1.0, 1.0, 1.0, 1.0])

# exception message prefix of each skip reason
_REASONS = {"stencil touches a masked sample": FRAME_MASKED,
            "conformal factor nonpositive": FRAME_CONFORMAL,
            "frame rows rank-deficient": FRAME_RANK,
            "normal direction not spacelike": FRAME_TIMELIKE,
            "tangents collinear": FRAME_COLLINEAR}


class _Skip(Exception):
    pass


def _inner_c(x, y, lorentz):
    if lorentz:
        return complex(x[1] * y[1] + x[2] * y[2] + x[3] * y[3] - x[0] * y[0])
    return complex(x[0] * y[0] + x[1] * y[1] + x[2] * y[2])


def reference_frame(patch, i, j):
    """The per-point reconstruction: (u, H, Q, conformality) at an
    interior sample, or _Skip carrying the reason's message."""
    ny, nx, dim = patch.points.shape
    if not bool(np.all(patch.valid[i - 1:i + 2, j - 1:j + 2])):
        raise _Skip("stencil touches a masked sample")
    lorentz = dim == 4
    p = patch.points
    dx = patch.domain.dx
    dy = patch.domain.dy
    f = p[i, j].astype(float)
    wide = (2 <= i <= ny - 3 and 2 <= j <= nx - 3
            and bool(np.all(patch.valid[i - 2:i + 3, j - 2:j + 3])))
    if wide:
        def d1x(r):
            return (-p[r, j + 2] + 8.0 * p[r, j + 1]
                    - 8.0 * p[r, j - 1] + p[r, j - 2]) / (12.0 * dx)

        fx = d1x(i)
        fy = (-p[i + 2, j] + 8.0 * p[i + 1, j]
              - 8.0 * p[i - 1, j] + p[i - 2, j]) / (12.0 * dy)
        fxx = (-p[i, j + 2] + 16.0 * p[i, j + 1] - 30.0 * p[i, j]
               + 16.0 * p[i, j - 1] - p[i, j - 2]) / (12.0 * dx * dx)
        fyy = (-p[i + 2, j] + 16.0 * p[i + 1, j] - 30.0 * p[i, j]
               + 16.0 * p[i - 1, j] - p[i - 2, j]) / (12.0 * dy * dy)
        fxy = (-d1x(i + 2) + 8.0 * d1x(i + 1)
               - 8.0 * d1x(i - 1) + d1x(i - 2)) / (12.0 * dy)
    else:
        fx = (p[i, j + 1] - p[i, j - 1]) / (2.0 * dx)
        fy = (p[i + 1, j] - p[i - 1, j]) / (2.0 * dy)
        fxx = (p[i, j + 1] - 2.0 * p[i, j] + p[i, j - 1]) / (dx * dx)
        fyy = (p[i + 1, j] - 2.0 * p[i, j] + p[i - 1, j]) / (dy * dy)
        fxy = (p[i + 1, j + 1] - p[i + 1, j - 1] - p[i - 1, j + 1]
               + p[i - 1, j - 1]) / (4.0 * dx * dy)
    f_z = 0.5 * (fx - 1j * fy)
    f_zbar = 0.5 * (fx + 1j * fy)
    f_zzbar = 0.25 * (fxx + fyy)
    f_zz = 0.25 * (fxx - fyy) - 0.5j * fxy
    eu = 2.0 * _inner_c(f_z, f_zbar, lorentz).real
    if not (eu > 0.0 and math.isfinite(eu)):
        raise _Skip("conformal factor nonpositive")
    u = math.log(eu)
    if lorentz:
        _, sv, vt = np.linalg.svd(np.vstack([f, fx, fy]) @ _G)
        if sv[0] == 0.0 or sv[2] <= 1e-8 * sv[0]:
            raise _Skip("frame rows rank-deficient")
        n_vec = vt[-1]
        nn = float(n_vec @ _G @ n_vec)
        if nn <= 1e-12:
            raise _Skip("normal direction not spacelike")
        n_vec = n_vec / math.sqrt(nn)
        if float(f_zzbar @ _G @ n_vec) < 0.0:
            n_vec = -n_vec
    else:
        n_vec = np.cross(fx, fy)
        norm = float(np.linalg.norm(n_vec))
        if norm <= 1e-14:
            raise _Skip("tangents collinear")
        n_vec = n_vec / norm
    h_est = 2.0 * _inner_c(f_zzbar, n_vec, lorentz).real / eu
    q_est = _inner_c(f_zz, n_vec, lorentz)
    if lorentz:
        ip = f_z[1] ** 2 + f_z[2] ** 2 + f_z[3] ** 2 - f_z[0] ** 2
    else:
        ip = f_z[0] ** 2 + f_z[1] ** 2 + f_z[2] ** 2
    return u, h_est, q_est, abs(ip) / math.exp(u)


def wide_and_narrow(patch, ring):
    """How many samples the reference evaluates with the fourth-order and
    with the second-order stencils."""
    ny, nx = patch.valid.shape
    counts = [0, 0]
    for i in range(ring, ny - ring):
        for j in range(ring, nx - ring):
            try:
                reference_frame(patch, i, j)
            except _Skip:
                continue
            wide = (2 <= i <= ny - 3 and 2 <= j <= nx - 3 and bool(
                np.all(patch.valid[i - 2:i + 3, j - 2:j + 3])))
            counts[0 if wide else 1] += 1
    return counts


def enneper(lam):
    return WeierstrassData(eta=parse("1"), psi=parse("z"), z0=0j, lam=lam)


def overwrite(patch, rows, cols, fn):
    """Replace the points of a block by fn(x, y) at each sample."""
    z = patch.domain.grid()[rows, cols]
    patch.points[rows, cols] = fn(z.real, z.imag)


def _stack(*comps):
    return np.stack(np.broadcast_arrays(*comps), axis=-1)


class SweepCase(unittest.TestCase):
    def compare(self, patch, ring, rtol):
        sweep = frame_sweep(patch, ring)
        ny, nx = patch.valid.shape
        self.assertEqual(sweep.reason.shape, (ny, nx))
        seen = set()
        for i in range(ny):
            for j in range(nx):
                code = int(sweep.reason[i, j])
                if not (ring <= i < ny - ring and ring <= j < nx - ring):
                    self.assertEqual(code, FRAME_EDGE)
                    continue
                try:
                    want = reference_frame(patch, i, j)
                except _Skip as exc:
                    reason = _REASONS[str(exc)]
                    seen.add(reason)
                    self.assertEqual(code, reason, (i, j))
                    self.assertTrue(math.isnan(sweep.H_est[i, j]))
                    with self.assertRaisesRegex(DegenerateFrame,
                                                "^%s at \\(%d, %d\\)$"
                                                % (exc, i, j)):
                        frame_and_curvature(patch, (i, j))
                    continue
                seen.add(FRAME_OK)
                self.assertEqual(code, FRAME_OK, (i, j))
                got = [sweep.u[i, j], sweep.H_est[i, j], sweep.Q_est[i, j],
                       sweep.conformality[i, j]]
                floor = [0.0] * 4
                if abs(want[1]) < 1e-12:
                    # (F_zzbar|N) is rounding noise, so the orientation of
                    # N is undefined: H to an absolute floor, Q up to sign
                    floor[1] = 1e-13
                    if abs(got[2] + want[2]) < abs(got[2] - want[2]):
                        got[2] = -got[2]
                for name, g, w, fl in zip(("u", "H", "Q", "conformality"),
                                          got, want, floor):
                    self.assertLessEqual(abs(g - w), max(rtol * abs(w), fl),
                                         "%s at (%d, %d)" % (name, i, j))
                fr = frame_and_curvature(patch, (i, j))
                self.assertEqual(fr.u, sweep.u[i, j])
                self.assertEqual(fr.H_est, sweep.H_est[i, j])
                self.assertEqual(fr.Q_est, sweep.Q_est[i, j])
        return seen


def enneper_h3_patch():
    return sample_surface(enneper(1.0),
                          DomainRect(-0.3, 0.3, -0.3, 0.3, 13, 13), "h3",
                          tol=1e-10)


def e3_direct_patch():
    return sample_surface(enneper(1.0),
                          DomainRect(-0.5, 0.5, -0.5, 0.5, 15, 15),
                          "e3-direct", tol=1e-10)


def make_e3_direct_degenerate(patch):
    """A constant block has no tangents, a block over one line has
    collinear ones."""
    overwrite(patch, slice(0, 6), slice(0, 6),
              lambda x, y: _stack(0.3, -0.2, 0.1))
    overwrite(patch, slice(8, 15), slice(8, 15),
              lambda x, y: _stack(x + y, 0.0, 0.0))


def pole_patch():
    data = WeierstrassData(eta=parse("1/z"), psi=parse("z"),
                           z0=0.9 + 0.9j, lam=0.8)
    return sample_surface(data, DomainRect(-1, 1, -1, 1, 25, 25), "h3",
                          tol=1e-8)


def make_pole_degenerate(patch):
    """Far corners made degenerate: a constant block, a plane through the
    origin (rank 2) and a block in the X0 = 0 hyperplane, whose normal is
    timelike."""
    overwrite(patch, slice(19, 25), slice(0, 6),
              lambda x, y: _stack(1.5, 0.2, 0.1, 0.0))
    overwrite(patch, slice(19, 25), slice(19, 25),
              lambda x, y: _stack(0.0, x, y, 0.0))
    overwrite(patch, slice(13, 19), slice(19, 25),
              lambda x, y: _stack(0.0, 1.0, x, y))


class TestFrameSweep(SweepCase):
    def test_enneper_h3(self):
        patch = enneper_h3_patch()
        for ring in (1, 2):
            self.assertEqual(self.compare(patch, ring, 1e-12), {FRAME_OK})

    def test_e3_direct(self):
        patch = e3_direct_patch()
        self.assertEqual(self.compare(patch, 2, 1e-12), {FRAME_OK})
        make_e3_direct_degenerate(patch)
        seen = self.compare(patch, 1, 1e-12)
        self.assertEqual(seen, {FRAME_OK, FRAME_CONFORMAL, FRAME_COLLINEAR})

    def test_pole_on_a_sample(self):
        patch = pole_patch()
        self.assertFalse(patch.valid[12, 12])
        wide, narrow = wide_and_narrow(patch, 1)
        self.assertGreater(wide, 0)
        self.assertGreater(narrow, 0)
        make_pole_degenerate(patch)
        seen = self.compare(patch, 1, 1e-9) | self.compare(patch, 2, 1e-9)
        self.assertEqual(seen, {FRAME_OK, FRAME_MASKED, FRAME_CONFORMAL,
                                FRAME_RANK, FRAME_TIMELIKE})

    def test_ring(self):
        patch = sample_surface(enneper(1.0),
                               DomainRect(-0.3, 0.3, -0.3, 0.3, 5, 5),
                               "h3", tol=1e-10)
        with self.assertRaises(ValueError):
            frame_sweep(patch, 0)
        self.assertTrue(bool(np.all(frame_sweep(patch, 3).reason
                                    == FRAME_EDGE)))

    def test_underflowing_steps_raise_no_warning(self):
        # on a 1e-300 square dx * dx underflows to 0, and the stencils
        # divide by it; the sweep computes under errstate and warns nothing
        patch = sample_surface(enneper(1.0),
                               DomainRect(0.0, 1e-300, 0.0, 1e-300, 9, 9),
                               "h3")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sweep = frame_sweep(patch, 2)
        self.assertEqual(sweep.reason.shape, (9, 9))


def infinite_zzbar_patch():
    """A 9x9 e3-limit patch on a square of side 8e-170, its points
    dx (a t + b s + c (t^2 + s^2)) at column t and row s: the tangents are
    fine, but 12 dx dx underflows to 0, so every component of F_xx, F_yy
    and F_zzbar is infinite at every evaluated sample, none NaN, and the
    signs c make the Lorentz form (F_zzbar|N) -inf at most of them."""
    dx, n, lam = 1e-170, 9, 1e170
    t = np.arange(n, dtype=float)[None, :, None]
    s = np.arange(n, dtype=float)[:, None, None]
    a = np.array([0.3, 1.0, 0.2, 0.1])
    b = np.array([0.2, 0.1, 1.0, 0.3])
    c = np.array([1e-3, 1e-3, 1e-3, -1e-3])
    return SurfacePatch(data=enneper(lam), target="e3-limit", lam=lam,
                        domain=DomainRect(0.0, 8 * dx, 0.0, 8 * dx, n, n),
                        tol=1e-8, valid=np.ones((n, n), dtype=bool),
                        points=dx * (a * t + b * s + c * (t * t + s * s)))


class TestAgainstFrameModel(unittest.TestCase):
    """frame_sweep byte-equal to its output over frame_model's block,
    which formed both stencils at every sample, at rings 1 and 2."""

    def assert_model_equal(self, patch, label):
        for ring in (1, 2):
            got = frame_sweep(patch, ring)
            with mock.patch.object(solsurf.immersion, "_frame_block",
                                   frame_model._frame_block):
                want = frame_sweep(patch, ring)
            for name in ("reason", "u", "H_est", "Q_est", "conformality"):
                self.assertEqual(getattr(got, name).tobytes(),
                                 getattr(want, name).tobytes(),
                                 "%s: %s at ring %d" % (label, name, ring))

    def test_frame_sweep_patches(self):
        """TestFrameSweep's patches, which reach every FRAME_* code, and
        the patch on which dx * dx underflows."""
        self.assert_model_equal(enneper_h3_patch(), "enneper h3")
        patch = e3_direct_patch()
        self.assert_model_equal(patch, "e3-direct")
        make_e3_direct_degenerate(patch)
        self.assert_model_equal(patch, "e3-direct degenerate")
        patch = pole_patch()
        self.assert_model_equal(patch, "pole")
        make_pole_degenerate(patch)
        self.assert_model_equal(patch, "pole degenerate")
        patch = sample_surface(enneper(1.0),
                               DomainRect(0.0, 1e-300, 0.0, 1e-300, 9, 9),
                               "h3")
        self.assert_model_equal(patch, "underflow")

    def test_pole_on_33_squared(self):
        """eta = 1/z on 33^2 masks the pole and the 16 samples left of it,
        so the second-order stencils are gathered in interior blocks."""
        data = WeierstrassData(eta=parse("1/z"), psi=parse("z"),
                               z0=0.9 + 0.9j, lam=0.8)
        for target in ("h3", "e3-limit", "e3-direct"):
            patch = sample_surface(data, DomainRect(-1, 1, -1, 1, 33, 33),
                                   target)
            v = patch.valid
            narrow = [(i, j) for i in range(9, 24) for j in range(2, 31)
                      if v[i - 1:i + 2, j - 1:j + 2].all()
                      and not v[i - 2:i + 3, j - 2:j + 3].all()]
            self.assertGreater(len(narrow), 0, target)
            self.assert_model_equal(patch, target)

    def test_infinite_zzbar_keeps_the_normal(self):
        """A row of F_zzbar that is not finite made the product with G a
        row of NaN, so N kept its sign there; so it does with the signs
        applied elementwise: H stays -inf, at 45 of the 49 samples."""
        patch = infinite_zzbar_patch()
        sweep = frame_sweep(patch, 1)
        self.assertEqual(int(np.count_nonzero(sweep.reason == FRAME_OK)), 49)
        self.assertEqual(int(np.count_nonzero(sweep.H_est == -np.inf)), 45)
        self.assert_model_equal(patch, "infinite F_zzbar")


def readme_data(lam):
    return WeierstrassData(eta=parse("1+0.2*z"), psi=parse("z^2"), z0=0j,
                           lam=lam)


class TestLorentzNormal(unittest.TestCase):
    """The closed-form Lorentz normal against its defining identities, on
    the hyperboloid of each Lorentz target: centred at the origin for h3,
    at -e0/lambda for e3-limit."""

    def test_e3_limit_frames_use_its_centre(self):
        patch = sample_surface(readme_data(0.01),
                               DomainRect(-1, 1, -1, 1, 65, 65), "e3-limit")
        sweep = frame_sweep(patch, 2)
        inner = (slice(2, 63), slice(2, 63))
        self.assertEqual(int(np.count_nonzero(sweep.reason[inner]
                                              == FRAME_OK)), 3721)
        self.assertLess(float(np.max(np.abs(sweep.H_est[inner] - 0.01))),
                        1e-6)

    def test_e3_limit_frames_at_tiny_lambda(self):
        # the frames of the flat surface at lambda 1e-12 are all evaluated,
        # and at 1e-100 the sweep overflows nowhere
        flat = DomainRect(-0.5, 0.5, -0.5, 0.5, 9, 9)
        patch = sample_surface(enneper(1e-12), flat, "e3-limit")
        reason = frame_sweep(patch, 2).reason
        self.assertEqual(int(np.count_nonzero(reason == FRAME_RANK)), 0)
        self.assertEqual(int(np.count_nonzero(reason == FRAME_OK)), 25)
        patch = sample_surface(enneper(1e-100), flat, "e3-limit")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            frame_sweep(patch, 2)
        self.assertEqual([str(w.message) for w in caught], [])

    def test_normal_identities(self):
        for target, lam in (("h3", 0.8), ("e3-limit", 0.01)):
            patch = sample_surface(readme_data(lam),
                                   DomainRect(-0.6, 0.6, -0.6, 0.6, 17, 17),
                                   target)
            centre = np.zeros(4)
            if target == "e3-limit":
                centre[0] = -1.0 / lam
            samples = np.argwhere(frame_sweep(patch, 1).reason == FRAME_OK)
            self.assertEqual(len(samples), 15 * 15)
            for i, j in samples:
                fr = frame_and_curvature(patch, (i, j))
                n = fr.N
                fx = (fr.F_z + fr.F_zbar).real
                fy = (1j * (fr.F_z - fr.F_zbar)).real
                for v in (fr.F - centre, fx, fy):
                    self.assertLessEqual(
                        abs(n @ _G @ v),
                        1e-12 * np.linalg.norm(n) * np.linalg.norm(v),
                        (target, i, j))
                self.assertLessEqual(abs(n @ _G @ n - 1.0), 1e-12 * (n @ n))
                # H = 2 e^{-u} (F_zzbar|N), so this is (F_zzbar|N) >= 0
                self.assertGreaterEqual(fr.H_est, 0.0)


class TestBatteryUsesSweep(unittest.TestCase):
    def test_generate_makes_no_per_point_frame_calls(self):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return frame_and_curvature(*args, **kwargs)

        with mock.patch.object(solsurf.cli, "frame_and_curvature", counting):
            code = cli_main(["generate", "--eta", "1", "--psi", "z",
                             "--domain", "-0.5:0.5:-0.5:0.5", "--res", "17"],
                            stream=io.StringIO())
        self.assertEqual(code, 0)
        self.assertEqual(calls, [])


if __name__ == "__main__":
    unittest.main()
