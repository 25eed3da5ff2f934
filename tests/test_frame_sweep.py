"""The grid-wide frame sweep against the per-point reconstruction it
replaced, which this file keeps as the reference implementation."""

import io
import math
import unittest
from unittest import mock

import numpy as np

import solsurf.cli
from solsurf.cli import main as cli_main
from solsurf.expr import parse
from solsurf.geom import WeierstrassData
from solsurf.immersion import (FRAME_COLLINEAR, FRAME_CONFORMAL, FRAME_EDGE,
                               FRAME_MASKED, FRAME_OK, FRAME_RANK,
                               FRAME_TIMELIKE, DegenerateFrame, DomainRect,
                               frame_and_curvature, frame_sweep,
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
                got = (sweep.u[i, j], sweep.H_est[i, j], sweep.Q_est[i, j],
                       sweep.conformality[i, j])
                for name, g, w in zip(("u", "H", "Q", "conformality"),
                                      got, want):
                    self.assertLessEqual(abs(g - w), rtol * abs(w),
                                         "%s at (%d, %d)" % (name, i, j))
                fr = frame_and_curvature(patch, (i, j))
                self.assertEqual(fr.u, sweep.u[i, j])
                self.assertEqual(fr.H_est, sweep.H_est[i, j])
                self.assertEqual(fr.Q_est, sweep.Q_est[i, j])
        return seen


class TestFrameSweep(SweepCase):
    def test_enneper_h3(self):
        patch = sample_surface(enneper(1.0),
                               DomainRect(-0.3, 0.3, -0.3, 0.3, 13, 13),
                               "h3", tol=1e-10)
        for ring in (1, 2):
            self.assertEqual(self.compare(patch, ring, 1e-12), {FRAME_OK})

    def test_e3_direct(self):
        patch = sample_surface(enneper(1.0),
                               DomainRect(-0.5, 0.5, -0.5, 0.5, 15, 15),
                               "e3-direct", tol=1e-10)
        self.assertEqual(self.compare(patch, 2, 1e-12), {FRAME_OK})
        # a constant block has no tangents, a block over one line has
        # collinear ones
        overwrite(patch, slice(0, 6), slice(0, 6),
                  lambda x, y: _stack(0.3, -0.2, 0.1))
        overwrite(patch, slice(8, 15), slice(8, 15),
                  lambda x, y: _stack(x + y, 0.0, 0.0))
        seen = self.compare(patch, 1, 1e-12)
        self.assertEqual(seen, {FRAME_OK, FRAME_CONFORMAL, FRAME_COLLINEAR})

    def test_pole_on_a_sample(self):
        data = WeierstrassData(eta=parse("1/z"), psi=parse("z"),
                               z0=0.9 + 0.9j, lam=0.8)
        patch = sample_surface(data, DomainRect(-1, 1, -1, 1, 25, 25), "h3",
                               tol=1e-8)
        self.assertFalse(patch.valid[12, 12])
        wide, narrow = wide_and_narrow(patch, 1)
        self.assertGreater(wide, 0)
        self.assertGreater(narrow, 0)
        # far corners made degenerate: a constant block, a plane through
        # the origin (rank 2) and a block in the X0 = 0 hyperplane, whose
        # normal is timelike
        overwrite(patch, slice(19, 25), slice(0, 6),
                  lambda x, y: _stack(1.5, 0.2, 0.1, 0.0))
        overwrite(patch, slice(19, 25), slice(19, 25),
                  lambda x, y: _stack(0.0, x, y, 0.0))
        overwrite(patch, slice(13, 19), slice(19, 25),
                  lambda x, y: _stack(0.0, 1.0, x, y))
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
