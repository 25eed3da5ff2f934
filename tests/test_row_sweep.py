"""The grid sweep against the per-sample loops it replaced, which this
file keeps as the reference implementations: per_hop_reference for the
ODE targets, one scalar hop per sample, and
per_row_quadrature_reference for e3-direct.  The ODE targets integrate
the reduced system Psi in the paper's ODE gauge, Phi = G^{-1} Psi with
G = [[1, 0], [psi, 1]], and form Psi = G Phi at each sample; default h3
moves Psi by the gauge at z0.  per_hop_reference takes each hop as the
sweep does whatever its batch (sweep_hop: Phi, or Psi across a cut of
psi and past a masked sample), and the former loop, one scalar
propagate of Psi per sample, is its gauged=False form, the independent
oracle.  The sweep multiplies each hop's transfer matrix from the
identity into the wavefunction at the hop's start, so its ODE points
are not bitwise those of hopping sample by sample; e3-direct's are."""

import unittest
import warnings
from unittest import mock

import numpy as np

import solsurf.immersion
from solsurf._quad import QuadratureFailure, adaptive_gl, adaptive_gl_batch
from solsurf.expr import parse
from solsurf.geom import EVAL_ERRORS, DomainError, WeierstrassData
from solsurf.immersion import (DomainRect, _lorentz4, _phi_vector_batch,
                               _probe_validity, _sweep_lines, sample_surface)
from lanes_model import gauged_hop, lane_coef, scalar_coef, table_fresh
from solsurf.lsp import (StepUnderflow, _ID4, _UNIT_NODES, _UNIT_WEIGHTS,
                         _gauged_coef, _integrate_unit, _integrate_lanes,
                         _mul4, _mul4_array, gauge_matrix, propagate)
from solsurf.immersion import _KAPPA_MEND, _SWEEP_ROWS
from solsurf.odebridge import erf_example_data

_HOP_ERRORS = (StepUnderflow, DomainError) + EVAL_ERRORS

# (eta, psi, z0, lambda, domain): ROADMAP item 5's cases on 11x11 with
# z0 = 0.9+0.9i (a pole on a sample, a pole between samples, two branch
# cuts), and clean data
CASES = {
    "clean": ("1+0.2*z", "z^2", 0j, 0.8, (-0.6, 0.6, -0.6, 0.6, 17, 17)),
    "pole_on_sample": ("1/z", "z", 0.9 + 0.9j, 0.8, (-1, 1, -1, 1, 11, 11)),
    "pole_off_sample": ("1/(z-0.05-0.05*i)", "z", 0.9 + 0.9j, 0.8,
                        (-1, 1, -1, 1, 11, 11)),
    "sqrt_cut": ("1", "sqrt(z)", 0.9 + 0.9j, 0.8, (-1, 1, -1, 1, 11, 11)),
    "log_cut": ("1", "log(z)", 0.9 + 0.9j, 0.8, (-1, 1, -1, 1, 11, 11)),
    "sqrt_left": ("1", "sqrt(z)", -0.9 + 0.9j, 0.8, (-1, 1, -1, 1, 11, 11)),
    "log_left": ("1", "log(z)", -0.9 + 0.9j, 0.8, (-1, 1, -1, 1, 11, 11)),
}
# (target, system) of the ODE sampler
TARGETS = (("h3", None), ("e3-limit", None), ("h3", "reduced"))
# tol 1e-2 and 1e-12 reject some first steps, so hops take several steps;
# against the per-hop loop the pole data skips 1e-12, where that loop's
# hops across the pole take seconds to underflow
TOLS = (1e-8, 1e-2, 1e-12)


def _tols(name):
    return TOLS[:2] if name.startswith("pole") else TOLS


# the sweep's ODE points on clean data against the per-hop loop, relative
# to max(1, |x|): the rounding of the products T Psi, at most 2.2e-14
# measured (tol 1e-12)
CLEAN_REL = 1e-13

# the lane integrator's hops against the scalar integrator's, relative to
# the largest entry, and the array coefficient tables against the scalar
# coefficient, entrywise: numpy's products and the array closures round
# differently from Python's, by at most 8.7e-16 and 5.5e-16 measured
STEP_REL = 1e-14
TABLE_REL = 4e-15
# a hop across the pole settles only at tol 1e-2, in steps over the pole
# whose values reach 1.9e4, and its rounding grows with them: 2.6e-14
# against the scalar integrator measured, relative to the largest entry
CROSS_REL = 1e-13

# the former per-hop loop's largest error at tol 1e-8 against itself at
# tol 1e-12, relative to max(1, |x|), on the singular cases; the sweep may
# reach 5x these.  It measures up to 0.42x on pole_on_sample, 0.46x on
# pole_off_sample, 1.37-1.41x on sqrt_cut, 0.25x on log_cut, 0.43x on
# sqrt_left and 0.09x on log_left (the sweep of the reduced system read
# 1.2x, 1.1x, 0.5-0.6x and 1.0x on the first four).  Without its mend of
# ill-conditioned hops the reduced system's sweep read 22-23x on
# pole_off_sample: row 5 runs left from the seed column through (5, 5),
# 0.07 from the pole, and the transfer matrix of the hop (5, 5) -> (5, 4),
# within 2.4e-9 of its size, multiplies a wavefunction that the hop
# shrinks about sixfold.  The gauged sweep reads 1.35x there with the
# mend's hops at tol.  The seed column of the _left cases crosses the
# cut of psi, where the sweep takes its hops on Psi: taken on Phi, they
# moved every later sample by up to 0.7 (log) and 1e-6 (sqrt)
PER_HOP_ERROR = {
    ("pole_on_sample", "h3", None): 7.689e-09,
    ("pole_on_sample", "e3-limit", None): 1.108e-08,
    ("pole_on_sample", "h3", "reduced"): 8.324e-09,
    ("pole_off_sample", "h3", None): 9.538e-09,
    ("pole_off_sample", "e3-limit", None): 1.426e-08,
    ("pole_off_sample", "h3", "reduced"): 1.132e-08,
    ("sqrt_cut", "h3", None): 7.153e-08,
    ("sqrt_cut", "e3-limit", None): 7.955e-08,
    ("sqrt_cut", "h3", "reduced"): 7.053e-08,
    ("log_cut", "h3", None): 3.097e-07,
    ("log_cut", "e3-limit", None): 3.237e-07,
    ("log_cut", "h3", "reduced"): 3.097e-07,
    ("sqrt_left", "h3", None): 1.047e-06,
    ("sqrt_left", "e3-limit", None): 1.218e-06,
    ("sqrt_left", "h3", "reduced"): 9.462e-07,
    ("log_left", "h3", None): 1.129e-06,
    ("log_left", "e3-limit", None): 1.282e-06,
    ("log_left", "h3", "reduced"): 1.129e-06,
}


def _data(name):
    eta, psi, z0, lam, dom = CASES[name]
    return (WeierstrassData(eta=parse(eta), psi=parse(psi), z0=z0, lam=lam),
            DomainRect(*dom))


def _old_lorentz4(y, lam, shift=0.0):
    # the tuple formula on complex products, as the per-hop loop used it
    a, b, c, d = y
    q11 = (a.conjugate() * a + c.conjugate() * c).real - shift
    q22 = (b.conjugate() * b + d.conjugate() * d).real - shift
    p12 = a.conjugate() * b + c.conjugate() * d
    return (0.5 * (q11 + q22) / lam, p12.real / lam,
            -p12.imag / lam, 0.5 * (q11 - q22) / lam)


def _seed_column(zgrid, z0):
    """The sweep's seed column, the grid column nearest z0, and its rows,
    nearest z0 first."""
    c = int(np.argmin(np.abs(zgrid[0].real - z0.real)))
    return c, sorted(range(zgrid.shape[0]),
                     key=lambda i: abs(complex(zgrid[i, c]) - z0))


def _halves(n, k):
    """The index sequences of the two halves of a line of n samples
    through k: k .. n - 1 and k .. 0."""
    return range(k, n), range(k, -1, -1)


def per_hop_reference(data, domain, target, tol=1e-8, system=None,
                      refuse=(), gauged=True):
    """The sampler's loop for the ODE targets, hop by hop on the sweep's
    paths: one scalar hop per sample as the sweep takes it (sweep_hop),
    its transfer matrix from the identity times the value at the last
    good sample, as the sweep combines them, from Phi(z0) = G(z0)^{-1},
    and Psi = G Phi at every sample.  (An adaptive hop from that value
    instead takes its own steps: on the clean case at tol 1e-8 it reads
    3.9e-10 from the sweep, where Psi's pointwise nilpotent coefficient
    crossed each hop in one step.)  gauged=False makes it the former
    loop, one scalar propagate of Psi per sample from that value, from
    Psi(z0) = I, the independent oracle.  Default h3 emits the
    wavefunction times the gauge at z0.  The first hop goes from z0 into
    the seed column's probe-valid samples, nearest first, until one
    succeeds; the samples tried before it are masked.  From that sample
    the column runs up and down, then every row left and right from its
    seed-column sample.  A hop that fails masks its end sample and the
    rest of its half line; a row whose seed-column sample is masked is
    masked whole.  The hops between the (z_from, z_to) pairs in refuse
    fail.  Returns (points, valid, residuals)."""
    lam = data.lam
    m0 = None
    if target == "h3" and system != "reduced":
        m0 = tuple(gauge_matrix(data, data.z0).ravel().tolist())
    zgrid = domain.grid()
    ny, nx = zgrid.shape
    valid, _ = _probe_validity(data, zgrid)
    psi_f = data.functions()[2]
    reach = _reach(domain)
    points = np.full((ny, nx, 4), np.nan)
    residuals = {"det_drift": np.full((ny, nx), np.nan)}
    if target == "h3":
        residuals["hyperboloid"] = np.full((ny, nx), np.nan)
    else:
        residuals["x0_abs"] = np.full((ny, nx), np.nan)
    shift = 0.0 if target == "h3" else 1.0

    def hop(z_from, z_to, y):
        if (complex(z_from), complex(z_to)) in refuse:
            raise StepUnderflow("refused")
        if not gauged:
            return propagate(data, z_from, z_to, y, tol=tol,
                             system="reduced")
        return _mul4(sweep_hop(data, z_from, z_to, _ID4, tol, reach), y)

    def emit(i, j, y):
        if gauged:
            p = psi_f(complex(zgrid[i, j]))
            y = (y[0], y[1], p * y[0] + y[2], p * y[1] + y[3])
        if m0 is not None:
            y = _mul4(y, m0)
        residuals["det_drift"][i, j] = abs(y[0] * y[3] - y[1] * y[2] - 1.0)
        x = _old_lorentz4(y, lam, shift)
        if target == "h3":
            residuals["hyperboloid"][i, j] = (x[1] * x[1] + x[2] * x[2]
                                              + x[3] * x[3] - x[0] * x[0]
                                              + 1.0 / (lam * lam))
        else:
            residuals["x0_abs"][i, j] = abs(x[0])
        points[i, j, :] = x

    vals = {}

    def walk(cells):
        # one half line from its first cell, whose value is in vals
        y = vals[cells[0]]
        cur_z = zgrid[cells[0]]
        for k, ij in enumerate(cells[1:], 1):
            if not valid[ij]:
                continue
            try:
                y = hop(cur_z, zgrid[ij], y)
            except _HOP_ERRORS:
                for rest in cells[k:]:
                    valid[rest] = False
                return
            vals[ij] = y
            cur_z = zgrid[ij]

    start = (1.0, 0.0, -psi_f(data.z0), 1.0) if gauged else _ID4
    c, near = _seed_column(zgrid, data.z0)
    for i in near:
        if not valid[i, c]:
            continue
        try:
            vals[i, c] = hop(data.z0, zgrid[i, c], start)
        except _HOP_ERRORS:
            valid[i, c] = False
            continue
        for half in _halves(ny, i):
            walk([(r, c) for r in half])
        break
    for i in range(ny):
        if not valid[i, c]:
            valid[i] = False
            continue
        for half in _halves(nx, c):
            walk([(i, j) for j in half])
    for (i, j), y in vals.items():
        emit(i, j, y)
    return points, valid, residuals


def per_row_quadrature_reference(data, domain, tol=1e-8, refuse=()):
    """e3-direct's former sampler, on the sweep's paths: one batch of
    quadratures for each hop from z0 into the seed column's probe-valid
    samples, nearest first, until one succeeds, the samples tried before
    it masked; then each half of the seed column from that sample, and
    each half of every row from its seed-column value, as one batch, the
    running sums a cumsum.  A hop that fails masks its end point and the
    rest of its half line.  The hops between the pairs in refuse fail.
    Returns (points, valid)."""
    fvals = _phi_vector_batch(data)

    def hops(starts, ends):
        parts, failed = adaptive_gl_batch(fvals, starts, ends, tol=tol)
        failed |= [(complex(a), complex(b)) in refuse
                   for a, b in zip(starts, ends)]
        return parts, failed

    zgrid = domain.grid()
    ny, nx = zgrid.shape
    valid, _ = _probe_validity(data, zgrid)
    sums = {}

    def run(cells):
        # one half line from its first cell, whose value is in sums
        cells = cells[:1] + [ij for ij in cells[1:] if valid[ij]]
        if len(cells) < 2:
            return
        zs = np.array([zgrid[ij] for ij in cells])
        parts, failed = hops(zs[:-1], zs[1:])
        bad = np.flatnonzero(failed)
        stop = bad[0] if bad.size else len(parts)
        acc = np.cumsum(np.vstack([sums[cells[0]], parts[:stop]]), axis=0)
        sums.update(zip(cells[1:stop + 1], acc[1:]))
        for ij in cells[stop + 1:]:
            valid[ij] = False

    c, near = _seed_column(zgrid, data.z0)
    for i in near:
        if not valid[i, c]:
            continue
        parts, failed = hops([data.z0], [zgrid[i, c]])
        if failed[0]:
            valid[i, c] = False
            continue
        sums[i, c] = np.cumsum(np.vstack([np.zeros(3, dtype=complex),
                                          parts]), axis=0)[1]
        for half in _halves(ny, i):
            run([(r, c) for r in half])
        break
    for i in range(ny):
        if not valid[i, c]:
            valid[i] = False
            continue
        for half in _halves(nx, c):
            run([(i, j) for j in half])
    points = np.full((ny, nx, 3), np.nan)
    for ij, acc in sums.items():
        points[ij] = acc.real
    return points, valid


def _psi_hop(data, a, b, y, tol):
    """The gauged hop a -> b from y through propagate of Psi: from G(a) y,
    then G(b)^{-1}."""
    psi_f = data.functions()[2]
    pa, pb = psi_f(complex(a)), psi_f(complex(b))
    w = propagate(data, a, b, (y[0], y[1], pa * y[0] + y[2],
                               pa * y[1] + y[3]), tol=tol, system="reduced")
    return w[0], w[1], w[2] - pb * w[0], w[3] - pb * w[1]


def _reach(domain):
    """The longest hops along each axis that pass no sample: 1.5 times the
    grid spacing."""
    return 1.5 * domain.dx, 1.5 * domain.dy


def psi_cut(data, a, b, tol):
    """Whether psi jumps on the hop a -> b (across a branch cut), judged
    over the scalar closures as the sweep judges it: the quadrature of
    psi' d by a first step's weights at _UNIT_NODES misses psi(b) -
    psi(a) by more than tol (1 + |psi(a)| + |psi(b)|), and adaptive
    Gauss-Kronrod at a tenth of that misses it too or fails."""
    _, _, psi_f, dpsi_f = data.functions()
    a, b = complex(a), complex(b)
    pa, pb = psi_f(a), psi_f(b)
    bound = tol * (1.0 + abs(pa) + abs(pb))
    try:
        q = sum(w * dpsi_f(a + t * (b - a))
                for w, t in zip(_UNIT_WEIGHTS.tolist(), _UNIT_NODES))
    except _HOP_ERRORS:
        q = complex("nan")
    if abs(pb - pa - q * (b - a)) <= bound:
        return False
    try:
        return not abs(pb - pa - adaptive_gl(dpsi_f, a, b,
                                             bound / 10)) <= bound
    except (QuadratureFailure,) + _HOP_ERRORS:
        return True


def psi_routed(data, a, b, tol, reach):
    """Whether the sweep takes the hop a -> b through propagate of Psi:
    where it is longer than reach along an axis (it passes a masked
    sample) or psi jumps on it."""
    d = complex(b) - complex(a)
    return (psi_cut(data, a, b, tol) or abs(d.real) > reach[0]
            or abs(d.imag) > reach[1])


def sweep_hop(data, a, b, y, tol, reach):
    """The hop a -> b from y as the sweep takes it, its batch aside: the
    gauged system through _integrate_unit (gauged_hop), or propagate of
    Psi (_psi_hop) where psi_routed says so."""
    if psi_routed(data, a, b, tol, reach):
        return _psi_hop(data, a, b, y, tol)
    return gauged_hop(data, a, b, y, tol)


def _refusing(refuse, calls=None):
    """Patch the sweep so that the hops between the (z_from, z_to) pairs in
    refuse fail, under every target.  Each hop call appends the list of
    its hops, as (z_from, z_to, ok) triples, to calls, when given."""
    sweep = solsurf.immersion._sweep_grid

    def refusing_sweep(hop, *args):
        def refusing_hop(za, zb):
            vals, ok = hop(za, zb)
            pairs = [(complex(a), complex(b)) for a, b in zip(za, zb)]
            ok = ok & ~np.array([p in refuse for p in pairs], dtype=bool)
            if calls is not None:
                calls.append([p + (bool(o),) for p, o in zip(pairs, ok)])
            return vals, ok

        return sweep(refusing_hop, *args)

    return mock.patch.object(solsurf.immersion, "_sweep_grid", refusing_sweep)


def _rel_dev(got, want, valid):
    """Largest |got - want| / max(1, |want|) over the valid samples."""
    scale = np.maximum(1.0, np.abs(want).max(axis=-1))
    return float(np.max(np.abs(got - want).max(axis=-1)[valid]
                        / scale[valid], initial=0.0))


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def _cbits(z):
    return _bits(np.stack([z.real, z.imag]))


def _array_coef(data):
    """The gauged coefficient over the array closures, as the sweep
    tabulates it: (a, d, t) -> the (k, 2, n) table of its two entries."""
    coef = lane_coef(data)
    return lambda a, d, t: table_fresh(coef, a, d, t)


def _one_step(data, a, b, y, tol):
    """Whether _integrate_unit crosses the gauged system's hop a -> b in
    one accepted step of h = 1 (six coefficient calls), and its result
    (None if it raised)."""
    coef = scalar_coef(data)
    a = complex(a)
    d = complex(b) - a
    calls = [0]

    def counted(t):
        calls[0] += 1
        return coef(a, d, t)

    try:
        y1 = _integrate_unit(counted, y, tol)
    except _HOP_ERRORS:
        return False, None
    return calls[0] == 6, y1


def _hop_result(data, a, b, y, tol):
    """_integrate_unit's result for the gauged system's hop a -> b from y,
    or None where it raises."""
    try:
        return gauged_hop(data, a, b, y, tol)
    except _HOP_ERRORS:
        return None


class TestAgainstPerHopLoop(unittest.TestCase):

    def compare(self, name, target, system, tol):
        data, domain = _data(name)
        got = sample_surface(data, domain, target, tol=tol, system=system)
        want_p, want_v, want_r = per_hop_reference(
            data, domain, target, tol=tol, system=system)
        label = "%s %s %s tol %g" % (name, target, system, tol)
        np.testing.assert_array_equal(got.valid, want_v, label)
        self.assertEqual(list(got.residuals), list(want_r), label)
        self.assertTrue(np.all(np.isnan(got.points) == np.isnan(want_p)), label)
        if name != "clean":
            return
        self.assertLessEqual(_rel_dev(got.points, want_p, want_v), CLEAN_REL,
                             label)
        # residuals relative to the squared point scale, which their
        # cancellation works at
        scale = np.max(np.abs(want_p), axis=2, where=want_v[..., None],
                       initial=1.0)
        for key, grid in want_r.items():
            dev = np.abs(got.residuals[key] - grid)[want_v]
            self.assertLessEqual(float(np.max(dev / scale[want_v] ** 2)),
                                 CLEAN_REL, label + " " + key)

    def test_all_cases(self):
        """The same mask as the per-hop loop for every case, target and
        tol, and on clean data the same points up to rounding."""
        for name in CASES:
            for target, system in TARGETS:
                for tol in _tols(name):
                    self.compare(name, target, system, tol)

    def test_error_against_a_tight_reference(self):
        """On the singular cases at tol 1e-8, the error against the former
        per-hop loop of Psi at tol 1e-12 stays within 5 times that loop's
        own."""
        for (name, target, system), before in PER_HOP_ERROR.items():
            data, domain = _data(name)
            want_p, want_v, _ = per_hop_reference(data, domain, target,
                                                  tol=1e-12, system=system,
                                                  gauged=False)
            got = sample_surface(data, domain, target, tol=1e-8,
                                 system=system)
            both = got.valid & want_v
            self.assertTrue(both.any())
            err = _rel_dev(got.points, want_p, both)
            self.assertLessEqual(err, 5.0 * before,
                                 "%s %s %s: %.3e" % (name, target, system, err))

    def test_e3_direct_equals_the_per_row_quadrature(self):
        for name in CASES:
            data, domain = _data(name)
            for tol in _tols(name):
                want_p, want_v = per_row_quadrature_reference(data, domain,
                                                              tol=tol)
                got = sample_surface(data, domain, "e3-direct", tol=tol)
                label = "%s tol %g" % (name, tol)
                np.testing.assert_array_equal(got.valid, want_v, label)
                np.testing.assert_array_equal(_bits(got.points),
                                              _bits(want_p), label)

    def compare_refused(self, domain, refuse):
        """The sweep with the hops in refuse failing, against both
        references, under every target: the same masks, e3-direct's points
        bit for bit and the ODE points within CLEAN_REL.  Returns, per
        (target, system), the list of hop calls (see _refusing) and the
        mask."""
        data, _ = _data("clean")
        runs = {}
        for target, system in TARGETS + (("e3-direct", None),):
            calls = []
            with _refusing(refuse, calls):
                got = sample_surface(data, domain, target, system=system)
            if target == "e3-direct":
                want_p, want_v = per_row_quadrature_reference(
                    data, domain, refuse=refuse)
                np.testing.assert_array_equal(_bits(got.points),
                                              _bits(want_p), target)
            else:
                want_p, want_v, _ = per_hop_reference(
                    data, domain, target, system=system, refuse=refuse)
                self.assertLessEqual(_rel_dev(got.points, want_p, want_v),
                                     CLEAN_REL, target)
            np.testing.assert_array_equal(got.valid, want_v, target)
            runs[target, system] = calls, want_v
        return runs

    def test_hop_after_a_failed_hop(self):
        """A refused hop masks the rest of its half line; a refused first
        hop from z0 is followed by one from z0 into the next nearest
        sample of the seed column.  On a grid with z0 = 0 in seed column
        8, between rows 7 and 8, the hops from z0 into (7, 8), from
        (11, 8) into (12, 8), from (5, 11) into (5, 12) and from (3, 4)
        into (3, 3) are refused: the hop from z0 into (8, 8) comes alone,
        row 7 is masked, and so are rows 12 .. 16, (5, 12 .. 16) and
        (3, 0 .. 3), under every target."""
        data, _ = _data("clean")
        domain = DomainRect(-0.3, 0.3, -0.28, 0.32, 17, 17)
        zgrid = domain.grid()

        def z(i, j):
            return complex(zgrid[i, j])

        refuse = {(data.z0, z(7, 8)), (z(11, 8), z(12, 8)),
                  (z(5, 11), z(5, 12)), (z(3, 4), z(3, 3))}
        want = np.ones((17, 17), dtype=bool)
        want[7] = want[12:] = False
        want[5, 12:] = want[3, :4] = False
        for key, (calls, valid) in self.compare_refused(domain,
                                                        refuse).items():
            np.testing.assert_array_equal(valid, want, str(key))
            self.assertIn([(data.z0, z(8, 8), True)], calls, key)

    def test_blocked_line_looks_ahead(self):
        """Only the seed column's first leg looks ahead, and no one-hop
        call follows the look-ahead: the column's hops from its first
        reached sample come from one planned call.  z0 = 0 is sample
        (0, 8) of the grid; the hops from z0 into (0 .. 2, 8), the three
        nearest, and from (5, 10) into (5, j >= 11) are refused.  The hops
        into (0, 8) and (1, 8) come alone, then the look-ahead into
        (2 .. 16, 8).  Rows 0 .. 2 and (5, 11 .. 16) are masked, and row 5
        makes no hop call after its planned one, under every target."""
        data, _ = _data("clean")
        domain = DomainRect(-0.3, 0.3, 0.0, 0.6, 17, 17)
        zgrid = domain.grid()
        row = [complex(z) for z in zgrid[5]]
        col = [complex(z) for z in zgrid[:, 8]]
        refuse = ({(row[10], z) for z in row[11:]}
                  | {(data.z0, z) for z in col[:3]})
        want = np.ones((17, 17), dtype=bool)
        want[:3] = want[5, 11:] = False
        for key, (calls, valid) in self.compare_refused(domain,
                                                        refuse).items():
            np.testing.assert_array_equal(valid, want, str(key))
            seed = [hops for hops in calls
                    if any(h[0] == data.z0 for h in hops)]
            self.assertEqual(len(seed), 3, key)
            self.assertEqual(seed[0], [(data.z0, col[0], False)], key)
            self.assertEqual(seed[1], [(data.z0, col[1], False)], key)
            self.assertEqual([h[:2] for h in seed[2]],
                             [(data.z0, z) for z in col[2:]], key)
            after = calls[calls.index(seed[2]) + 1:]
            self.assertEqual([hops for hops in after if len(hops) == 1],
                             [], key)
            row_calls = [hops for hops in calls
                         if any(h[1] in row[:8] + row[9:] for h in hops)]
            self.assertEqual(len(row_calls), 1, key)

    def test_no_hop_left(self):
        """Grids on which almost no hop succeeds.  The gauge undefined at
        z0 masks every h3 sample.  At tol 1e-17 a quadrature hop of
        positive length fails unless its rounding happens to meet the
        tolerance, which on this grid only (2, 2) -> (2, 1) does; the
        zero-length hop from z0 = 0, the grid's centre, keeps that
        sample, at the origin."""
        data = WeierstrassData(eta=parse("z"), psi=parse("z"), z0=0j, lam=0.8)
        domain = DomainRect(0.1, 0.6, 0.1, 0.6, 5, 5)
        patch = sample_surface(data, domain, "h3")
        self.assertFalse(patch.valid.any())
        self.assertTrue(np.isnan(patch.points).all())
        data, _ = _data("clean")
        domain = DomainRect(-0.6, 0.6, -0.6, 0.6, 5, 5)
        patch = sample_surface(data, domain, "e3-direct", tol=1e-17)
        self.assertTrue(patch.valid[2, 2])
        np.testing.assert_array_equal(patch.points[2, 2], np.zeros(3))
        np.testing.assert_array_equal(
            patch.valid, per_row_quadrature_reference(data, domain,
                                                      tol=1e-17)[1])

    def test_batches_do_not_change_the_surface(self):
        """A hop's value and whether it fails do not depend on its batch:
        with one, three or eight rows per batch the masks are equal, and
        the points within CROSS_REL of rounding.  On sqrt_cut the hop
        (5, 6) -> (5, 4) passes z = 0, where psi' and so the gauged
        system are singular and Psi's coefficient is not; on sqrt(z -
        0.1) the hop (5, 5) -> (5, 6) passes the branch point between two
        samples.  Every mask is the former per-hop loop's, which keeps
        row 5 past those points."""
        cases = [_data(name) for name in ("sqrt_cut", "sqrt_left",
                                          "log_left", "pole_on_sample")]
        cases.append((WeierstrassData(eta=parse("1"), psi=parse("sqrt(z-0.1)"),
                                      z0=0.9 + 0.9j, lam=0.8),
                      DomainRect(-1, 1, -1, 1, 11, 11)))
        for data, domain in cases:
            for target in ("h3", "e3-limit"):
                want = per_hop_reference(data, domain, target,
                                         gauged=False)[1]
                runs = []
                for rows in (1, 3, 8):
                    with mock.patch.object(solsurf.immersion, "_SWEEP_ROWS",
                                           rows):
                        runs.append(sample_surface(data, domain, target))
                label = "%s %s" % (data.psi, target)
                np.testing.assert_array_equal(runs[0].valid, want, label)
                for run in runs[1:]:
                    np.testing.assert_array_equal(run.valid, runs[0].valid,
                                                  label)
                    self.assertLessEqual(_rel_dev(run.points,
                                                  runs[0].points,
                                                  run.valid),
                                         CROSS_REL, label)

    def test_nan_and_overflow_do_not_warn(self):
        data, domain = _data("pole_on_sample")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sample_surface(data, domain, "h3", tol=1e-2)


# (eta, psi, z0, res): data whose poles block rows of a res x res grid on
# [-1, 1]^2 at lambda 0.8, and the valid counts under h3, e3-limit and
# e3-direct at each tol.  At 33^2 the three keep 1072, 1077 and 1055 at
# tol 1e-8.  The sweep that took a blocked row's later hops again reached
# 165 samples under h3 and e3-limit on the last case at tol 1e-2: there
# the hops (3, 5) -> (3, 8) and (9, 5) -> (9, 8) of rows swept from
# column 0 pass the poles at (3, 6) and (9, 6) and succeed, after the
# shorter hops into column 7 failed
POLE_CASES = {
    ("1.011/z", "z", 0.9 + 0.9j, 13): {1e-8: (162, 162, 162),
                                       1e-2: (168, 168, 162)},
    ("1/(z-0.3)", "z^2", -0.9 - 0.9j, 9): {1e-8: (78, 78, 78),
                                          1e-2: (81, 81, 78)},
    ("1/(z*z+0.25)", "z", 0.9 + 0.9j, 13): {1e-8: (155, 155, 155),
                                            1e-2: (155, 155, 155)},
}


class TestPoleData(unittest.TestCase):

    def test_blocked_rows_stop(self):
        """The pinned valid counts, the same mask under every target at
        tol 1e-8, and a half row whose hop fails takes no hop after it:
        all the row's hops lie in the call of its planned hops, and its
        samples from the failed hop's end outward are masked."""
        for (eta, psi, z0, res), counts in POLE_CASES.items():
            data = WeierstrassData(eta=parse(eta), psi=parse(psi), z0=z0,
                                   lam=0.8)
            domain = DomainRect(-1.0, 1.0, -1.0, 1.0, res, res)
            zgrid = domain.grid()
            c, _ = _seed_column(zgrid, z0)
            where = {complex(z): ij for ij, z in np.ndenumerate(zgrid)}
            blocked = 0
            masks = []
            for tol, want in counts.items():
                for target, n in zip(("h3", "e3-limit", "e3-direct"), want):
                    label = "%s %s %s tol %g" % (eta, psi, target, tol)
                    calls = []
                    with _refusing(set(), calls):
                        patch = sample_surface(data, domain, target, tol=tol)
                    self.assertEqual(int(patch.valid.sum()), n, label)
                    if tol == 1e-8:
                        masks.append(patch.valid)
                    # per row, the calls with a hop into it off the seed
                    # column, and its failed hops' end columns
                    row_calls, failed = {}, {}
                    for k, hops in enumerate(calls):
                        for _, b, ok in hops:
                            i, j = where[b]
                            if j == c:
                                continue
                            row_calls.setdefault(i, set()).add(k)
                            if not ok:
                                failed.setdefault(i, []).append(j)
                    for i, cols in failed.items():
                        self.assertEqual(len(row_calls[i]), 1, label)
                        for j in cols:
                            outward = (slice(j, None) if j > c
                                       else slice(0, j + 1))
                            self.assertFalse(patch.valid[i, outward].any(),
                                             label)
                    blocked += len(failed)
            self.assertGreater(blocked, 0, eta)
            for mask in masks[1:]:
                np.testing.assert_array_equal(mask, masks[0], eta)


class TestBatchedStep(unittest.TestCase):
    """_integrate_lanes and the coefficient tables against the scalar
    integrator and the scalar coefficient: on every hop between
    neighbouring probe-valid samples and, where the probe masks samples of
    a row, on every hop across them."""

    # as in the sampler, which steps under errstate(all="ignore")
    def setUp(self):
        errstate = np.errstate(all="ignore")
        errstate.__enter__()
        self.addCleanup(errstate.__exit__, None, None, None)

    def hops(self, name):
        """(data, a, b, y, n): the n hops between horizontal probe-valid
        neighbours, then on the pole data the hops across the pole: from
        the last probe-valid sample before a row's first masked one to
        each later probe-valid sample of that row, and the hop from z0 to
        the corner, whose path passes the pole in both pole cases; and
        det-1 start values (any matrices serve)."""
        data, domain = _data(name)
        zgrid = domain.grid()
        valid, _ = _probe_validity(data, zgrid)
        ii, jj = np.nonzero(valid[:, :-1] & valid[:, 1:])
        a, b = list(zgrid[ii, jj]), list(zgrid[ii, jj + 1])
        if name.startswith("pole"):
            for i in np.flatnonzero(~valid.all(axis=1)):
                j = np.flatnonzero(~valid[i])[0]
                if j > 0 and valid[i, j - 1]:
                    later = j + np.flatnonzero(valid[i, j:])
                    a += [zgrid[i, j - 1]] * len(later)
                    b += list(zgrid[i, later])
            a.append(data.z0)
            b.append(zgrid[0, 0])
        a, b = np.array(a), np.array(b)
        rng = np.random.default_rng(3)
        y = rng.normal(size=(4, len(a))) + 1j * rng.normal(size=(4, len(a)))
        y[3] = (1.0 + y[1] * y[2]) / y[0]
        return data, a, b, y, len(ii)

    def alone(self, data, a, d, y, tol):
        """One hop through _integrate_lanes as a batch of two copies of
        itself, so that it is never the last lane left: (y, settled)."""
        got, settled, _ = _integrate_lanes(lane_coef(data), np.array([a, a]),
                                           np.array([d, d]),
                                           np.stack([y, y], axis=1), tol)
        return got[:, 0], bool(settled[0])

    def check(self, name, tol):
        data, a, b, y, n = self.hops(name)
        d = b - a
        got, settled, failed = _integrate_lanes(lane_coef(data), a, d, y,
                                                tol)
        # at most one lane is handed back, to the scalar integrator
        self.assertLessEqual(int(np.sum(~(settled | failed))), 1, name)
        counts = np.zeros(2, dtype=int)
        for k in np.flatnonzero(settled | failed):
            label = "%s tol %g hop %r -> %r" % (name, tol, a[k], b[k])
            want = _hop_result(data, a[k], b[k], tuple(y[:, k].tolist()), tol)
            self.assertEqual(bool(settled[k]), want is not None, label)
            counts[int(failed[k])] += 1
            if failed[k]:
                continue
            rel = STEP_REL if k < n else CROSS_REL
            self.assertLessEqual(
                max(abs(g - w) for g, w in zip(got[:, k].tolist(), want)),
                rel * max(map(abs, want)), label)
            one, one_ok = self.alone(data, a[k], d[k], y[:, k], tol)
            self.assertTrue(one_ok, label)
            np.testing.assert_array_equal(_cbits(one), _cbits(got[:, k]),
                                          label)
        return counts

    def test_whole_hops_as_the_scalar_integrator(self):
        """Settled and failed lanes exactly where _integrate_unit returns
        and raises, settled values within STEP_REL of its result, and the
        same bits as the hop alone."""
        counts = np.zeros(2, dtype=int)
        for name in CASES:
            for tol in TOLS:
                counts += self.check(name, tol)
        # both outcomes occur
        self.assertTrue(np.all(counts > 0), counts)

    def test_accepts_exactly_the_one_step_hops(self):
        """The first iteration ends the call, after its one coefficient
        call, exactly where _integrate_unit crosses the hop in one step."""

        class SecondCall(Exception):
            pass

        counts = np.zeros(2, dtype=int)
        for name in CASES:
            data, domain = _data(name)
            zgrid = domain.grid()
            valid, _ = _probe_validity(data, zgrid)
            ii, jj = np.nonzero(valid[:, :-1] & valid[:, 1:])
            a, b = zgrid[ii, jj], zgrid[ii, jj + 1]
            eye = np.zeros((4, 2), dtype=complex)
            eye[[0, 3]] = 1.0
            coef = lane_coef(data)
            for tol in TOLS:
                for k in range(len(a)):
                    calls = []

                    def first_only(*args):
                        if calls:
                            raise SecondCall
                        calls.append(args)
                        return coef(*args)

                    # two copies of the hop, so that it is not the last
                    # lane left after the first iteration
                    try:
                        _integrate_lanes(first_only, a[[k, k]],
                                         (b - a)[[k, k]], eye, tol)
                        ended = True
                    except SecondCall:
                        ended = False
                    one, _ = _one_step(data, a[k], b[k], _ID4, tol)
                    self.assertEqual(ended, one, "%s tol %g hop %r -> %r"
                                     % (name, tol, a[k], b[k]))
                    counts[int(one)] += 1
        # both outcomes occur
        self.assertTrue(np.all(counts > 0), counts)

    def test_coefficient_tables_match_scalar_closures(self):
        for name in CASES:
            data, domain = _data(name)
            zgrid = domain.grid()
            a, b = zgrid[:, :-1].ravel(), zgrid[:, 1:].ravel()
            scalar = scalar_coef(data)
            coef = _array_coef(data)
            for t in _UNIT_NODES:
                table = coef(a, b - a, t)
                for k in range(len(a)):
                    try:
                        want = scalar(complex(a[k]),
                                      complex(b[k]) - complex(a[k]), t)
                    except _HOP_ERRORS:
                        # NaN where the scalar form raises
                        self.assertFalse(np.all(np.isfinite(table[:, k])))
                        continue
                    got = table[:, k].tolist()
                    label = "%s t=%r at %r" % (name, t, a[k])
                    self.assertEqual(want[::3], (0j, 0j), label)
                    for g, w in zip(got, want[1:3]):
                        self.assertLessEqual(abs(g - w), TABLE_REL * abs(w),
                                             label)


class TestPropagateCalls(unittest.TestCase):
    """The scalar propagate runs for a hop left alone in its batch, the one
    that _integrate_lanes hands back because it is still running when
    every other hop of the batch has ended, on the gauged system; and for
    the hops that the sweep takes on Psi (psi_routed)."""

    def sample(self, data, domain, target):
        """Sample the grid; returns the system of every propagate call and
        the (a, d, y, tol) of every _integrate_lanes call."""
        batches = []

        def recording(coef, a, d, y, tol, work):
            batches.append((a.copy(), d.copy(), y.copy(), tol))
            return _integrate_lanes(coef, a, d, y, tol, work)

        with mock.patch.object(solsurf.immersion, "propagate",
                               wraps=propagate) as counting, \
                mock.patch.object(solsurf.immersion, "_integrate_lanes",
                                  recording):
            sample_surface(data, domain, target)
        return [c.kwargs["system"] for c in counting.call_args_list], batches

    def test_clean_data_hops_in_batches(self):
        # hops short enough for one step at tol 1e-8, the first a
        # zero-length one from z0 into the grid's centre: none is handed
        # back
        data, _ = _data("clean")
        domain = DomainRect(-0.3, 0.3, -0.3, 0.3, 17, 17)
        for target in ("h3", "e3-limit"):
            calls, batches = self.sample(data, domain, target)
            self.assertEqual(self.expected_calls(data, domain, batches),
                             [], target)
            self.assertEqual(calls, [], target)

    def test_pole_data_fallback_hops(self):
        # both targets sweep the same system, so they hop alike
        for name in ("pole_on_sample", "pole_off_sample", "sqrt_cut",
                     "log_left"):
            data, domain = _data(name)
            for target in ("h3", "e3-limit"):
                calls, batches = self.sample(data, domain, target)
                expected = self.expected_calls(data, domain, batches)
                self.assertIn("gauged" if name.startswith("pole")
                              else "reduced", expected, name)
                self.assertEqual(sorted(calls), sorted(expected),
                                 "%s %s" % (name, target))

    def expected_calls(self, data, domain, batches):
        """The systems of the calls: 'gauged' for each batch in which one
        hop runs more iterations than every other hop of the batch, and
        more than the first, unless the sweep takes that hop on Psi; the
        integrator hands it back.  'reduced' for each hop that the sweep
        takes on Psi.  A hop's iterations do not depend on its batch; each
        is counted on a batch of two copies of the hop, which end
        together, at the batch's tol (the mend's batch steps at tol /
        _KAPPA_MEND).  Steps as the sampler does, under
        np.errstate(all="ignore"): a zero-length hop's error estimate is
        0."""
        coef = lane_coef(data)
        reach = _reach(domain)
        iterations = {}
        calls = []
        for a, d, y, tol in batches:
            counts = []
            for hop in zip(a.tolist(), d.tolist(), map(tuple, y.T.tolist()),
                           [tol] * a.size):
                if hop not in iterations:
                    n = []

                    def counted(*args):
                        n.append(1)
                        return coef(*args)

                    with np.errstate(all="ignore"):
                        _integrate_lanes(counted, np.array(hop[:1] * 2),
                                         np.array(hop[1:2] * 2),
                                         np.array([hop[2]] * 2).T, tol)
                    iterations[hop] = len(n)
                counts.append(iterations[hop])
            last = max(range(a.size), key=counts.__getitem__)
            ranked = sorted(counts)
            handed = ranked[-1] > max([1] + ranked[-2:-1])
            for k, (za, dk) in enumerate(zip(a.tolist(), d.tolist())):
                if psi_routed(data, za, za + dk, tol, reach):
                    calls.append("reduced")
                elif handed and k == last:
                    calls.append("gauged")
        return calls


class TestMend(unittest.TestCase):
    """The ODE sweep takes the hops whose transfer matrix is
    ill-conditioned again from the wavefunction at their start: all of a
    line sweep's in one call, from the values the transfer matrices gave,
    each correction then entering its half line as a right factor."""

    def sequential(self, data, tol, reach):
        """A patch of _sweep_lines that takes the same hops, then advances
        the halves one sample at a time, each marked hop at tol a scalar
        hop from the value its line has reached, as the sweep takes it
        (sweep_hop)."""
        real = solsurf.immersion._sweep_lines

        def lines(hop, combine, zs, ok, vals, k, lines_per_batch, mend=None):
            # the real sweep with a combine that keeps the hop values
            real(hop, lambda t, y: t, zs, ok, vals, k, lines_per_batch)
            for half in (range(k + 1, ok.shape[1]), range(k - 1, -1, -1)):
                last = np.full(len(zs), k)
                for j in half:
                    for l in np.flatnonzero(ok[:, j]):
                        t, y = vals[:, l, j, None], vals[:, l, last[l], None]
                        if mend is not None and mend[0](t)[0]:
                            vals[:, l, j] = sweep_hop(
                                data, zs[l, last[l]], zs[l, j], y[:, 0], tol,
                                reach)
                        else:
                            vals[:, l, j] = combine(t, y)[:, 0]
                        last[l] = j

        return mock.patch.object(solsurf.immersion, "_sweep_lines", lines)

    def test_equals_the_sequential_mend(self):
        """The one-call mend equals taking each marked hop from its line's
        corrected value in turn up to terms of second order in the
        correction, and the lane integrator's rounding: within 1e-12
        relative on the pole cases, whose hops it mends."""
        for name in ("pole_on_sample", "pole_off_sample"):
            data, domain = _data(name)
            for target, system in TARGETS:
                label = "%s %s %s" % (name, target, system)
                got = sample_surface(data, domain, target, system=system)
                with self.sequential(data, 1e-8 / _KAPPA_MEND,
                                     _reach(domain)):
                    want = sample_surface(data, domain, target, system=system)
                np.testing.assert_array_equal(got.valid, want.valid, label)
                self.assertLessEqual(
                    _rel_dev(got.points, want.points, got.valid), 1e-12,
                    label)

    def test_one_call_per_line_sweep(self):
        """The hops from a start other than the identity: the mend's, at
        most one call per line sweep, which the pole cases need."""
        for name in ("pole_on_sample", "pole_off_sample"):
            data, domain = _data(name)
            starts = []

            def recording(coef, a, d, y, tol, work):
                eye = np.zeros_like(y)
                eye[[0, 3]] = 1.0
                starts.append(not np.array_equal(y, eye))
                return _integrate_lanes(coef, a, d, y, tol, work)

            with mock.patch.object(solsurf.immersion, "_integrate_lanes",
                                   recording):
                sample_surface(data, domain, "h3")
            self.assertIn(sum(starts), (1, 2), name)


class TestLorentzForms(unittest.TestCase):

    def test_array_form_equals_tuple_form(self):
        rng = np.random.default_rng(7)
        y = rng.normal(size=(4, 500)) + 1j * rng.normal(size=(4, 500))
        y[:, :4] = [[0j, complex(-0.0, 0.0), 1.0, complex(0.0, -0.0)]] * 4
        for shift in (0.0, 1.0):
            got = np.stack(_lorentz4(y, 0.7, shift))
            for k in range(y.shape[1]):
                col = tuple(y[:, k].tolist())
                want = _lorentz4(col, 0.7, shift)
                self.assertEqual(_bits(got[:, k]).tolist(), _bits(want).tolist())
                # and the former complex-product formula
                self.assertEqual(_bits(want).tolist(),
                                 _bits(_old_lorentz4(col, 0.7, shift)).tolist())


class TestOnePassTables(unittest.TestCase):
    """The sampler tabulates a block's hops at all six nodes of their first
    step in one call of the array coefficient, over a (6, 1) node axis,
    and steps on that (6, 4, n) table."""

    def setUp(self):
        errstate = np.errstate(all="ignore")
        errstate.__enter__()
        self.addCleanup(errstate.__exit__, None, None, None)

    def hops(self, name):
        """(data, a, d) of every hop between horizontal neighbours of the
        grid; the erf data's grid reaches past |z| = 8, where its erf
        series is not trusted and the array closure gives NaN."""
        if name == "erf":
            data = erf_example_data(2, lam=0.7)
            domain = DomainRect(-9.0, 9.0, -1.0, 1.0, 13, 5)
        else:
            data, domain = _data(name)
        zgrid = domain.grid()
        a = zgrid[:, :-1].ravel()
        return data, a, zgrid[:, 1:].ravel() - a

    def test_one_pass_equals_per_node_tables(self):
        nodes = np.array(_UNIT_NODES)[:, None]
        nan_lanes = 0
        for name in ("clean", "pole_on_sample", "pole_off_sample", "erf"):
            data, a, d = self.hops(name)
            coef = _array_coef(data)
            table = coef(a, d, nodes)
            self.assertEqual(table.shape, (6, 2, len(a)), name)
            per_node = np.stack([coef(a, d, t) for t in _UNIT_NODES])
            np.testing.assert_array_equal(_bits(table.view(float)),
                                          _bits(per_node.view(float)), name)
            nan_lanes += int(np.isnan(table).any(axis=(0, 1)).sum())
        # the pole and erf data put NaN lanes into the comparison
        self.assertGreater(nan_lanes, 0)

    def test_one_coefficient_call_per_block(self):
        """One first-step call for the hop from z0, one for the rest of the
        seed column, and one per block of _SWEEP_ROWS rows, on a grid
        whose hops the gauged system crosses in one step each.  On the
        clean case's coarser grid some take a few steps (the reduced
        system's crossed it in one step each), and each later iteration
        makes one call at the five new stage times of the lanes still
        running: the sequence is pinned as measured."""
        data, coarse = _data("clean")
        fine = DomainRect(-0.3, 0.3, -0.3, 0.3, 17, 17)
        blocks = -(-fine.ny // _SWEEP_ROWS)
        pinned = ((fine, [(6, 1)] * (2 + blocks)),
                  (coarse, [(6, 1)] * 3 + [(5, 9)] * 2 + [(6, 1)]
                   + [(5, 5)] * 2 + [(6, 1)] + [(5, 4)] * 2))
        for domain, want in pinned:
            for target in ("h3", "e3-limit"):
                calls = []

                def counting(*args, _real=_gauged_coef):
                    coef = _real(*args)

                    def counted(a, d, t, out):
                        calls.append(np.shape(t))
                        return coef(a, d, t, out)

                    return counted

                with mock.patch.object(solsurf.immersion, "_gauged_coef",
                                       counting):
                    sample_surface(data, domain, target)
                self.assertEqual(calls, want, "%s %r" % (target, domain))


def gather_combine(combine, ok, vals, k):
    """The combine pass of _sweep_lines with every column's start
    gathered line by line, the loop its whole-column combine shortcuts."""
    for half in (range(k + 1, ok.shape[1]), range(k - 1, -1, -1)):
        last = np.full(len(ok), k)
        for j in half:
            lanes = np.flatnonzero(ok[:, j])
            vals[:, lanes, j] = combine(vals[:, lanes, j],
                                        vals[:, lanes, last[lanes]])
            last[lanes] = j


class TestWholeColumnCombine(unittest.TestCase):
    """While every line of a half is ok, _sweep_lines combines whole
    columns as slices; its values are byte-equal to the gathered ones."""

    def sweep(self, ok, combine, gathered):
        n, m, k = ok.shape + (5,)
        zs = 0.1 * (np.arange(m)[None, :] + 1j * np.arange(n)[:, None])
        vals = np.full((4, n, m), complex(np.nan, np.nan))
        rng = np.random.default_rng(1)
        vals[:, :, k] = rng.normal(size=(4, n)) + 1j * rng.normal(size=(4, n))

        def hop(za, zb):
            d = zb - za
            return np.stack((1.0 + d * za, d + zb, 0.5 * d * zb,
                             1.0 - d * za)), np.ones(za.size, dtype=bool)

        ok = ok.copy()
        if gathered:
            _sweep_lines(hop, lambda t, y: t, zs, ok, vals, k, 2)
            gather_combine(combine, ok, vals, k)
        else:
            _sweep_lines(hop, combine, zs, ok, vals, k, 2)
        return ok, vals

    def check(self, ok, label):
        for combine in (_mul4_array, np.add):
            got_ok, got = self.sweep(ok, combine, False)
            want_ok, want = self.sweep(ok, combine, True)
            np.testing.assert_array_equal(got_ok, want_ok, label)
            self.assertEqual(got.tobytes(), want.tobytes(),
                             "%s %s" % (label, combine.__name__))

    def test_dense_half_meets_a_masked_sample(self):
        """Each half dense for a few columns, then a masked sample in the
        middle of a line: line 2 at column 9, line 4 at column 2."""
        ok = np.ones((6, 14), dtype=bool)
        ok[2, 9] = ok[4, 2] = False
        self.check(ok, "dense, then masked")

    def test_masked_seed_column(self):
        """A sample of the seed column masked, its line with it (as
        _sweep_grid masks it): no half starts dense."""
        ok = np.ones((6, 14), dtype=bool)
        ok[3] = False
        ok[1, 11] = False
        self.check(ok, "masked seed column")


class TestImmersionPass(unittest.TestCase):
    """The ODE sampler integrates the whole grid first and then applies the
    immersion formula in one pass per block of _SWEEP_ROWS rows."""

    def test_masked_samples_hold_plain_nan(self):
        # the formula never runs on a masked sample, whose NaN entries it
        # would turn into -NaN (X2 = -p_im / lambda)
        nan_bits = _bits(np.nan)
        data, domain = _data("pole_on_sample")
        for target, record in (("h3", "hyperboloid"), ("e3-limit", "x0_abs")):
            patch = sample_surface(data, domain, target)
            masked = ~patch.valid
            self.assertTrue(masked.any(), target)
            for label, grid in (("points", patch.points[masked]),
                                ("det_drift", patch.residuals["det_drift"][masked]),
                                (record, patch.residuals[record][masked])):
                self.assertTrue(np.all(_bits(grid) == nan_bits),
                                "%s %s" % (target, label))

    def test_one_immersion_call_per_block_of_rows(self):
        data, domain = _data("clean")
        self.assertEqual(domain.ny, 17)
        with mock.patch.object(solsurf.immersion, "_lorentz4",
                               wraps=_lorentz4) as counting:
            patch = sample_surface(data, domain, "h3")
        self.assertTrue(patch.valid.all())
        self.assertEqual(counting.call_count, -(-domain.ny // _SWEEP_ROWS))


if __name__ == "__main__":
    unittest.main()
