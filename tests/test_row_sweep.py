"""The grid sweep against the per-sample loops it replaced, which this
file keeps as the reference implementations: per_hop_reference for the
ODE targets, one scalar propagate per sample, and
per_row_quadrature_reference for e3-direct.  The ODE targets integrate
the reduced system only; default h3 moves it by the gauge at z0.  The
sweep multiplies each hop's transfer matrix from the identity into the
wavefunction at the hop's start, so its ODE points are not bitwise those
of hopping sample by sample; e3-direct's are."""

import unittest
import warnings
from functools import partial
from unittest import mock

import numpy as np

import solsurf.immersion
from solsurf._quad import adaptive_gl_batch
from solsurf.expr import parse
from solsurf.geom import EVAL_ERRORS, DomainError, WeierstrassData
from solsurf.immersion import (DomainRect, _lorentz4, _phi_vector_batch,
                               _probe_validity, sample_surface)
from solsurf.lsp import (StepUnderflow, _ID4, _UNIT_NODES, _integrate_unit,
                         _integrate_lanes, _mul4, _reduced_coef,
                         gauge_matrix, propagate)
from solsurf.immersion import _SWEEP_ROWS
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

# the per-hop loop's largest error at tol 1e-8 against itself at tol 1e-12,
# relative to max(1, |x|), on the singular cases; the sweep may reach 5x
# these.  It measures up to 1.2x on pole_on_sample, 3.1-3.9x on
# pole_off_sample and 1.0x on the cuts
PER_HOP_ERROR = {
    ("pole_on_sample", "h3", None): 1.230e-08,
    ("pole_on_sample", "e3-limit", None): 1.611e-08,
    ("pole_on_sample", "h3", "reduced"): 1.034e-08,
    ("pole_off_sample", "h3", None): 2.787e-08,
    ("pole_off_sample", "e3-limit", None): 2.398e-08,
    ("pole_off_sample", "h3", "reduced"): 1.877e-08,
    ("sqrt_cut", "h3", None): 8.835e-07,
    ("sqrt_cut", "e3-limit", None): 1.182e-06,
    ("sqrt_cut", "h3", "reduced"): 8.835e-07,
    ("log_cut", "h3", None): 1.990e-06,
    ("log_cut", "e3-limit", None): 2.916e-06,
    ("log_cut", "h3", "reduced"): 2.013e-06,
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


def per_hop_reference(data, domain, target, tol=1e-8, system=None,
                      refuse=()):
    """The sampler's former loop for the ODE targets: one scalar propagate
    of the reduced system per sample along the seed column and then along
    each row, each from the wavefunction at the last good sample; default
    h3 emits the wavefunction times the gauge at z0.  A hop that fails
    masks its end sample and the rest of its line, except on the seed
    column's first leg from z0, whose next hop starts at z0 again.  The
    hops between the (z_from, z_to) pairs in refuse fail.  Returns
    (points, valid, residuals)."""
    lam = data.lam
    m0 = None
    if target == "h3" and system != "reduced":
        m0 = tuple(gauge_matrix(data, data.z0).ravel().tolist())
    zgrid = domain.grid()
    ny, nx = zgrid.shape
    valid = _probe_validity(data, zgrid)
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
        return propagate(data, z_from, z_to, y, tol=tol, system="reduced")

    def emit(i, j, y):
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

    col_vals = [None] * ny
    cur = _ID4
    cur_z = data.z0
    for i in range(ny):
        if not valid[i, 0]:
            continue
        z = zgrid[i, 0]
        try:
            cur = hop(cur_z, z, cur)
        except _HOP_ERRORS:
            if any(y is not None for y in col_vals):
                valid[i:, 0] = False
                break
            valid[i, 0] = False
            continue
        col_vals[i] = cur
        cur_z = z

    for i in range(ny):
        y = col_vals[i]
        if y is None:
            valid[i, 1:] = False
            continue
        emit(i, 0, y)
        cur_z = zgrid[i, 0]
        for j in range(1, nx):
            if not valid[i, j]:
                continue
            z = zgrid[i, j]
            try:
                y = hop(cur_z, z, y)
            except _HOP_ERRORS:
                valid[i, j:] = False
                break
            emit(i, j, y)
            cur_z = z
    return points, valid, residuals


def per_row_quadrature_reference(data, domain, tol=1e-8, refuse=()):
    """e3-direct's former sampler: the seed column from z0 as one batch of
    quadratures, then each row as one batch from its column-0 value, the
    running sums a cumsum.  A hop that fails masks its end point and the
    rest of its line, except on the seed column's first leg from z0, where
    the hop after it is planned again from z0, in a batch of its own.  The
    hops between the pairs in refuse fail.  Returns (points, valid)."""
    fvals = _phi_vector_batch(data)

    def hops(starts, ends):
        parts, failed = adaptive_gl_batch(fvals, starts, ends, tol=tol)
        failed |= [(complex(a), complex(b)) in refuse
                   for a, b in zip(starts, ends)]
        return parts, failed

    def run(z_start, acc, zs, straight=True):
        m = len(zs)
        vals = np.full((m, 3), complex(np.nan, np.nan))
        ok = np.zeros(m, dtype=bool)
        if m == 0:
            return vals, ok
        parts, failed = hops(np.concatenate([[z_start], zs[:-1]]), zs)
        k = 0
        while k < m:
            bad = np.flatnonzero(failed[k:])
            stop = k + bad[0] if bad.size else m
            if stop > k:
                vals[k:stop] = np.cumsum(np.vstack([acc, parts[k:stop]]),
                                         axis=0)[1:]
                ok[k:stop] = True
                acc = vals[stop - 1]
                z_start = zs[stop - 1]
                straight = True
            if straight:
                break
            k = stop + 1
            if k < m:
                parts[k:k + 1], failed[k:k + 1] = hops([z_start], zs[k:k + 1])
        return vals, ok

    zgrid = domain.grid()
    ny, nx = zgrid.shape
    valid = _probe_validity(data, zgrid)
    points = np.full((ny, nx, 3), np.nan)
    rows = np.flatnonzero(valid[:, 0])
    col, ok = run(data.z0, np.zeros(3, dtype=complex), zgrid[rows, 0],
                  straight=False)
    valid[rows[~ok], 0] = False
    valid[~valid[:, 0], 1:] = False
    for i, acc in zip(rows[ok], col[ok]):
        points[i, 0] = acc.real
        cols = 1 + np.flatnonzero(valid[i, 1:])
        vals, ok_row = run(zgrid[i, 0], acc, zgrid[i, cols])
        points[i, cols[ok_row]] = vals[ok_row].real
        valid[i, cols[~ok_row]] = False
    return points, valid


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


def _scalar_coef(data):
    """The reduced coefficient over the scalar closures, as a scalar hop
    takes it: (a, d, t) -> the 4-tuple of entries."""
    eta_f, _, psi_f, _ = data.functions()
    return _reduced_coef(data.lam, eta_f, psi_f)


def _array_coef(data):
    """The reduced coefficient over the array closures, as the sweep
    tabulates it: (a, d, t) -> the entries stacked on axis -2."""
    eta_a, _, psi_a, _ = data.array_functions()
    coef = _reduced_coef(data.lam, eta_a, psi_a)
    return lambda a, d, t: np.stack(coef(a, d, t), axis=-2)


def _one_step(data, a, b, y, tol):
    """Whether _integrate_unit crosses the reduced system's hop a -> b in
    one accepted step of h = 1 (six coefficient calls), and its result
    (None if it raised)."""
    coef = _scalar_coef(data)
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


def _lane_coef(data):
    """The reduced coefficient over the array closures, as the sweep hands
    it to _integrate_lanes."""
    eta_a, _, psi_a, _ = data.array_functions()
    return _reduced_coef(data.lam, eta_a, psi_a)


def _hop_result(data, a, b, y, tol):
    """_integrate_unit's result for the reduced system's hop a -> b from y,
    or None where it raises."""
    coef = _scalar_coef(data)
    a = complex(a)
    try:
        return _integrate_unit(partial(coef, a, complex(b) - a), y, tol)
    except _HOP_ERRORS:
        return None


class TestAgainstPerHopLoop(unittest.TestCase):

    def compare(self, name, target, system, tol):
        data, domain = _data(name)
        want_p, want_v, want_r = per_hop_reference(data, domain, target,
                                                   tol=tol, system=system)
        got = sample_surface(data, domain, target, tol=tol, system=system)
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
        """On the singular cases at tol 1e-8, the error against the per-hop
        loop at tol 1e-12 stays within 5x the per-hop loop's own."""
        for (name, target, system), before in PER_HOP_ERROR.items():
            data, domain = _data(name)
            want_p, want_v, _ = per_hop_reference(data, domain, target,
                                                  tol=1e-12, system=system)
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
        """A refused hop on a row, or on the seed column past its first
        grid sample, masks the rest of that line; a refused first leg
        from z0 is taken again from z0.  The hops into (5, 8), into (6, 0)
        and from z0 into (0, 0) are refused: row 5 keeps (5, 0 .. 7),
        column 0 keeps rows 1 .. 5, whose first hop starts at z0, under
        every target."""
        data, _ = _data("clean")
        domain = DomainRect(-0.3, 0.3, -0.3, 0.3, 17, 17)
        zgrid = domain.grid()
        col = [complex(z) for z in zgrid[:, 0]]
        refuse = {(complex(zgrid[5, 7]), complex(zgrid[5, 8])),
                  (col[5], col[6]), (data.z0, col[0])}
        for key, (calls, valid) in self.compare_refused(domain,
                                                        refuse).items():
            self.assertTrue(valid[1:5].all() and valid[5, :8].all(), key)
            self.assertFalse(valid[0].any() or valid[5, 8:].any()
                             or valid[6:].any(), key)
            self.assertIn([(data.z0, col[1], True)], calls, key)

    def test_blocked_line_looks_ahead(self):
        """Only the seed column's first leg looks ahead: after its hop
        fails again from z0, all its remaining hops from z0 are taken in
        one call.  A row makes no hop call after its planned batch.  The
        hops from z0 into (0 .. 2, 0) and from (5, 7) into (5, j >= 8) are
        refused, as a pole between would make them fail: after the
        planned hop into (0, 0) fails, the seed column makes two more
        hop calls, the hop into (1, 0) again from z0 and then the hops
        into (2 .. 16, 0); row 5 keeps (5, 0 .. 7), under every target."""
        data, domain = _data("clean")
        zgrid = domain.grid()
        row = [complex(z) for z in zgrid[5]]
        col = [complex(z) for z in zgrid[:, 0]]
        refuse = ({(row[7], z) for z in row[8:]}
                  | {(data.z0, z) for z in col[:3]})
        for key, (calls, valid) in self.compare_refused(domain,
                                                        refuse).items():
            self.assertFalse(valid[:3].any() or valid[5, 8:].any(), key)
            self.assertTrue(valid[3:5].all() and valid[5, :8].all()
                            and valid[6:].all(), key)
            # the hops of row 5, and of the seed column, in each call that
            # has any, after the call of the line's planned hops
            row_hops = [[h[:2] for h in hops if h[1] in row[1:]]
                        for hops in calls]
            self.assertEqual([hops for hops in row_hops if hops][1:], [],
                             key)
            seed_hops = [[h[:2] for h in hops if h[1] in col]
                         for hops in calls]
            self.assertEqual([hops for hops in seed_hops if hops][1:3],
                             [[(data.z0, col[1])],
                              [(data.z0, z) for z in col[2:]]], key)

    def test_no_hop_left(self):
        """Grids on which no row gets a hop: the gauge undefined at z0
        masks every h3 sample, and at tol 1e-17 every quadrature hop
        fails."""
        data = WeierstrassData(eta=parse("z"), psi=parse("z"), z0=0j, lam=0.8)
        domain = DomainRect(0.1, 0.6, 0.1, 0.6, 5, 5)
        patch = sample_surface(data, domain, "h3")
        self.assertFalse(patch.valid.any())
        self.assertTrue(np.isnan(patch.points).all())
        data, _ = _data("clean")
        domain = DomainRect(-0.6, 0.6, -0.6, 0.6, 5, 5)
        patch = sample_surface(data, domain, "e3-direct", tol=1e-17)
        self.assertFalse(patch.valid.any())
        np.testing.assert_array_equal(
            patch.valid, per_row_quadrature_reference(data, domain,
                                                      tol=1e-17)[1])

    def test_nan_and_overflow_do_not_warn(self):
        data, domain = _data("pole_on_sample")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sample_surface(data, domain, "h3", tol=1e-2)


# (eta, psi, z0, res): data whose poles block rows of a res x res grid on
# [-1, 1]^2 at lambda 0.8, and the valid counts under h3, e3-limit and
# e3-direct at each tol.  At 33^2 the three keep 1039, 1077 and 1055 at
# tol 1e-8.  The sweep that took a blocked row's later hops again reached
# 165 samples under h3 and e3-limit on the last case at tol 1e-2: there
# the hops (3, 5) -> (3, 8) and (9, 5) -> (9, 8) pass the poles at (3, 6)
# and (9, 6) and succeed, after the shorter hops into column 7 failed
POLE_CASES = {
    ("1.011/z", "z", 0.9 + 0.9j, 13): {1e-8: (149, 149, 149),
                                       1e-2: (168, 168, 149)},
    ("1/(z-0.3)", "z^2", -0.9 - 0.9j, 9): {1e-8: (78, 78, 78),
                                          1e-2: (81, 81, 78)},
    ("1/(z*z+0.25)", "z", 0.9 + 0.9j, 13): {1e-8: (155, 155, 155),
                                            1e-2: (155, 155, 155)},
}


class TestPoleData(unittest.TestCase):

    def test_blocked_rows_stop(self):
        """The pinned valid counts, the same mask under every target at
        tol 1e-8, and a row whose hop fails takes no hop after it: all its
        hops lie in the call of its planned hops, and its samples from the
        failed hop's end on are masked."""
        for (eta, psi, z0, res), counts in POLE_CASES.items():
            data = WeierstrassData(eta=parse(eta), psi=parse(psi), z0=z0,
                                   lam=0.8)
            domain = DomainRect(-1.0, 1.0, -1.0, 1.0, res, res)
            where = {complex(z): ij
                     for ij, z in np.ndenumerate(domain.grid())}
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
                    # per row, the calls with a hop into it and its
                    # failed hops' end columns
                    row_calls, failed = {}, {}
                    for k, hops in enumerate(calls):
                        for _, b, ok in hops:
                            i, j = where[b]
                            if j == 0:
                                continue
                            row_calls.setdefault(i, set()).add(k)
                            if not ok:
                                failed.setdefault(i, []).append(j)
                    for i, cols in failed.items():
                        self.assertEqual(len(row_calls[i]), 1, label)
                        self.assertFalse(patch.valid[i, min(cols):].any(),
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
        each later probe-valid sample of that row, and the seed column's
        first hop, from z0 to the corner, whose path passes the pole in
        both pole cases; and det-1 start values (any matrices serve)."""
        data, domain = _data(name)
        zgrid = domain.grid()
        valid = _probe_validity(data, zgrid)
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
        got, settled, _ = _integrate_lanes(_lane_coef(data), np.array([a, a]),
                                           np.array([d, d]),
                                           np.stack([y, y], axis=1), tol)
        return got[:, 0], bool(settled[0])

    def check(self, name, tol):
        data, a, b, y, n = self.hops(name)
        d = b - a
        got, settled, failed = _integrate_lanes(_lane_coef(data), a, d, y,
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
            valid = _probe_validity(data, zgrid)
            ii, jj = np.nonzero(valid[:, :-1] & valid[:, 1:])
            a, b = zgrid[ii, jj], zgrid[ii, jj + 1]
            eye = np.zeros((4, 2), dtype=complex)
            eye[[0, 3]] = 1.0
            coef = _lane_coef(data)
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
            scalar = _scalar_coef(data)
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
                    for g, w in zip(got, want):
                        self.assertLessEqual(abs(g - w), TABLE_REL * abs(w),
                                             label)


class TestPropagateCalls(unittest.TestCase):
    """The scalar propagate runs only for a hop left alone in its batch:
    the one that _integrate_lanes hands back because it is still running
    when every other hop of the batch has ended."""

    def setUp(self):
        self.iterations = {}

    def sample(self, data, domain, target):
        """Sample the grid; returns the number of propagate calls and the
        (a, d) of every _integrate_lanes call."""
        batches = []

        def recording(coef, a, d, y, tol):
            batches.append((a.copy(), d.copy()))
            return _integrate_lanes(coef, a, d, y, tol)

        with mock.patch.object(solsurf.immersion, "propagate",
                               wraps=propagate) as counting, \
                mock.patch.object(solsurf.immersion, "_integrate_lanes",
                                  recording):
            sample_surface(data, domain, target)
        return counting.call_count, batches

    def test_clean_data_hops_in_batches(self):
        # hops short enough for one step at tol 1e-8, all but the seed
        # column's first, from z0 to the corner
        data, _ = _data("clean")
        domain = DomainRect(-0.3, 0.3, -0.3, 0.3, 17, 17)
        for target in ("h3", "e3-limit"):
            calls, batches = self.sample(data, domain, target)
            self.assertEqual(self.expected_calls(data, batches), 1, target)
            self.assertEqual(calls, 1, target)

    def test_pole_data_fallback_hops(self):
        # both targets sweep the reduced system, so they hop alike
        for name in ("pole_on_sample", "pole_off_sample"):
            data, domain = _data(name)
            for target in ("h3", "e3-limit"):
                calls, batches = self.sample(data, domain, target)
                expected = self.expected_calls(data, batches)
                self.assertGreater(expected, 0, name)
                self.assertEqual(calls, expected, "%s %s" % (name, target))

    def expected_calls(self, data, batches, tol=1e-8):
        """One call for each batch in which one hop runs more iterations
        than every other hop of the batch, and more than the first: the
        integrator hands that hop back.  A hop's iterations do not depend
        on its batch; each is counted on a batch of two copies of the
        hop, which end together."""
        coef = _lane_coef(data)
        eye = np.zeros((4, 2), dtype=complex)
        eye[[0, 3]] = 1.0
        calls = 0
        for a, d in batches:
            counts = []
            for hop in zip(a.tolist(), d.tolist()):
                if hop not in self.iterations:
                    n = []

                    def counted(*args):
                        n.append(1)
                        return coef(*args)

                    _integrate_lanes(counted, np.array(hop[:1] * 2),
                                     np.array(hop[1:] * 2), eye, tol)
                    self.iterations[hop] = len(n)
                counts.append(self.iterations[hop])
            counts.sort()
            calls += counts[-1] > max([1] + counts[-2:-1])
        return calls


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
            self.assertEqual(table.shape, (6, 4, len(a)), name)
            per_node = np.stack([coef(a, d, t) for t in _UNIT_NODES])
            np.testing.assert_array_equal(_bits(table.view(float)),
                                          _bits(per_node.view(float)), name)
            nan_lanes += int(np.isnan(table).any(axis=(0, 1)).sum())
        # the pole and erf data put NaN lanes into the comparison
        self.assertGreater(nan_lanes, 0)

    def test_one_coefficient_call_per_block(self):
        """One call for the seed column, and one per block of _SWEEP_ROWS
        rows."""
        data, domain = _data("clean")
        self.assertEqual(domain.ny, 17)
        for target in ("h3", "e3-limit"):
            calls = []

            def counting(*args, _real=_reduced_coef):
                coef = _real(*args)

                def counted(a, d, t):
                    calls.append(np.shape(t))
                    return coef(a, d, t)

                return counted

            with mock.patch.object(solsurf.immersion, "_reduced_coef",
                                   counting):
                sample_surface(data, domain, target)
            blocks = -(-domain.ny // _SWEEP_ROWS)
            self.assertEqual(calls, [(6, 1)] * (1 + blocks), target)


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
