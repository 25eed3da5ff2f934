"""The batched row sweep of the ODE targets against the per-hop loop it
replaced, which this file keeps as the reference implementation.  Both
integrate the reduced system only; default h3 moves it by the gauge at
z0."""

import sys
import unittest
import warnings
from unittest import mock

import numpy as np

import solsurf.immersion
from solsurf.expr import parse
from solsurf.geom import EVAL_ERRORS, DomainError, WeierstrassData
from solsurf.immersion import DomainRect, _lorentz4, _probe_validity, sample_surface
from solsurf.lsp import (StepUnderflow, _ID4, _UNIT_NODES, _integrate_unit,
                         _mul4, _reduced_coef, _reduced_coef_array,
                         _unit_step_array, gauge_matrix, propagate)
from solsurf.immersion import _SWEEP_ROWS
from solsurf.odebridge import erf_example_data

_HOP_ERRORS = (StepUnderflow, DomainError) + EVAL_ERRORS

# (eta, psi, z0, lambda, domain, exact): ROADMAP item 4's cases on 11x11
# with z0 = 0.9+0.9i (a pole on a sample, a pole between samples, a
# branch cut), clean data, and log, whose array closure differs from the
# scalar one in the last bits
CASES = {
    "clean": ("1+0.2*z", "z^2", 0j, 0.8, (-0.6, 0.6, -0.6, 0.6, 17, 17), True),
    "pole_on_sample": ("1/z", "z", 0.9 + 0.9j, 0.8, (-1, 1, -1, 1, 11, 11),
                       True),
    "pole_off_sample": ("1/(z-0.05-0.05*i)", "z", 0.9 + 0.9j, 0.8,
                        (-1, 1, -1, 1, 11, 11), True),
    "sqrt_cut": ("1", "sqrt(z)", 0.9 + 0.9j, 0.8, (-1, 1, -1, 1, 11, 11), True),
    "log_cut": ("1", "log(z)", 0.9 + 0.9j, 0.8, (-1, 1, -1, 1, 11, 11), False),
}
# (target, system) of the ODE sampler
TARGETS = (("h3", None), ("e3-limit", None), ("h3", "reduced"))
# tol 1e-2 and 1e-12 reject some first steps, so the fallback runs; the
# pole data, where it runs most, skips 1e-12, whose hops toward the pole
# take seconds to underflow
TOLS = (1e-8, 1e-2, 1e-12)


def _tols(name):
    return TOLS[:2] if name.startswith("pole") else TOLS
# each hop moves a log-data sample by a few ulps of the closures' last-bit
# difference (<= 5.5e-16 relative), and a row adds up to ten hops
LOG_REL = 1e-14


def _data(name):
    eta, psi, z0, lam, dom, _ = CASES[name]
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


def per_hop_reference(data, domain, target, tol=1e-8, system=None):
    """The sampler's former loop for the ODE targets: one scalar propagate
    of the reduced system per sample along the seed column and then along
    each row; default h3 emits the wavefunction times the gauge at z0.
    Returns (points, valid, residuals)."""
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
                valid[i, j] = False
                continue
            emit(i, j, y)
            cur_z = z
    return points, valid, residuals


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def _one_step(data, a, b, y, tol):
    """Whether _integrate_unit crosses the reduced system's hop a -> b in
    one accepted step of h = 1 (six coefficient calls), and its result
    (None if it raised)."""
    cfun = _reduced_coef(data)(complex(a), complex(b))
    calls = [0]

    def counted(t):
        calls[0] += 1
        return cfun(t)

    try:
        y1 = _integrate_unit(counted, y, tol)
    except _HOP_ERRORS:
        return False, None
    return calls[0] == 6, y1


class TestAgainstPerHopLoop(unittest.TestCase):

    def compare(self, name, target, system, tol):
        data, domain = _data(name)
        want_p, want_v, want_r = per_hop_reference(data, domain, target,
                                                   tol=tol, system=system)
        got = sample_surface(data, domain, target, tol=tol, system=system)
        label = "%s %s %s tol %g" % (name, target, system, tol)
        np.testing.assert_array_equal(got.valid, want_v, label)
        self.assertEqual(list(got.residuals), list(want_r), label)
        if CASES[name][-1]:
            np.testing.assert_array_equal(_bits(got.points), _bits(want_p),
                                          label)
            for key, grid in want_r.items():
                np.testing.assert_array_equal(_bits(got.residuals[key]),
                                              _bits(grid), label + " " + key)
            return
        # log data: within the closures' last-bit difference, grown by the
        # hops of a row; residuals relative to the squared point scale,
        # which their cancellation works at
        scale = np.max(np.abs(want_p), axis=2, where=want_v[..., None],
                       initial=1.0)
        self.assertTrue(np.all(np.isnan(got.points) == np.isnan(want_p)), label)
        dev = np.abs(got.points - want_p)[want_v].max(axis=1)
        self.assertLessEqual(float(np.max(dev / scale[want_v])), LOG_REL, label)
        for key, grid in want_r.items():
            dev = np.abs(got.residuals[key] - grid)[want_v]
            self.assertLessEqual(float(np.max(dev / scale[want_v] ** 2)),
                                 LOG_REL, label + " " + key)

    def test_all_cases(self):
        for name in CASES:
            for target, system in TARGETS:
                for tol in _tols(name):
                    self.compare(name, target, system, tol)

    def test_hop_after_a_failed_hop(self):
        """After a hop fails, the row's next hop starts at the last good
        sample, not where the plan put it.  A pole makes every later hop
        of its row fail too, so the failure is forced here: the batched
        step leaves column 8 to the scalar propagate, which refuses the
        hop into (5, 8)."""
        data, _ = _data("clean")
        domain = DomainRect(-0.3, 0.3, -0.3, 0.3, 17, 17)
        zgrid = domain.grid()
        bad = (complex(zgrid[5, 7]), complex(zgrid[5, 8]))

        def failing(data, z_from, z_to, *args, _real=propagate, **kwargs):
            if (complex(z_from), complex(z_to)) == bad:
                raise StepUnderflow("forced failure")
            return _real(data, z_from, z_to, *args, **kwargs)

        columns = []

        def rejecting(coefs, y, tol):
            # called once per column, in column order
            columns.append(len(columns) + 1)
            ynew, ok = _unit_step_array(coefs, y, tol)
            return ynew, ok & (columns[-1] != 8)

        with mock.patch.object(solsurf.immersion, "propagate", failing), \
                mock.patch.object(solsurf.immersion, "_unit_step_array",
                                  rejecting):
            got = sample_surface(data, domain, "h3")
        with mock.patch.object(sys.modules[__name__], "propagate", failing):
            want_p, want_v, _ = per_hop_reference(data, domain, "h3")
        self.assertFalse(want_v[5, 8])
        self.assertTrue(want_v[5, 9:].all())
        np.testing.assert_array_equal(got.valid, want_v)
        np.testing.assert_array_equal(_bits(got.points), _bits(want_p))

    def test_nan_and_overflow_do_not_warn(self):
        data, domain = _data("pole_on_sample")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sample_surface(data, domain, "h3", tol=1e-2)


class TestBatchedStep(unittest.TestCase):
    """_unit_step_array and the coefficient tables on every hop between
    neighbouring probe-valid samples, against the scalar integrator and
    the scalar coefficient."""

    # as in the sampler, which steps under errstate(all="ignore")
    def setUp(self):
        errstate = np.errstate(all="ignore")
        errstate.__enter__()
        self.addCleanup(errstate.__exit__, None, None, None)

    def check(self, name, tol):
        data, domain = _data(name)
        zgrid = domain.grid()
        valid = _probe_validity(data, zgrid)
        ii, jj = np.nonzero(valid[:, :-1] & valid[:, 1:])
        a, b = zgrid[ii, jj], zgrid[ii, jj + 1]
        # start values: any matrices serve; these have det 1
        rng = np.random.default_rng(3)
        y = rng.normal(size=(4, len(a))) + 1j * rng.normal(size=(4, len(a)))
        y[3] = (1.0 + y[1] * y[2]) / y[0]
        starts = [tuple(col) for col in y.T.tolist()]
        coef = _reduced_coef_array(data)
        ynew, ok = _unit_step_array([coef(a, b - a, t) for t in _UNIT_NODES],
                                    y, tol)
        exact = CASES[name][-1]
        accepted = rejected = 0
        for k in range(len(a)):
            one, want = _one_step(data, a[k], b[k], starts[k], tol)
            label = "%s tol %g hop %r -> %r" % (name, tol, a[k], b[k])
            self.assertEqual(bool(ok[k]), one, label)
            if one:
                accepted += 1
                got = tuple(ynew[:, k].tolist())
                if exact:
                    self.assertEqual(got, want, label)
                else:
                    self.assertLessEqual(max(abs(g - w) for g, w in zip(got, want)),
                                         1e-14 * max(map(abs, want)), label)
            else:
                rejected += 1
        return accepted, rejected

    def test_accepts_exactly_the_one_step_hops(self):
        counts = np.zeros(2, dtype=int)
        for name in CASES:
            for tol in TOLS:
                counts += self.check(name, tol)
        # both outcomes occur
        self.assertTrue(np.all(counts > 0), counts)

    def test_coefficient_tables_match_scalar_closures(self):
        for name in CASES:
            data, domain = _data(name)
            zgrid = domain.grid()
            a, b = zgrid[:, :-1].ravel(), zgrid[:, 1:].ravel()
            scalar = _reduced_coef(data)
            coef = _reduced_coef_array(data)
            for t in _UNIT_NODES:
                table = coef(a, b - a, t)
                for k in range(len(a)):
                    try:
                        want = scalar(complex(a[k]), complex(b[k]))(t)
                    except _HOP_ERRORS:
                        # NaN where the scalar form raises
                        self.assertFalse(np.all(np.isfinite(table[:, k])))
                        continue
                    got = table[:, k].tolist()
                    label = "%s t=%r at %r" % (name, t, a[k])
                    if CASES[name][-1]:
                        self.assertEqual(got, list(want), label)
                    else:
                        for g, w in zip(got, want):
                            self.assertLessEqual(abs(g - w), 4e-15 * abs(w),
                                                 label)


class TestPropagateCalls(unittest.TestCase):
    """The scalar propagate runs only for the seed column and the hops the
    batched step cannot take."""

    def count(self, data, domain, target):
        with mock.patch.object(solsurf.immersion, "propagate",
                               wraps=propagate) as counting:
            sample_surface(data, domain, target)
        return counting.call_count

    def test_clean_data_hops_only_the_seed_column(self):
        # hops short enough for one step at tol 1e-8
        data, _ = _data("clean")
        domain = DomainRect(-0.3, 0.3, -0.3, 0.3, 17, 17)
        for target in ("h3", "e3-limit"):
            self.assertLessEqual(self.count(data, domain, target), domain.ny)

    def test_pole_data_seed_plus_fallback_hops(self):
        # both targets sweep the reduced system, so they hop alike
        for name in ("pole_on_sample", "pole_off_sample"):
            data, domain = _data(name)
            expected = self.expected_calls(data, domain)
            for target in ("h3", "e3-limit"):
                self.assertEqual(self.count(data, domain, target), expected,
                                 "%s %s" % (name, target))

    def expected_calls(self, data, domain):
        """Seed hops (one per probe-valid sample of column 0) plus the row
        hops that do not start at the row's previous probe-valid sample,
        or that _integrate_unit does not cross in one step."""
        zgrid = domain.grid()
        probe = _probe_validity(data, zgrid)

        def hop(z_from, z_to, y):
            return propagate(data, z_from, z_to, y, tol=1e-8)

        calls = 0
        rows = {}
        y, cur_z = _ID4, data.z0
        for i in np.flatnonzero(probe[:, 0]):
            calls += 1
            try:
                y = hop(cur_z, zgrid[i, 0], y)
            except _HOP_ERRORS:
                continue
            rows[i] = y
            cur_z = zgrid[i, 0]
        for i, y in rows.items():
            last = prev = 0
            for j in np.flatnonzero(probe[i, 1:]) + 1:
                one, _ = _one_step(data, zgrid[i, last], zgrid[i, j], y, 1e-8)
                calls += not (last == prev and one)
                prev = j
                try:
                    y = hop(zgrid[i, last], zgrid[i, j], y)
                except _HOP_ERRORS:
                    continue
                last = j
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
    """The sampler tabulates a block's hops at all six nodes in one call of
    the array coefficient, over a (6, 1) node axis, and steps on (6, 4, n)
    slices of that table."""

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
            coef = _reduced_coef_array(data)
            table = coef(a, d, nodes)
            self.assertEqual(table.shape, (6, 4, len(a)), name)
            per_node = np.stack([coef(a, d, t) for t in _UNIT_NODES])
            np.testing.assert_array_equal(_bits(table.view(float)),
                                          _bits(per_node.view(float)), name)
            nan_lanes += int(np.isnan(table).any(axis=(0, 1)).sum())
        # the pole and erf data put NaN lanes into the comparison
        self.assertGreater(nan_lanes, 0)

    def test_step_takes_a_list_or_a_stacked_table(self):
        data, a, d = self.hops("pole_off_sample")
        rng = np.random.default_rng(5)
        y = rng.normal(size=(4, len(a))) + 1j * rng.normal(size=(4, len(a)))
        coef = _reduced_coef_array(data)
        table = np.stack([coef(a, d, t) for t in _UNIT_NODES])
        for tol in (1e-8, 1e-2):
            got, got_ok = _unit_step_array(table, y, tol)
            want, want_ok = _unit_step_array(list(table), y, tol)
            np.testing.assert_array_equal(got_ok, want_ok)
            np.testing.assert_array_equal(_bits(got.view(float)),
                                          _bits(want.view(float)))

    def test_one_coefficient_call_per_block(self):
        data, domain = _data("clean")
        self.assertEqual(domain.nx, 17)
        for target in ("h3", "e3-limit"):
            calls = []

            def counting(*args, _real=_reduced_coef_array):
                coef = _real(*args)

                def counted(a, d, t):
                    calls.append(np.shape(t))
                    return coef(a, d, t)

                return counted

            with mock.patch.object(solsurf.immersion, "_reduced_coef_array",
                                   counting):
                sample_surface(data, domain, target)
            blocks = -(-(domain.nx - 1) // _SWEEP_ROWS)
            self.assertEqual(calls, [(6, 1)] * blocks, target)


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
