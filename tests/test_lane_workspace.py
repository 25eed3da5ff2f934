"""The lock-step integrator's work arrays: lsp._integrate_lanes writes its
stages and coefficient tables into an lsp._LaneWork that the sampler's
sweep owns.  The values are those of fresh arrays bit for bit (the model
in tests/lanes_model.py), no returned array is a view of the work
arrays, and a step allocates next to nothing."""

import tracemalloc
import unittest

import numpy as np

from lanes_model import FRESH_OPS, integrate_lanes_fresh, lane_coef
from solsurf.expr import parse
from solsurf.geom import WeierstrassData
from solsurf.immersion import _SWEEP_ROWS, DomainRect
from solsurf.lsp import (_NODE_AXIS, _LaneWork, _dp_step, _gauged_mul,
                         _integrate_lanes)
from solsurf.odebridge import erf_example_data


def _block(name):
    """(coef, a, d) of the first block of _SWEEP_ROWS rows that the ODE
    sweep hops through at the benchmark's grid size, both halves of each
    row from the seed column; on the pole data, the block whose rows
    include the pole's."""
    if name == "readme":
        data = WeierstrassData(eta=parse("1+0.2*z"), psi=parse("z^2"),
                               z0=0j, lam=0.8)
        domain, r0 = DomainRect(-0.6, 0.6, -0.6, 0.6, 128, 128), 0
    elif name == "erf":
        data = erf_example_data(2, lam=0.7)
        domain, r0 = DomainRect(0.68, 1.32, -0.32, 0.32, 128, 128), 0
    else:
        data = WeierstrassData(eta=parse("1/z"), psi=parse("z"),
                               z0=0.9 + 0.9j, lam=0.8)
        domain, r0 = DomainRect(-1.0, 1.0, -1.0, 1.0, 97, 97), 48
    z = domain.grid()[r0:r0 + _SWEEP_ROWS]
    k = int(np.argmin(np.abs(z[0].real - data.z0.real)))
    za = np.concatenate([z[:, k:-1], z[:, 1:k + 1]], axis=1).ravel()
    zb = np.concatenate([z[:, k + 1:], z[:, :k]], axis=1).ravel()
    return lane_coef(data), za, zb - za


def _start(n, seed=5):
    """det-1 start values; any matrices serve."""
    rng = np.random.default_rng(seed)
    y = rng.normal(size=(4, n)) + 1j * rng.normal(size=(4, n))
    y[3] = (1.0 + y[1] * y[2]) / y[0]
    return y


def _bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


class TestAgainstFreshArrays(unittest.TestCase):

    def setUp(self):
        errstate = np.errstate(all="ignore")
        errstate.__enter__()
        self.addCleanup(errstate.__exit__, None, None, None)

    def test_bits_equal_the_fresh_array_model(self):
        """One workspace through README's block, the erf block and the pole
        block, at two tolerances: it grows, shrinks and is carved again as
        lanes retire, and every result keeps the model's bits."""
        work = _LaneWork()
        sizes = {}
        failed = {}
        for name in ("readme", "erf", "pole"):
            coef, a, d = _block(name)
            seen = sizes.setdefault(name, set())

            def counted(a, d, t, out, seen=seen, coef=coef):
                seen.add(a.size)
                return coef(a, d, t, out)

            eye = np.zeros((4, a.size), dtype=complex)
            eye[[0, 3]] = 1.0
            for tol in (1e-8, 1e-12):
                for y in (eye, _start(a.size)):
                    label = "%s tol %g" % (name, tol)
                    got = _integrate_lanes(counted, a, d, y, tol, work)
                    want = integrate_lanes_fresh(coef, a, d, y, tol)
                    for g, w in zip(got, want):
                        np.testing.assert_array_equal(_bits(g), _bits(w),
                                                      label)
                    failed[name] = failed.get(name, 0) + int(got[2].sum())
        self.assertEqual(max(sizes["readme"]), 8 * 127)
        # on the pole block lanes fail, and the lane count shrinks more
        # than once
        self.assertGreater(failed["pole"], 0)
        self.assertGreater(len(sizes["pole"]), 2, sizes["pole"])

    def test_results_outlive_the_next_call(self):
        """A returned array is the call's own: a second call through the
        same workspace leaves the first call's results as they were."""
        work = _LaneWork()
        coef, a, d = _block("erf")
        y = _start(a.size)
        first = _integrate_lanes(coef, a, d, y, 1e-10, work)
        kept = [r.copy() for r in first]
        for r in first:
            self.assertFalse(np.shares_memory(r, work._flat))
        coef2, a2, d2 = _block("pole")
        _integrate_lanes(coef2, a2, d2, _start(a2.size, seed=6), 1e-10, work)
        for r, k in zip(first, kept):
            np.testing.assert_array_equal(_bits(r), _bits(k))


class TestAllocationBudget(unittest.TestCase):
    """numpy reports its data buffers to tracemalloc, so a step's peak of
    new memory is deterministic."""

    def step_peak(self, ops, copies=1):
        """The peak of one array _dp_step over README's block repeated
        copies times, and the size of one (4, n) stage there."""
        coef, a, d = _block("readme")
        a, d = np.tile(a, copies), np.tile(d, copies)
        n = a.size
        y = _start(n)
        h = np.full(n, 0.5)
        with np.errstate(all="ignore"):
            c = coef(a, d, _NODE_AXIS, np.empty((6, 2, n), dtype=complex))
        k1 = _gauged_mul(c[0], y, np.empty_like(y))
        if ops is None:
            ops = _LaneWork().stages(n)
        tracemalloc.start()
        try:
            _dp_step(y, h, k1, *c[1:], ops)
            return tracemalloc.get_traced_memory()[1], 16 * 4 * n
        finally:
            tracemalloc.stop()

    def test_step_allocates_far_less_than_fresh_arrays(self):
        # a (4, 1016) stage is 65 kB; fresh arrays peak at about 1.0 MB
        fresh, block = self.step_peak(FRESH_OPS)
        owned, _ = self.step_peak(None)
        self.assertEqual(block, 16 * 4 * 1016)
        self.assertGreater(fresh, 8 * block)
        # what stays is the buffer numpy's iterator fills with h c
        # broadcast over the four entries
        self.assertLess(owned, fresh / 8, (owned, fresh))

    def test_no_stage_array_is_allocated(self):
        """At 8128 lanes a stage (520 kB) outweighs the broadcast buffer,
        which numpy caps at its buffer size (8192 elements, 131 kB), so
        a stage array allocated in the step, even one freed at once,
        passes the bound."""
        owned, block = self.step_peak(None, copies=8)
        self.assertLess(owned, block / 2, owned)


if __name__ == "__main__":
    unittest.main()
