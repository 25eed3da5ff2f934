"""Fresh-array model of lsp._integrate_lanes, the reference that tests
hold the integrator's work arrays to, and the scalar hop of the system it
integrates.

lsp._integrate_lanes writes the stages of each Dormand-Prince step and
the coefficient table into the arrays of an lsp._LaneWork.  This model
takes the same steps through the same lsp._dp_step, in the same term
order, but every stage and every table is a new array, as numpy's
operators return them.  The two must agree bit for bit.

The sampler's lanes integrate the ODE gauge Phi = G^{-1} Psi, G = [[1,
0], [psi, 1]], whose coefficient lsp._gauged_coef tabulates as its two
off-diagonal entries.  gauged_hop is one hop of that system through the
scalar lsp._integrate_unit, over the same entries from the scalar
closures, as 4-tuples with zero diagonal.
"""

from collections import namedtuple
from functools import partial

import numpy as np

from solsurf.lsp import (_MAX_STEPS, _NODE_AXIS, _T_FLOOR, _dp_step,
                         _gauged_coef, _integrate_unit)


def lc4_fresh(y, h, terms, out=None):
    """lsp._lc4 over (4, n) arrays, h one step per column: the products
    added to y one at a time in term order; out is ignored."""
    for c, k in terms:
        y = y + (h * c) * k
    return y


def mul4_fresh(c, y, out=None):
    """lsp._gauged_mul, [[0, b], [c, 0]] y for c = (b, c); out is
    ignored."""
    return np.stack((c[0] * y[2], c[0] * y[3], c[1] * y[0], c[1] * y[1]))


def table_fresh(coef, a, d, t):
    """The coefficient table of coef (lsp._gauged_coef) in a new array."""
    shape = np.broadcast_shapes(np.shape(t), np.shape(a))
    return coef(a, d, t, np.empty(shape[:-1] + (2, shape[-1]), dtype=complex))


def lane_coef(data):
    """lsp._gauged_coef over the array closures, as the sampler passes it
    to lsp._integrate_lanes."""
    eta_a, _, _, dpsi_a = data.array_functions()
    return _gauged_coef(data.lam, eta_a, dpsi_a)


def scalar_coef(data):
    """The same coefficient over the scalar closures, (a, d, t) -> the
    4-tuple (0, -lambda eta^2 d, -psi' d, 0), each entry rounded as the
    table rounds it."""
    eta_f, _, _, dpsi_f = data.functions()
    lam = data.lam

    def coef(a, d, t):
        z = a + t * d
        ev = eta_f(z)
        return 0j, -lam * d * ev * ev, -d * dpsi_f(z), 0j

    return coef


def gauged_hop(data, a, b, y, tol):
    """The hop a -> b of the gauged system from the 4-tuple y through
    lsp._integrate_unit; raises where it does."""
    a = complex(a)
    return _integrate_unit(partial(scalar_coef(data), a, complex(b) - a),
                           tuple(y), tol)


_FreshOps = namedtuple("_FreshOps", "mul4 lc4 zero out")
FRESH_OPS = _FreshOps(mul4_fresh, lc4_fresh, 0.0j, (None,) * 9)


def integrate_lanes_fresh(coef, a, d, y, tol):
    """lsp._integrate_lanes with fresh arrays: (y, settled, failed)."""
    n = a.size
    out = np.full_like(y, np.nan)
    settled = np.zeros(n, dtype=bool)
    failed = np.zeros(n, dtype=bool)
    lane = np.arange(n)
    t = np.zeros(n)
    h = np.ones(n)
    ymax = np.abs(y).max(axis=0)
    c = table_fresh(coef, a, d, _NODE_AXIS)
    k1 = mul4_fresh(c[0], y)
    c = c[1:]
    stop = ~np.isfinite(k1).all(axis=0)
    for _ in range(_MAX_STEPS - 1):
        ynew, k7, errv = _dp_step(y, h, k1, *c, FRESH_OPS)
        err, ynewmax = np.abs(np.stack((errv, ynew))).max(axis=1)
        scale = tol * np.maximum(np.maximum(1.0, ymax), ynewmax)
        ok = np.isfinite(np.stack((ynew, k7))).all(axis=(0, 1))
        over = ok & ~(np.isfinite(err) & np.isfinite(scale))
        ok &= ~over
        accept = ok & (err <= scale)
        fac = np.maximum(0.2, 0.9 * (scale / err) ** 0.2)
        hnew = np.where(accept, np.minimum(1.0, h * np.minimum(5.0, fac)),
                        h * np.where(ok, fac, 0.25))
        t = np.where(accept, t + h, t)
        y = np.where(accept, ynew, y)
        k1 = np.where(accept, k7, k1)
        ymax = np.where(accept, ynewmax, ymax)
        h = hnew
        done = accept & (t >= 1.0 - 1e-15)
        stop |= over | (~accept & (h < _T_FLOOR))
        run = ~(done | stop)
        if not run.all():
            out[:, lane[done]] = y[:, done]
            settled[lane[done]] = True
            failed[lane[stop]] = True
            lane, a, d, t, h, ymax = (v[run] for v in (lane, a, d, t, h, ymax))
            y, k1 = y[:, run], k1[:, run]
            stop = stop[run]
        if lane.size <= 1:
            return out, settled, failed
        h = np.minimum(h, 1.0 - t)
        c = table_fresh(coef, a, d, t + _NODE_AXIS[1:] * h)
    failed[lane] = True
    return out, settled, failed
