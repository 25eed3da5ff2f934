"""Fresh-array model of lsp._integrate_lanes, the reference that tests
hold the integrator's work arrays to.

lsp._integrate_lanes writes the stages of each Dormand-Prince step and
the coefficient table into the arrays of an lsp._LaneWork.  This model
takes the same steps through the same lsp._dp_step, in the same term
order, but every stage and every table is a new array, as numpy's
operators return them.  The two must agree bit for bit.
"""

from collections import namedtuple

import numpy as np

from solsurf.lsp import (_MAX_STEPS, _NODE_AXIS, _T_FLOOR, _dp_step,
                         _mul4_array)


def lc4_fresh(y, h, terms, out=None):
    """lsp._lc4 over (4, n) arrays, h one step per column: the products
    added to y one at a time in term order; out is ignored."""
    for c, k in terms:
        y = y + (h * c) * k
    return y


def mul4_fresh(a, b, out=None):
    """lsp._mul4_array; out is ignored."""
    return _mul4_array(a, b)


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
    c = np.stack(coef(a, d, _NODE_AXIS), axis=-2)
    k1 = _mul4_array(c[0], y)
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
        c = np.stack(coef(a, d, t + _NODE_AXIS[1:] * h), axis=-2)
    failed[lane] = True
    return out, settled, failed
