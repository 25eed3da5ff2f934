"""Path integration of the linear spectral problems, with two independent
cross-checks: a Picard-series oracle and the gauge transform.

Two systems share the integrator core.  The full system

    Phi_z = U Phi,   Phi_zbar = V^H Phi

uses the Lax pair of geom.build_UV over Lemma-2 fields; along a path
gamma(t) it becomes dPhi/dt = (U gamma' + V^H conj(gamma')) Phi.  The
reduced system

    Psi_z = lambda eta^2 [[psi, -1], [psi^2, -psi]] Psi,   Psi_zbar = 0

is holomorphic, so only gamma' enters.  Each system has one coefficient
factory, (a, d, t) -> the four entries at a + t d on the segment from a
by d: the full one takes them from geom.lax_coefficient, which assembles
them from the same entries of the Lax pair as build_UV, with no 2x2
array; the reduced one takes the closures of eta and psi, and
reduced_coefficient shares its entries.  Both systems are integrated by a
hand-rolled adaptive Dormand-Prince 5(4) pair over plain 4-tuples of
complex entries (the 2x2 hot path does not justify numpy dispatch per
stage); step control is on the matrix max-norm and the determinant is
left untouched, since raw det drift is itself a diagnostic.  propagate,
one straight hop from a given value, is the one way into the scalar
integrator: the path integrals and the gauge check hop segment by
segment through it.

The grid sampler sweeps the reduced system only.  The gauge of
gauge_matrix gives Phi = M(z)^{-1} Psi M(z0) with M(z) unitary, so
Phi^H Phi = (Psi M(z0))^H (Psi M(z0)), and the h3 surface is the reduced
one moved by the constant M(z0); the full system stays as the
independent check of that identity (integrate_full and
gauge_equivalence_residual).  It samples in the paper's ODE gauge, Psi =
G Phi with G = [[1, 0], [psi, 1]] and Phi_z = [[0, -lambda eta^2],
[-psi', 0]] Phi (_gauged_coef: eta and psi', scalar or array), each hop
as its transfer matrix from the identity, many at once: _integrate_lanes
runs _integrate_unit over (4, n) arrays in lock step, one lane per
segment, taking the same decisions in the scalar term order, over a (6,
2, n) table of the two entries and the work arrays of a _LaneWork, so
every value keeps the bits of fresh arrays; on a fine grid the first
full step settles every hop.  The one lane left running when every
other has ended goes through propagate(system='gauged'): a single
segment steps faster through the scalar integrator.

The Picard oracle computes I + sum_j lambda^j I_j, where I_j are iterated
integrals of the lambda-stripped coefficient, via the Legendre spectral
antiderivative matrix: values of level j-1 at the Gauss nodes are mapped
to values of level j by one matrix product.  It shares no code path with
the Runge-Kutta stepping.
"""

import cmath
import math
from collections import namedtuple
from dataclasses import dataclass
from functools import partial

import numpy as np

from ._quad import QuadratureFailure, integration_matrix
from .geom import (EVAL_ERRORS, DomainError, StencilOutOfDomain,
                   fields_from_weierstrass, gmc_residual, lax_coefficient,
                   wirtinger_pair)

__all__ = [
    "PathSpec", "Wavefunction", "PoleClearanceViolated", "StepUnderflow",
    "IncompatibleSystem", "BranchAmbiguity", "QuadratureFailure",
    "reduced_coefficient", "integrate_reduced", "integrate_full",
    "picard_series", "gauge_matrix", "gauge_equivalence_residual",
]


class PoleClearanceViolated(ValueError):
    """Path passes a declared pole closer than the clearance radius."""


class StepUnderflow(ArithmeticError):
    """Adaptive step fell below the floor; usually an undeclared pole."""


class IncompatibleSystem(ValueError):
    """Full-system data fails the GMC compatibility probe near the path."""


class BranchAmbiguity(ArithmeticError):
    """The gauge is undefined: eta vanishes at z0 or at z."""


@dataclass
class PathSpec:
    """Polyline in the complex plane; points[0] is the start.

    Declared poles are kept at least `clearance` away from every segment
    (validated, not rerouted).
    """
    points: tuple
    poles: tuple = ()
    clearance: float = 1e-2

    def __post_init__(self):
        pts = tuple(complex(p) for p in self.points)
        if len(pts) < 2:
            raise ValueError("a path needs at least two points")
        self.points = pts
        self.poles = tuple(complex(p) for p in self.poles)

    @classmethod
    def line(cls, z0, z1, **kw):
        return cls(points=(z0, z1), **kw)

    def segments(self):
        return [(self.points[k], self.points[k + 1])
                for k in range(len(self.points) - 1)
                if self.points[k] != self.points[k + 1]]

    def length(self):
        return sum(abs(b - a) for a, b in self.segments())

    def validate(self):
        for a, b in self.segments():
            for p in self.poles:
                if _segment_distance(a, b, p) < self.clearance:
                    raise PoleClearanceViolated(
                        "segment %r -> %r passes pole %r within clearance %g"
                        % (a, b, p, self.clearance))


def _segment_distance(a, b, p):
    d = b - a
    L2 = (d * d.conjugate()).real
    if L2 == 0.0:
        return abs(p - a)
    t = ((p - a) * d.conjugate()).real / L2
    t = min(1.0, max(0.0, t))
    return abs(p - (a + t * d))


@dataclass
class Wavefunction:
    """2x2 solution value at a point; which is 'full' or 'reduced'."""
    value: np.ndarray
    at: complex
    lam: float
    which: str


# ---------------------------------------------------------------------------
# 4-tuple matrix helpers (row-major 2x2)

_ID4 = (1.0 + 0.0j, 0.0j, 0.0j, 1.0 + 0.0j)


def _mul4(a, b, out=None):
    # out: the array stages' output buffer, unused by the 4-tuples
    a11, a12, a21, a22 = a
    b11, b12, b21, b22 = b
    return (a11 * b11 + a12 * b21, a11 * b12 + a12 * b22,
            a21 * b11 + a22 * b21, a21 * b12 + a22 * b22)


def _maxabs4(a):
    return max(abs(a[0]), abs(a[1]), abs(a[2]), abs(a[3]))


def _to_matrix(a):
    return np.array([[a[0], a[1]], [a[2], a[3]]], dtype=complex)


# Dormand-Prince 5(4) tableau
_C2, _C3, _C4, _C5 = 0.2, 0.3, 0.8, 8.0 / 9.0
_A21 = 0.2
_A31, _A32 = 3.0 / 40.0, 9.0 / 40.0
_A41, _A42, _A43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
_A51, _A52, _A53, _A54 = 19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0
_A61, _A62, _A63, _A64, _A65 = (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0,
                                49.0 / 176.0, -5103.0 / 18656.0)
_B1, _B3, _B4, _B5, _B6 = 35.0 / 384.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0
_E1, _E3, _E4, _E5, _E6, _E7 = (71.0 / 57600.0, -71.0 / 16695.0, 71.0 / 1920.0,
                                -17253.0 / 339200.0, 22.0 / 525.0, -1.0 / 40.0)

_T_FLOOR = 1e-13
_MAX_STEPS = 200000


def _lc4(y, h, terms, out=None):
    # y + h * sum(c * k) entrywise over the 4-tuples (out as in _mul4)
    r0, r1, r2, r3 = y
    for c, k in terms:
        ch = h * c
        r0 += ch * k[0]
        r1 += ch * k[1]
        r2 += ch * k[2]
        r3 += ch * k[3]
    return (r0, r1, r2, r3)


# the rows of the two factors of _mul4's eight products, in its order
_MUL_ROWS = (np.array([0, 0, 2, 2, 1, 1, 3, 3]),
             np.array([0, 1, 0, 1, 2, 3, 2, 3]))


def _mul4_array(a, b):
    """_mul4 over (4, n) arrays: its eight products in one product, summed
    pairwise as _mul4 sums them."""
    p = a.take(_MUL_ROWS[0], axis=0) * b.take(_MUL_ROWS[1], axis=0)
    return p[:4] + p[4:]


def _gauged_mul(c, y, out):
    """[[0, b], [c, 0]] y into out, (b, c) = c: four products, no sum."""
    for i, (e, r) in enumerate(((0, 2), (0, 3), (1, 0), (1, 1))):
        np.multiply(c[e], y[r], out[i])
    return out


# the rows of _LaneWork's buffer, each one complex per lane: the
# coefficient table (12), lc4's products (4), errv, ynew and k7 (12),
# y2 .. y6 (4) and k2 .. k6 (20)
_WORK_ROWS = 52


class _LaneWork:
    """Work arrays for the array stages of _dp_step, and the stage
    operations over them, for the lanes of _integrate_lanes.

    The sampler's sweep owns one: it passes it to each _integrate_lanes
    call it makes and drops it when it returns.  The arrays live in one
    flat buffer, allocated again only when more lanes arrive, which
    stages(m) carves into contiguous arrays for m lanes; numpy can round
    a complex product on a strided output apart from a contiguous one.
    y2 .. y6 share one array, each read only by its own stage; errv,
    ynew and k7 lie side by side in ek, so that one slice reads two of
    them.  Every operation (mul4 is _gauged_mul) takes _lc4's operands in
    its order and writes through a positional out, so the values are
    those of fresh arrays bit for bit.  A stage's output holds until the
    next step; what the integrator keeps of it, it copies.
    """
    zero = 0.0j
    mul4 = staticmethod(_gauged_mul)

    def __init__(self):
        self._flat = np.empty(0, dtype=complex)
        self._steps = np.empty(0, dtype=complex)
        self.lanes = -1

    def stages(self, m):
        """The work arrays carved for m lanes: table, the (6, 2, m)
        coefficient table, ek and out, _dp_step's outputs."""
        if m != self.lanes:
            if m * _WORK_ROWS > self._flat.size:
                self._flat = np.empty(m * _WORK_ROWS, dtype=complex)
                self._steps = np.zeros(m, dtype=complex)
            w = self._flat[:m * _WORK_ROWS].reshape(_WORK_ROWS, m)
            self.table = w[:12].reshape(6, 2, m)
            self._p = w[12:16]
            self.ek = w[16:28].reshape(3, 4, m)
            # _dp_step's outputs: the y-stages' array, ynew, errv, k2 .. k7
            self.out = (w[28:32], self.ek[1], self.ek[0],
                        *w[32:52].reshape(5, 4, m), self.ek[2])
            # h c as a complex array whose imaginary parts stay 0: the
            # product with k then casts nothing, and so needs no buffer
            self._hc = self._steps[:m]
            self._hc_re = self._hc.real
            self.lanes = m
        return self

    def lc4(self, y, h, terms, out):
        # _lc4 over the lanes into out, h one step per lane: the products
        # added to y one at a time in term order, each rounded as _lc4
        # rounds it
        hc, hc_re, p = self._hc, self._hc_re, self._p
        for c, k in terms:
            np.multiply(h, c, hc_re)
            np.multiply(hc, k, p)
            np.add(y, p, out)
            y = out
        return out


# the 4-tuple arithmetic for the stages of _dp_step; _LaneWork is the
# array form
_Ops = namedtuple("_Ops", "mul4 lc4 zero out")
_TUPLE_OPS = _Ops(_mul4, _lc4, (0.0j, 0.0j, 0.0j, 0.0j), (None,) * 9)


def _dp_step(y, h, k1, c2, c3, c4, c5, c6, ops):
    """The stages of one Dormand-Prince step of size h from y.

    k1 = C(t) y; c2 .. c6 are the coefficient at t + C2 h, t + C3 h,
    t + C4 h, t + C5 h and t + h.  Returns (ynew, k7, errv), k7 =
    C(t + h) ynew and errv the embedded error estimate, in one term order
    for the 4-tuples of _integrate_unit (ops _TUPLE_OPS) and the arrays
    of _integrate_lanes (ops a _LaneWork, into whose arrays ops.out each
    stage writes), whose h holds one step per lane.
    """
    mul4, lc4 = ops.mul4, ops.lc4
    ys, yn, ye, o2, o3, o4, o5, o6, o7 = ops.out
    y2 = lc4(y, h, ((_A21, k1),), ys)
    k2 = mul4(c2, y2, o2)
    y3 = lc4(y, h, ((_A31, k1), (_A32, k2)), ys)
    k3 = mul4(c3, y3, o3)
    y4 = lc4(y, h, ((_A41, k1), (_A42, k2), (_A43, k3)), ys)
    k4 = mul4(c4, y4, o4)
    y5 = lc4(y, h, ((_A51, k1), (_A52, k2), (_A53, k3), (_A54, k4)), ys)
    k5 = mul4(c5, y5, o5)
    y6 = lc4(y, h, ((_A61, k1), (_A62, k2), (_A63, k3), (_A64, k4),
                    (_A65, k5)), ys)
    k6 = mul4(c6, y6, o6)
    ynew = lc4(y, h, ((_B1, k1), (_B3, k3), (_B4, k4), (_B5, k5), (_B6, k6)),
               yn)
    k7 = mul4(c6, ynew, o7)
    errv = lc4(ops.zero, h, ((_E1, k1), (_E3, k3), (_E4, k4), (_E5, k5),
                             (_E6, k6), (_E7, k7)), ye)
    return ynew, k7, errv


def _integrate_unit(cfun, y, tol):
    """Advance dY/dt = C(t) Y from t=0 to t=1, Y a 4-tuple, C from cfun."""
    isfinite = cmath.isfinite
    t = 0.0
    h = 1.0
    ymax = None   # _maxabs4(y), kept from the step that accepted y
    try:
        k1 = _mul4(cfun(0.0), y)
    except EVAL_ERRORS + (DomainError,) as exc:
        raise StepUnderflow("coefficient not evaluable at segment start: %s" % exc) from exc
    for _ in range(_MAX_STEPS):
        if t >= 1.0 - 1e-15:
            return y
        h = min(h, 1.0 - t)
        try:
            ynew, k7, errv = _dp_step(
                y, h, k1, cfun(t + _C2 * h), cfun(t + _C3 * h),
                cfun(t + _C4 * h), cfun(t + _C5 * h), cfun(t + h), _TUPLE_OPS)
            # spelled out: a generator over the eight entries costs more
            p0, p1, p2, p3 = ynew
            q0, q1, q2, q3 = k7
            bad = not (isfinite(p0) and isfinite(p1) and isfinite(p2)
                       and isfinite(p3) and isfinite(q0) and isfinite(q1)
                       and isfinite(q2) and isfinite(q3))
        except EVAL_ERRORS + (DomainError,) as exc:
            bad = True
        if bad:
            h *= 0.25
            if h < _T_FLOOR:
                raise StepUnderflow("step underflow at t=%.6g (non-evaluable "
                                    "coefficients; undeclared pole?)" % t)
            continue
        err = _maxabs4(errv)
        if ymax is None:
            ymax = _maxabs4(y)
        ynewmax = _maxabs4(ynew)
        scale = tol * max(1.0, ymax, ynewmax)
        if err <= scale:
            t += h
            y = ynew
            ymax = ynewmax
            k1 = k7
            if err == 0.0:
                h = min(5.0 * h, 1.0)
            else:
                h = min(1.0, h * min(5.0, max(0.2, 0.9 * (scale / err) ** 0.2)))
        else:
            h *= max(0.2, 0.9 * (scale / err) ** 0.2)
            if h < _T_FLOOR:
                raise StepUnderflow("step underflow at t=%.6g (tol %g)" % (t, tol))
    raise StepUnderflow("step budget exhausted (%d steps)" % _MAX_STEPS)


# the stage times of a first step, t = 0 and h = 1 (0.0 + C2 * 1.0 is C2,
# and so on), and as a column, over which one call of an array coefficient
# tabulates n segments at all six as a (6, 2, n) table; the step's
# fifth-order weights make a quadrature over them
_UNIT_NODES = (0.0, _C2, _C3, _C4, _C5, 1.0)
_NODE_AXIS = np.array(_UNIT_NODES)[:, None]
_UNIT_WEIGHTS = np.array((_B1, 0.0, _B3, _B4, _B5, _B6))


def _integrate_lanes(coef, a, d, y, tol, work=None):
    """_integrate_unit for n segments in lock step, one lane per segment.

    coef is a coefficient factory over array closures (_gauged_coef), a
    and d the (n,) segment starts and directions, y the (4, n) start
    values.  The stages and the coefficient table write into the arrays
    of work, a _LaneWork, which the caller owns and may pass to call
    after call; without one, the call makes its own.  Either way the
    results are those of fresh arrays bit for bit, and the arrays
    returned are the call's own: none is a view of work.  Each lane
    keeps its own t, h, k1 and |y| and takes _integrate_unit's
    decisions: the same stages with its own h (_dp_step, terms added in
    the scalar order), the same shrink and grow rules, the _T_FLOOR step
    floor and the step budget.  A coefficient that is not evaluable at
    the segment start, and an error estimate or |y| that overflows
    (OverflowError in Python's abs), fail the lane, as _integrate_unit
    raises there.  The first iteration is the step h = 1 from t = 0 over
    one coefficient call at the six _UNIT_NODES; each later one makes
    one call at the five new stage times of every lane still running.

    Returns (y, settled, failed): the values at t = 1 where settled.  A
    lane in neither is the one left running when every other has ended,
    returned unsettled.  A lane's result does not depend on the other
    lanes.  numpy rounds apart from Python's complex type, so only an
    error estimate within rounding of its bound could be judged apart
    from _integrate_unit; toward a pole, where the steps shrink to the
    floor, a lane can take a few more or fewer steps to the same failure.
    Call under np.errstate(all="ignore").
    """
    if work is None:
        work = _LaneWork()
    n = a.size
    out = np.full_like(y, np.nan)
    settled = np.zeros(n, dtype=bool)
    failed = np.zeros(n, dtype=bool)
    lane = np.arange(n)
    t = np.zeros(n)
    h = np.ones(n)
    ymax = np.abs(y).max(axis=0)
    st = work.stages(n)
    c = coef(a, d, _NODE_AXIS, st.table)
    k1 = _gauged_mul(c[0], y, np.empty_like(y))
    c = c[1:]
    stop = ~np.isfinite(k1).all(axis=0)
    for _ in range(_MAX_STEPS - 1):
        ynew, k7, _ = _dp_step(y, h, k1, *c, st)
        # ek holds errv, ynew and k7 side by side
        err, ynewmax = np.abs(st.ek[:2]).max(axis=1)
        scale = tol * np.maximum(np.maximum(1.0, ymax), ynewmax)
        # a step to a non-finite value is retried at h / 4; an error
        # estimate or |y| that overflows ends the lane
        ok = np.isfinite(st.ek[1:]).all(axis=(0, 1))
        over = ok & ~(np.isfinite(err) & np.isfinite(scale))
        ok &= ~over
        accept = ok & (err <= scale)
        # at err == 0 this is min(1, 5 h), _integrate_unit's min(5 h, 1)
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
        st = work.stages(lane.size)
        c = coef(a, d, t + _NODE_AXIS[1:] * h, st.table[:5])
    failed[lane] = True
    return out, settled, failed


# ---------------------------------------------------------------------------
# coefficient factories: (a, d, t) -> the system's coefficient along the
# segment from a by d at a + t d, as its four row-major entries (the
# gauged one writes its two nonzero entries into a table)

def _gauged_coef(lam, eta_f, dpsi_f):
    """[[0, -lambda eta^2], [-psi', 0]] d, the coefficient of Phi = G^{-1}
    Psi.  From the array closures of eta and psi', coef(a, d, t, out)
    writes its two entries into out[..., 0, :] and out[..., 1, :], a (k,
    2, n) table for a t of shape (k, 1) or (k, n), NaN where the scalar
    closures raise (call under np.errstate(all="ignore")); from the
    scalar closures, coef(a, d, t) is the 4-tuple, rounded alike."""
    def coef(a, d, t, out=None):
        z = a + t * d
        ev = eta_f(z)
        if out is None:
            return 0j, -lam * d * ev * ev, -d * dpsi_f(z), 0j
        b = out[..., 0, :]
        np.multiply(-lam * d, ev, b)
        np.multiply(b, ev, b)
        np.multiply(-d, dpsi_f(z), out[..., 1, :])
        return out

    return coef


def _reduced_coef(lam, eta_f, psi_f):
    """The reduced system's coefficient lambda eta^2 [[psi, -1], [psi^2,
    -psi]] d, from the scalar closures of eta and psi.  Traceless and of
    rank <= 1 by construction."""
    def coef(a, d, t):
        z = a + t * d
        ev = eta_f(z)
        pv = psi_f(z)
        w = lam * d * ev * ev
        wp = w * pv
        return wp, -w, wp * pv, -w * pv

    return coef


def _full_coef(data):
    """The full system's coefficient U d + V^H conj(d), geom.lax_coefficient
    over the Weierstrass fields, at H = lambda; DomainError where the
    fields degenerate."""
    fields = fields_from_weierstrass(data)

    def coef(a, d, t):
        z = a + t * d
        return lax_coefficient(fields, fields.u_z(z), z, d)

    return coef


def reduced_coefficient(data, z):
    """Coefficient matrix lambda eta^2 [[psi, -1], [psi^2, -psi]] at z.

    Traceless and of rank <= 1 (determinant 0) by construction.
    DomainError where eta or psi is not evaluable or an entry is not
    finite.
    """
    eta_f, _, psi_f, _ = data.functions()
    z = complex(z)
    try:
        entries = _reduced_coef(data.lam, eta_f, psi_f)(z, 1.0, 0.0)
    except EVAL_ERRORS as exc:
        raise DomainError("coefficient not evaluable at %r: %s" % (z, exc)) from exc
    if not all(map(cmath.isfinite, entries)):
        raise DomainError("coefficient not finite at %r" % (z,))
    return _to_matrix(entries)


def propagate(data, z_from, z_to, y0, tol=1e-10, system="reduced", H=None):
    """One straight hop z_from -> z_to from an arbitrary initial value.

    The one hop primitive: the path integrals go through it segment by
    segment, and so do the gauge check's finite-difference stencils and
    the grid sampler's scalar hops; system 'gauged' is the sampler's
    system of Phi = G^{-1} Psi (_gauged_coef).  No pole validation or
    compatibility probing.  y0 and the result are 4-tuples (row-major 2x2
    entries).  The full system
    is integrated at H = lambda, over the coefficient U d + V^H conj(d)
    of geom.lax_coefficient, four complex numbers per stage: H, which
    solbench/unitcost.py passes, may only be None or lambda.
    """
    if H not in (None, data.lam):
        raise ValueError("H must be lambda = %r, got %r" % (data.lam, H))
    if z_from == z_to:
        return y0
    eta_f, _, psi_f, dpsi_f = data.functions()
    if system == "reduced":
        coef = _reduced_coef(data.lam, eta_f, psi_f)
    elif system == "gauged":
        coef = _gauged_coef(data.lam, eta_f, dpsi_f)
    else:
        coef = _full_coef(data)
    a = complex(z_from)
    return _integrate_unit(partial(coef, a, complex(z_to) - a), tuple(y0), tol)


def integrate_reduced(data, path, tol=1e-10):
    """Solve the reduced (holomorphic) system along the path, Psi(start) = I."""
    path.validate()
    y = _ID4
    for a, b in path.segments():
        y = propagate(data, a, b, y, tol=tol)
    return Wavefunction(_to_matrix(y), at=path.points[-1], lam=data.lam, which="reduced")


def integrate_full(data, path, tol=1e-10):
    """Solve the full system along the path, at H = lambda, Phi(start) = I.

    The data is probed at segment endpoints and midpoints first: where
    the fields cannot be evaluated near the path, or their GMC stencil
    residual exceeds 1e-4, the Lax pair is not known to be flat and the
    integral may be path-dependent, so IncompatibleSystem is raised.
    """
    path.validate()
    fields = fields_from_weierstrass(data)
    probes = []
    for a, b in path.segments():
        probes.extend((a, 0.5 * (a + b), b))
    for p in probes:
        try:
            r1, r2 = gmc_residual(fields, p)
        except (StencilOutOfDomain, DomainError) + EVAL_ERRORS as exc:
            raise IncompatibleSystem("fields not evaluable near path at %r: %s"
                                     % (p, exc)) from exc
        if max(abs(r1), abs(r2)) > 1e-4:
            raise IncompatibleSystem("GMC residual %.3e at %r exceeds 1e-4"
                                     % (max(abs(r1), abs(r2)), p))
    y = _ID4
    for a, b in path.segments():
        y = propagate(data, a, b, y, tol=tol, system="full")
    return Wavefunction(_to_matrix(y), at=path.points[-1], lam=data.lam, which="full")


# ---------------------------------------------------------------------------
# Picard-series oracle

_PICARD_NODE_LADDER = (32, 48, 64, 96)


def picard_series(data, z, order):
    """I + sum_{j<=order} lambda^j I_j along the straight path z0 -> z.

    I_j are the iterated integrals of the lambda-stripped coefficient
    eta^2 [[psi, -1], [psi^2, -psi]].  Each refinement level evaluates the
    coefficient at Gauss-Legendre nodes and applies the spectral
    antiderivative matrix once per order; the node count is raised until
    two levels agree within 1e-10.
    """
    if not (0 <= order <= 8):
        raise ValueError("order must be between 0 and 8, got %r" % (order,))
    z = complex(z)
    z0 = data.z0
    eye = np.eye(2, dtype=complex)
    if order == 0 or z == z0:
        return eye.copy()
    eta_f, _, psi_f, _ = data.functions()
    lam = data.lam
    scale = 0.5 * (z - z0)
    prev = None
    for n in _PICARD_NODE_LADDER:
        x, w, s_mat = integration_matrix(n)
        coef = np.empty((n, 2, 2), dtype=complex)
        try:
            for m in range(n):
                zeta = z0 + (x[m] + 1.0) * scale
                ev = eta_f(zeta)
                pv = psi_f(zeta)
                e2 = ev * ev
                coef[m, 0, 0] = e2 * pv
                coef[m, 0, 1] = -e2
                coef[m, 1, 0] = e2 * pv * pv
                coef[m, 1, 1] = -e2 * pv
        except EVAL_ERRORS as exc:
            raise QuadratureFailure("coefficient not evaluable on path: %s" % exc) from exc
        level = np.broadcast_to(eye, (n, 2, 2)).copy()
        total = eye.copy()
        lam_pow = 1.0
        for _ in range(order):
            integrand = np.einsum("mij,mjk->mik", coef, level)
            end_value = scale * np.tensordot(w, integrand, axes=(0, 0))
            level = scale * np.einsum("nm,mik->nik", s_mat, integrand)
            lam_pow *= lam
            total = total + lam_pow * end_value
        if prev is not None:
            drift = float(np.max(np.abs(total - prev)))
            if drift <= max(1e-10, 1e-14 * float(np.max(np.abs(total)))):
                return total
        prev = total
    raise QuadratureFailure("Picard refinement did not converge within the node ladder")


# ---------------------------------------------------------------------------
# gauge transform

def gauge_matrix(data, z):
    """SU(2) gauge matrix

        M = (1 + psi conj(psi))^{-1/2} [[conj(s psi), s], [-conj(s), s psi]]

    with s a square root of eta/conj(eta).  Every continuous root is
    s = sigma eta/|eta| for one fixed sign sigma, so M is a function of z
    alone, with no branch to continue:

        M = sigma e^{-u/4} [[conj(eta psi), eta], [-conj(eta), eta psi]],
        e^{u/2} = |eta|^2 (1 + |psi|^2).

    sigma is fixed at z0: the sign that makes s(z0) the principal root of
    eta/conj(eta).
    BranchAmbiguity where eta vanishes at z0 or at z, where no root exists.

    M conjugates the full system at H = lambda into the reduced holomorphic
    one: M Phi solves dG/dz = lambda eta^2 [[psi,-1],[psi^2,-psi]] G with
    dG/dzbar = 0.  Verified against the fundamental solution of the full
    system at lambda = 0, whose inverse realizes the same gauge.
    """
    eta_f, _, psi_f, _ = data.functions()
    z = complex(z)
    e0 = _eta_nonzero(eta_f, data.z0, "the base point")
    s0 = cmath.exp(0.5j * cmath.phase(e0 / e0.conjugate()))
    sigma = 1.0 if (s0 * e0.conjugate()).real > 0 else -1.0
    ev = _eta_nonzero(eta_f, z, "z =")
    try:
        pv = psi_f(z)
    except EVAL_ERRORS as exc:
        raise DomainError("psi not evaluable at %r: %s" % (z, exc)) from exc
    s = sigma * ev / abs(ev)
    sc = s.conjugate()
    denom = math.sqrt(1.0 + (pv * pv.conjugate()).real)
    return np.array([[sc * pv.conjugate(), s],
                     [-sc, s * pv]], dtype=complex) / denom


def _eta_nonzero(eta_f, z, where):
    try:
        ev = eta_f(z)
    except EVAL_ERRORS as exc:
        raise DomainError("eta not evaluable at %s %r: %s" % (where, z, exc)) from exc
    if abs(ev) < 1e-300:
        raise BranchAmbiguity("eta vanishes at %s %r, where the gauge is "
                              "undefined" % (where, z))
    return ev


def gauge_equivalence_residual(data, path, tol=1e-10):
    """Numerical check of the gauge equivalence along a path.

    Propagates the full wavefunction Phi, at H = lambda (the one H the
    gauge conjugates into the reduced system), to the midpoint of every
    segment, forms G = M Phi M(z0)^{-1}, and measures by central
    differences at step 1e-4 how well G solves the reduced system:

        r_z    = dG/dz G^{-1} - lambda eta^2 [[psi,-1],[psi^2,-psi]]
        r_zbar = dG/dzbar G^{-1}

    Returns a dict with the max residual norms, the worst M unitarity
    defect, and the worst tr/det drift between Phi^H Phi and G^H G.
    """
    path.validate()
    z0 = path.points[0]
    m0_inv = gauge_matrix(data, z0).conj().T          # unitary

    y = _ID4
    prev = z0
    out = {"dz_residual": 0.0, "dzbar_residual": 0.0,
           "m_unitarity": 0.0, "trdet_drift": 0.0}
    for a, b in path.segments():
        mid = 0.5 * (a + b)
        for target in (a, mid):
            if target != prev:
                y = propagate(data, prev, target, y, tol=tol, system="full")
                prev = target
        phi_mid = _to_matrix(y)

        def g_at(w, y_mid=y, zc=mid):
            yw = propagate(data, zc, w, y_mid, tol=tol, system="full")
            return (gauge_matrix(data, w) @ _to_matrix(yw)) @ m0_inv

        ge, gw, gn, gs = (g_at(mid + d) for d in (1e-4, -1e-4, 1e-4j, -1e-4j))
        m_mid = gauge_matrix(data, mid)
        gc = (m_mid @ phi_mid) @ m0_inv
        gz, gzb = wirtinger_pair(ge, gw, gn, gs, 1e-4)
        gc_inv = np.linalg.inv(gc)
        a_mat = reduced_coefficient(data, mid)
        out["dz_residual"] = max(out["dz_residual"],
                                 float(np.max(np.abs(gz @ gc_inv - a_mat))))
        out["dzbar_residual"] = max(out["dzbar_residual"],
                                    float(np.max(np.abs(gzb @ gc_inv))))
        out["m_unitarity"] = max(out["m_unitarity"],
                                 float(np.max(np.abs(m_mid.conj().T @ m_mid - np.eye(2)))))
        p_full = phi_mid.conj().T @ phi_mid
        p_gauge = gc.conj().T @ gc
        out["trdet_drift"] = max(out["trdet_drift"],
                                 abs(np.trace(p_full) - np.trace(p_gauge)),
                                 abs(np.linalg.det(p_full) - np.linalg.det(p_gauge)))
    return out

