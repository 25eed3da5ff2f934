"""Weierstrass data, the surface fields it induces, and pointwise checks.

A data set (eta, psi) of holomorphic functions on a simply connected
domain, together with the curvature parameter lambda, induces

    e^{u/2} = |eta|^2 (1 + |psi|^2),        Q = -eta^2 psi'

which solve the Gauss / mean-curvature system for a conformal CMC-H
immersion with H = lambda (hyperbolic target) or H = lambda = 0
(Euclidean minimal).  This module evaluates those fields, their
Wirtinger derivatives, and the residuals of the structure equations:

    r1 = u_{z zbar} + (1/2)(H^2 - lambda^2) e^u - 2 |Q|^2 e^{-u}
    r2 = Q_zbar - (1/2) H_z e^u            (H constant here, so the
                                             second term drops)

plus the zero-curvature residual of the associated Lax pair

    U = [[u_z/4, -Q e^{-u/2}], [(1/2) e^{u/2} (lambda + H), -u_z/4]]
    V = [[-u_z/4, Q e^{-u/2}], [(1/2) e^{u/2} (lambda - H),  u_z/4]]

    R = dzbar U - dz V^H + U V^H - V^H U.

Derivatives of sampled quantities are central finite differences in the
Wirtinger sense with one level of Richardson extrapolation.

Every function here takes one complex z.  gmc_residual,
zero_curvature_residual, build_UV, the finite differences and the u, Q
and u_z of fields_from_weierstrass also take a numpy array of points:
they evaluate it in one pass over WeierstrassData.array_functions(), and
give NaN where the call at one of its points would raise.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ._quad import QuadratureFailure
from .expr import Expr, PoleOrOverflow

# exceptions a compiled closure can raise at a bad point; a numeric
# antiderivative's scalar closure raises QuadratureFailure there
EVAL_ERRORS = (PoleOrOverflow, ZeroDivisionError, OverflowError, ValueError,
               QuadratureFailure)


class DomainError(ValueError):
    """Field evaluation hit a point where the data degenerates (eta = 0,
    a pole, or a non-finite value)."""


class StencilOutOfDomain(ValueError):
    """A finite-difference stencil point could not be evaluated."""


@dataclass(eq=False)
class WeierstrassData:
    """Holomorphic pair (eta, psi) with base point, curvature parameter,
    and parameter bindings for the expressions."""
    eta: Expr
    psi: Expr
    z0: complex = 0.0 + 0.0j
    lam: float = 1.0
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        self.z0 = complex(self.z0)
        self.lam = float(self.lam)
        self._fns = None
        self._array_fns = None

    def functions(self):
        """Compiled closures (eta, eta', psi, psi'), cached."""
        if self._fns is None:
            self._fns = (self.eta.compiled(self.params),
                         self.eta.derivative().compiled(self.params),
                         self.psi.compiled(self.params),
                         self.psi.derivative().compiled(self.params))
        return self._fns

    def array_functions(self):
        """The same four closures over numpy arrays (Expr.compiled_array),
        cached; NaN marks a point where the scalar closure raises."""
        if self._array_fns is None:
            self._array_fns = tuple(
                e.compiled_array(self.params)
                for e in (self.eta, self.eta.derivative(),
                          self.psi, self.psi.derivative()))
        return self._array_fns


@dataclass(eq=False)
class SurfaceFields:
    """Conformal factor, Hopf differential, and curvature constants.

    u and Q are callables of the complex coordinate.  u_z, when present,
    is the analytic Wirtinger derivative of u; residual routines fall
    back to finite differences without it.  The residuals take an array
    of points only when these callables do (as fields_from_weierstrass's
    do, NaN marking a failed point); hand-built ones may take one complex.
    """
    u: Callable[[complex], float]
    Q: Callable[[complex], complex]
    H: float
    lam: float
    u_z: Optional[Callable[[complex], complex]] = None


def weierstrass_solution(data, z):
    """Values (u, Q) induced by the data at the point z."""
    eta_f, _, psi_f, dpsi_f = data.functions()
    z = complex(z)
    try:
        ev = eta_f(z)
        pv = psi_f(z)
        dpv = dpsi_f(z)
    except EVAL_ERRORS as exc:
        raise DomainError("data not evaluable at %r: %s" % (z, exc)) from exc
    m = (ev.real * ev.real + ev.imag * ev.imag) * (1.0 + pv.real * pv.real + pv.imag * pv.imag)
    if not (m > 0.0 and math.isfinite(m)):
        raise DomainError("conformal factor degenerates at %r (|eta|^2(1+|psi|^2) = %r)"
                          % (z, m))
    return 2.0 * math.log(m), -(ev * ev) * dpv


def fields_from_weierstrass(data):
    """SurfaceFields induced by the data, at mean curvature H = lambda.

    The analytic derivative  u_z = 2 (eta'/eta + conj(psi) psi'/(1+|psi|^2))
    is attached, so downstream Lax matrices avoid differencing u.  u, Q
    and u_z take one complex, or a numpy array of points evaluated by
    data.array_functions(), NaN where the call at one point raises
    DomainError.
    """
    eta_f, deta_f, psi_f, dpsi_f = data.functions()
    lam = data.lam

    def u(z):
        if isinstance(z, np.ndarray):
            eta_a, _, psi_a, dpsi_a = data.array_functions()
            ev, pv = eta_a(z), psi_a(z)
            with np.errstate(all="ignore"):
                m = (ev.real * ev.real + ev.imag * ev.imag) * (1.0 + pv.real * pv.real + pv.imag * pv.imag)
                # NaN where weierstrass_solution raises
                ok = (m > 0.0) & np.isfinite(m) & ~np.isnan(dpsi_a(z))
                return np.where(ok, 2.0 * np.log(m), np.nan)
        return weierstrass_solution(data, z)[0]

    def q(z):
        if isinstance(z, np.ndarray):
            eta_a, _, _, dpsi_a = data.array_functions()
            ev = eta_a(z)
            with np.errstate(all="ignore"):
                return -(ev * ev) * dpsi_a(z)
        try:
            ev = eta_f(z)
            return -(ev * ev) * dpsi_f(z)
        except EVAL_ERRORS as exc:
            raise DomainError("Q not evaluable at %r: %s" % (z, exc)) from exc

    def u_z(z):
        if isinstance(z, np.ndarray):
            eta_a, deta_a, psi_a, dpsi_a = data.array_functions()
            ev, pv = eta_a(z), psi_a(z)
            with np.errstate(all="ignore"):
                num = deta_a(z) / ev + pv.conjugate() * dpsi_a(z) / (1.0 + pv * pv.conjugate())
                # the scalar quotient raises where eta vanishes
                return np.where(ev == 0.0, np.nan, 2.0 * num)
        try:
            ev = eta_f(z)
            pv = psi_f(z)
            num = deta_f(z) / ev + pv.conjugate() * dpsi_f(z) / (1.0 + pv * pv.conjugate())
        except EVAL_ERRORS as exc:
            raise DomainError("u_z not evaluable at %r: %s" % (z, exc)) from exc
        return 2.0 * num

    return SurfaceFields(u=u, Q=q, H=lam, lam=lam, u_z=u_z)


# ---------------------------------------------------------------------------
# Wirtinger finite differences.  f may return a scalar or an ndarray.  At
# one point f is called once per stencil point, and a failed call raises
# StencilOutOfDomain; at an array of points f is called once, on the
# stencils of all of them stacked on a new first axis.

def _points(z):
    """One complex, or a complex ndarray of points; the array forms below
    test for an ndarray, a cheaper test than np.ndim on the scalar path."""
    return np.asarray(z, dtype=complex) if np.ndim(z) else complex(z)


def _stencil_values(f, z, h, centre=False):
    """f at z + h, z - h, z + ih, z - ih, then at the same four points for
    the step h/2, then at z when centre is set."""
    pts = []
    for step in (h, 0.5 * h):
        pts += [z + step, z - step, z + 1j * step, z - 1j * step]
    if centre:
        pts.append(z)
    if isinstance(z, np.ndarray):
        return f(np.stack(pts))
    try:
        return [np.asarray(f(p), dtype=complex) for p in pts]
    except EVAL_ERRORS + (DomainError,) as exc:
        raise StencilOutOfDomain("stencil evaluation failed: %s" % exc) from exc


def wirtinger_pair(fe, fw, fn, fs, h):
    """(d/dz, d/dzbar) by central differences from the values of f at
    z + h, z - h, z + ih and z - ih."""
    dx = fe - fw
    idy = 1j * (fn - fs)
    return 0.5 * (dx - idy) / (2.0 * h), 0.5 * (dx + idy) / (2.0 * h)


def _richardson(coarse, fine):
    """One Richardson step from the values at steps h and h/2."""
    return (4.0 * fine - coarse) / 3.0


def _wirtinger(v, h):
    """(d/dz, d/dzbar), stacked, from the values of _stencil_values."""
    return _richardson(np.stack(wirtinger_pair(*v[:4], h)),
                       np.stack(wirtinger_pair(*v[4:8], 0.5 * h)))


def _laplacian(v, h):
    """d^2/dz dzbar = (1/4) Laplacian, from the 5-point stencils of the
    values of _stencil_values with centre set."""
    def lap4(fe, fw, fn, fs, step):
        return 0.25 * (fe + fw + fn + fs - 4.0 * v[8]) / (step * step)

    return _richardson(lap4(*v[:4], h), lap4(*v[4:8], 0.5 * h))


def wirtinger_dz(f, z, h=1e-4):
    """d/dz = (1/2)(d/dx - i d/dy) by central differences at steps h and
    h/2, Richardson-extrapolated."""
    return _wirtinger(_stencil_values(f, _points(z), h), h)[0]


def wirtinger_dzbar(f, z, h=1e-4):
    """d/dzbar = (1/2)(d/dx + i d/dy) by central differences at steps h
    and h/2, Richardson-extrapolated."""
    return _wirtinger(_stencil_values(f, _points(z), h), h)[1]


def mixed_dzdzbar(f, z, h=1e-4):
    """d^2/dz dzbar = (1/4) Laplacian, from the 5-point stencil at steps h
    and h/2, Richardson-extrapolated."""
    return _laplacian(_stencil_values(f, _points(z), h, centre=True), h)


# ---------------------------------------------------------------------------
# residuals, at one complex z or at a 1-D array of points

def gmc_residual(fields, z):
    """Residuals (r1, r2) of the Gauss and Codazzi equations at z, one
    complex or a 1-D numpy array of points (then r1 and r2 are arrays).

    r1 = u_{z zbar} + (1/2)(H^2 - lambda^2) e^u - 2 |Q|^2 e^{-u}
    r2 = Q_zbar  (the (1/2) H_z e^u term vanishes for constant H)

    Both vanish for fields induced by holomorphic Weierstrass data.  The
    step h = 1e-3 balances stencil truncation against the ~1e-12 noise
    floor of special-function evaluations, which the second difference
    amplifies by 1/h^2.  At one point a failed evaluation raises
    StencilOutOfDomain; at an array of points r1 or r2 is NaN there.
    """
    z = _points(z)
    array = isinstance(z, np.ndarray)
    u = _stencil_values(fields.u, z, 1e-3, centre=True)
    q = _stencil_values(fields.Q, z, 1e-3, centre=True)
    with np.errstate(all="ignore"):
        uv, qv = u[8].real, q[8]
        # math.exp raises OverflowError where numpy returns inf
        eu = np.exp(uv) if array else math.exp(uv)
        uzz = _laplacian(u, 1e-3)
        r1 = uzz + 0.5 * (fields.H ** 2 - fields.lam ** 2) * eu \
            - 2.0 * (qv.real ** 2 + qv.imag ** 2) / eu
        r2 = _wirtinger(q, 1e-3)[1]
    return (r1, r2) if array else (complex(r1), complex(r2))


def _lax_entries(fields, u_z, z):
    """The Lax pair's entries (u_z/4, Q e^{-u/2}, (1/2) e^{u/2} (lambda + H),
    (1/2) e^{u/2} (lambda - H)) at z, given u_z there: one complex, or a
    numpy array of points under np.errstate(all="ignore")."""
    uv, qv = fields.u(z), fields.Q(z)
    # math.exp raises OverflowError where numpy returns inf
    eu_half = np.exp(0.5 * uv) if isinstance(z, np.ndarray) else math.exp(0.5 * uv)
    return (0.25 * u_z, qv / eu_half, 0.5 * eu_half * (fields.lam + fields.H),
            0.5 * eu_half * (fields.lam - fields.H))


def build_UV(fields, u_z, z):
    """Lax pair (U, V) at z, given the Wirtinger derivative u_z there.

    The system is Phi_z = U Phi, Phi_zbar = V^H Phi; at lambda = H = 0
    V = -U, so Phi stays unitary.  z may be a numpy array of points, with
    u_z of its shape: U and V are then arrays of shape z.shape + (2, 2).
    """
    with np.errstate(all="ignore"):
        a, off, plus, minus = _lax_entries(fields, u_z, z)
    return _matrices(a, -off, plus, -a), _matrices(-a, off, minus, a)


def lax_coefficient(fields, u_z, z, d):
    """The row-major entries of U d + V^H conj(d), with (U, V) the Lax
    pair of build_UV at z: the full system's coefficient along a path
    with tangent d, as propagate integrates it."""
    a, off, plus, minus = _lax_entries(fields, u_z, z)
    ad, od = a * d, off * d
    return (ad - ad.conjugate(), (minus * d).conjugate() - od,
            plus * d + od.conjugate(), ad.conjugate() - ad)


def _matrices(a, b, c, d):
    """The 2x2 matrices [[a, b], [c, d]] of same-shaped entries."""
    m = np.empty(np.shape(a) + (2, 2), dtype=complex)
    m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1] = a, b, c, d
    return m


def zero_curvature_residual(source, z):
    """Compatibility residual dzbar U - dz V^H + [U, V^H] as a 2x2 matrix
    at one complex z, or as an (n, 2, 2) array at a 1-D numpy array of n
    points, NaN where the call at one of them raises.

    source is SurfaceFields, or WeierstrassData at H = lambda.  Entries of
    U and V come from the analytic u_z when the fields carry one,
    otherwise u is differenced (one extra level of finite differences).
    At one point a failed stencil evaluation raises StencilOutOfDomain,
    and failed fields at z itself DomainError.
    """
    if isinstance(source, WeierstrassData):
        fields = fields_from_weierstrass(source)
    else:
        fields = source
    if fields.u_z is not None:
        u_z = fields.u_z
    else:
        def u_z(w):
            return wirtinger_dz(fields.u, w)

    def uvdag(w):
        U, V = build_UV(fields, u_z(w), w)
        return np.stack((U, np.swapaxes(V, -1, -2).conj()), axis=-3)

    z = _points(z)
    with np.errstate(all="ignore"):
        # d/dz and d/dzbar of the stack (U, V^H), from one stencil
        dz, dzbar = _wirtinger(_stencil_values(uvdag, z, 1e-4), 1e-4)
        centre = uvdag(z)
        uu, vv = centre[..., 0, :, :], centre[..., 1, :, :]
        return dzbar[..., 0, :, :] - dz[..., 1, :, :] + uu @ vv - vv @ uu
