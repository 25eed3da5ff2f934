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
    back to finite differences without it.
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
    is attached, so downstream Lax matrices avoid differencing u.
    """
    eta_f, deta_f, psi_f, dpsi_f = data.functions()
    lam = data.lam

    def u(z):
        return weierstrass_solution(data, z)[0]

    def q(z):
        try:
            ev = eta_f(z)
            return -(ev * ev) * dpsi_f(z)
        except EVAL_ERRORS as exc:
            raise DomainError("Q not evaluable at %r: %s" % (z, exc)) from exc

    def u_z(z):
        try:
            ev = eta_f(z)
            pv = psi_f(z)
            num = deta_f(z) / ev + pv.conjugate() * dpsi_f(z) / (1.0 + pv * pv.conjugate())
        except EVAL_ERRORS as exc:
            raise DomainError("u_z not evaluable at %r: %s" % (z, exc)) from exc
        return 2.0 * num

    return SurfaceFields(u=u, Q=q, H=lam, lam=lam, u_z=u_z)


# ---------------------------------------------------------------------------
# Wirtinger finite differences.  f may return a scalar or an ndarray.

def _eval_stencil(f, pts):
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


def _wirtinger_once(f, z, h):
    fe, fw, fn, fs = _eval_stencil(f, (z + h, z - h, z + 1j * h, z - 1j * h))
    return np.stack(wirtinger_pair(fe, fw, fn, fs, h))


def _lap4_once(f, z, h):
    fe, fw, fn, fs, fc = _eval_stencil(f, (z + h, z - h, z + 1j * h, z - 1j * h, z))
    return 0.25 * (fe + fw + fn + fs - 4.0 * fc) / (h * h)


def _richardson(once, f, z, h):
    z = complex(z)
    coarse = once(f, z, h)
    fine = once(f, z, 0.5 * h)
    return (4.0 * fine - coarse) / 3.0


def wirtinger_dz(f, z, h=1e-4):
    """d/dz = (1/2)(d/dx - i d/dy) by central differences at steps h and
    h/2, Richardson-extrapolated."""
    return _richardson(_wirtinger_once, f, z, h)[0]


def wirtinger_dzbar(f, z, h=1e-4):
    """d/dzbar = (1/2)(d/dx + i d/dy) by central differences at steps h
    and h/2, Richardson-extrapolated."""
    return _richardson(_wirtinger_once, f, z, h)[1]


def mixed_dzdzbar(f, z, h=1e-4):
    """d^2/dz dzbar = (1/4) Laplacian, from the 5-point stencil at steps h
    and h/2, Richardson-extrapolated."""
    return _richardson(_lap4_once, f, z, h)


# ---------------------------------------------------------------------------
# residuals

def gmc_residual(fields, z):
    """Residuals (r1, r2) of the Gauss and Codazzi equations at z.

    r1 = u_{z zbar} + (1/2)(H^2 - lambda^2) e^u - 2 |Q|^2 e^{-u}
    r2 = Q_zbar  (the (1/2) H_z e^u term vanishes for constant H)

    Both vanish for fields induced by holomorphic Weierstrass data.  The
    step h = 1e-3 balances stencil truncation against the ~1e-12 noise
    floor of special-function evaluations, which the second difference
    amplifies by 1/h^2.
    """
    z = complex(z)
    uzz = mixed_dzdzbar(fields.u, z, h=1e-3)
    try:
        uv = float(fields.u(z))
        qv = complex(fields.Q(z))
    except EVAL_ERRORS + (DomainError,) as exc:
        raise StencilOutOfDomain("fields not evaluable at %r: %s" % (z, exc)) from exc
    eu = math.exp(uv)
    r1 = complex(uzz) + 0.5 * (fields.H ** 2 - fields.lam ** 2) * eu \
        - 2.0 * (qv.real ** 2 + qv.imag ** 2) / eu
    r2 = complex(wirtinger_dzbar(fields.Q, z, h=1e-3))
    return r1, r2


def build_UV(fields, u_z, z):
    """Lax pair (U, V) at z, given the Wirtinger derivative u_z there.

    The system is Phi_z = U Phi, Phi_zbar = V^H Phi; at lambda = H = 0
    V = -U, so Phi stays unitary.
    """
    z = complex(z)
    uv = float(fields.u(z))
    qv = complex(fields.Q(z))
    eu_half = math.exp(0.5 * uv)
    a = 0.25 * complex(u_z)
    off = qv / eu_half
    U = np.array([[a, -off],
                  [0.5 * eu_half * (fields.lam + fields.H), -a]], dtype=complex)
    V = np.array([[-a, off],
                  [0.5 * eu_half * (fields.lam - fields.H), a]], dtype=complex)
    return U, V


def zero_curvature_residual(source, z):
    """Compatibility residual dzbar U - dz V^H + [U, V^H] as a 2x2 matrix.

    source is SurfaceFields, or WeierstrassData at H = lambda.  Entries of
    U and V come from the analytic u_z when the fields carry one,
    otherwise u is differenced (one extra level of finite differences).
    """
    if isinstance(source, WeierstrassData):
        fields = fields_from_weierstrass(source)
    else:
        fields = source
    if fields.u_z is not None:
        u_z = fields.u_z
    else:
        def u_z(w):
            return complex(wirtinger_dz(fields.u, w))

    def uvdag(w):
        U, V = build_UV(fields, u_z(w), w)
        return np.stack((U, V.conj().T))

    z = complex(z)
    # d/dz and d/dzbar of the stack (U, V^H), from one stencil
    dz, dzbar = _richardson(_wirtinger_once, uvdag, z, 1e-4)
    uu, vv = uvdag(z)
    return dzbar[0] - dz[1] + uu @ vv - vv @ uu
