"""Bridge between the reduced spectral problem and scalar second-order ODEs.

A first-row component alpha of the reduced system satisfies

    alpha'' + p alpha' + q alpha = 0,   p = -2 eta'/eta,  q = -lambda eta^2 psi',

and conversely a pair (p, q) determines Weierstrass data up to the gauge
constants c (scale of eta) and c1 (additive shift of psi):

    eta = c exp(-1/2 int p),   psi = -(1/lambda) int q/eta^2 - c1.

Antiderivatives are symbolic for polynomial integrands and for Gaussian
forms C exp(a z^2 + b z + d) (which integrate to error functions); anything
else falls back to numeric path integration wrapped in an expression node.

The worked example is the error-function equation w'' - 2z w' - 2n w = 0,
whose surface data is eta = c e^{z^2/2}, psi = (n sqrt(pi)/(lambda c^2))
erf(z) - c1.  The closed-form wavefunction printed for it in terms of
Hermite and Kummer functions has internally inconsistent normalization
(see kummer_crosscheck), so it is treated as a loose cross-check: the
report records deviations instead of asserting them away.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from ._quad import QuadratureFailure, adaptive_gl_batch
from .expr import (Call, Const, Expr, Num, Param, Var, add, const_expr, div,
                   mul, neg, num_signed, pow_, simplify, sub, subst_params,
                   _exp_exponent, _factor_product, _poly_coeffs, _subtrees)
from .geom import WeierstrassData
from .immersion import DomainRect, LambdaZero, sample_surface
from .lsp import PathSpec, integrate_reduced, reduced_coefficient
from .specfun import SQRT_PI, erf_c, hermite_h, kummer_c

__all__ = [
    "OdeSpec", "NonIntegrableForm", "AntiderivativeNode",
    "ode_coefficients", "standard_potential", "weierstrass_from_ode",
    "erf_example_surface", "kummer_crosscheck",
]


class NonIntegrableForm(ValueError):
    """The coefficient pair cannot be integrated, symbolically or numerically."""


@dataclass
class OdeSpec:
    """Scalar equation w'' + p w' + q w = 0 at spectral value lambda."""
    p: Expr
    q: Expr
    lam: float


# the numeric antiderivative's tolerance, absolute, and relative to the
# integral's size where the absolute one is not met
_ANTIDERIVATIVE_TOL = 1e-12


@dataclass(frozen=True, repr=False)
class AntiderivativeNode(Expr):
    """Numeric antiderivative of an expression, vanishing at the base point.

    Evaluation integrates along the straight segment from base to z, which
    is path-independent for holomorphic integrands on simply connected
    domains.  The symbolic derivative is exact (the integrand); printing
    is informational only, this node is outside the parseable grammar.

    One integral serves both closures, so they agree bit for bit: a batch
    of segments from the base to every point, over the integrand's array
    closure, which the scalar closure takes at its one point.  A point is
    integrated to _ANTIDERIVATIVE_TOL, absolute, and a point that fails
    there once more to _ANTIDERIVATIVE_TOL max(1, |I|), I the segment's
    15-point Kronrod value: an absolute tolerance is not met once the
    integral's rounding passes it (for exp(z) from 0, at points from
    z = 7.3, |integral| about 1.5e3).  A point that passes the first try
    keeps that value.  A point that fails both, a pole of the integrand
    on its segment among them, gives NaN in the array closure and
    QuadratureFailure in the scalar one; no error of the integrand's own
    passes through.
    """
    integrand: Expr
    base: complex

    def _d(self):
        return self.integrand

    def _compile(self, params, lib):
        values = self.integrand.compiled_array(params)
        base = self.base

        def integral(z):
            z = np.asarray(z, dtype=complex)
            pts = z.ravel()
            starts = np.full(pts.shape, base)
            total, failed = adaptive_gl_batch(values, starts, pts,
                                              tol=_ANTIDERIVATIVE_TOL)
            redo = np.flatnonzero(failed)
            if redo.size:
                # tol infinite takes each segment's first K15 as it is
                size = np.abs(adaptive_gl_batch(values, starts[redo],
                                                pts[redo], tol=np.inf)[0])
                total[redo] = adaptive_gl_batch(
                    values, starts[redo], pts[redo],
                    tol=_ANTIDERIVATIVE_TOL * np.fmax(1.0, size))[0]
            return total.reshape(z.shape)

        if lib.array:
            return integral

        def integral_at(z):
            v = complex(integral(z))
            if cmath.isnan(v):
                raise QuadratureFailure("no antiderivative from %r to %r "
                                        "to tolerance" % (base, z))
            return v

        return integral_at

    def _has_z(self):
        return True

    def _fmt(self, ctx):
        return "antiderivative(%s; base=%s)" % (self.integrand._fmt(1), self.base)


def free_params(e):
    """Names of unbound Param nodes in the tree."""
    if isinstance(e, Param):
        return {e.name}
    return set().union(*(free_params(v) for v in _subtrees(e).values()))


def _substituted(data):
    """eta and psi with the data's bound parameters substituted.  An eta
    that simplifies to the zero polynomial is refused (ValueError): it is
    not Weierstrass data, and the bridge divides by it."""
    eta = subst_params(data.eta, data.params)
    coeffs = _poly_coeffs(simplify(eta))
    if coeffs is not None and not any(coeffs):
        raise ValueError("eta = %s is identically zero; the ODE bridge "
                         "divides by eta" % (data.eta,))
    return eta, subst_params(data.psi, data.params)


def ode_coefficients(data):
    """Coefficients (p, q) of the scalar reduction of the reduced system.

    Bound parameters of the data are substituted; unbound ones stay
    symbolic.  The results are simplified, so exactly cancelling factors
    (eta against 1/eta, Gaussians against anti-Gaussians) disappear.  An
    identically zero eta raises ValueError.
    """
    eta, psi = _substituted(data)
    p = simplify(neg(mul(Num(2.0), div(eta.derivative(), eta))))
    q = simplify(neg(mul(const_expr(data.lam),
                         mul(mul(eta, eta), psi.derivative()))))
    return OdeSpec(p=p, q=q, lam=data.lam)


def standard_potential(data):
    """Potential Q(z, lambda) of the normal form y'' + Q y = 0.

    Q = d^2(ln eta) - (d ln eta)^2 - lambda eta^2 psi', reached from the
    scalar reduction by the substitution y = eta0 alpha / eta.
    """
    eta, psi = _substituted(data)
    logd = div(eta.derivative(), eta)
    qq = sub(sub(logd.derivative(), mul(logd, logd)),
             mul(const_expr(data.lam), mul(mul(eta, eta), psi.derivative())))
    return simplify(qq)


# ---------------------------------------------------------------------------
# symbolic antiderivatives

def _poly_antiderivative(coeffs):
    acc = None
    for k, ck in enumerate(coeffs):
        if ck == 0:
            continue
        term = mul(const_expr(ck / (k + 1)), pow_(Var(), Num(float(k + 1))))
        acc = term if acc is None else add(acc, term)
    return Num(0.0) if acc is None else acc


def _gaussian_antiderivative(e):
    """Antiderivative of C exp(a z^2 + b z + d) with a != 0, else None.

    Completing the square gives C e^{d - b^2/4a} (sqrt(pi)/(2s))
    erf(s (z + b/2a)) with s = sqrt(-a) (principal branch; the identity
    d/dz erf(s w) = (2 s / sqrt(pi)) e^{-s^2 w^2} holds for any complex s).
    """
    coeff, factors, exp_args = _factor_product(e)
    if factors or not exp_args:
        return None
    total = _exp_exponent(exp_args)
    if total is None or len(total) > 3:
        return None
    d0, b, a = total + [0j] * (3 - len(total))
    if a == 0:
        return None
    s = cmath.sqrt(-a)
    shift = b / (2 * a)
    front = coeff * cmath.exp(d0 - b * b / (4 * a)) / (2 * s)
    arg = add(Var(), const_expr(shift)) if shift != 0 else Var()
    if s != 1:
        arg = mul(const_expr(s), arg)
    return mul(const_expr(front),
               mul(Call("sqrt", Const("pi")), Call("erf", arg)))


def _antiderivative(e, z0):
    """An expression G with G' = e and G(z0) = 0.

    Polynomial and Gaussian integrands get closed forms; everything else
    becomes a numeric path-integral node based at z0.
    """
    names = free_params(e)
    if names:
        raise NonIntegrableForm("unbound parameters %s in integrand"
                                % sorted(names))
    pc = _poly_coeffs(e)
    if pc is not None:
        g = _poly_antiderivative(pc)
    else:
        g = _gaussian_antiderivative(simplify(e))
    if g is None:
        return AntiderivativeNode(simplify(e), complex(z0))
    g0 = g.eval(z0)
    if g0 != 0:
        g = sub(g, const_expr(g0))
    return g


def weierstrass_from_ode(spec, c=1.0, c1=0.0, z0=0j):
    """Weierstrass data whose scalar reduction is the given equation.

    Round-trips through ode_coefficients to the same (p, q); c scales eta
    and c1 shifts psi, neither changes the equation.  psi = -(1/lambda)
    int q/eta^2 - c1, so LambdaZero is raised when 1/lambda is not finite.
    """
    lam = spec.lam
    if lam == 0 or math.isinf(1.0 / lam):
        raise LambdaZero("psi needs a finite 1/lambda, got lambda = %r"
                         % (lam,))
    z0 = complex(z0)
    gp = _antiderivative(spec.p, z0)
    eta = simplify(mul(const_expr(c), Call("exp", mul(num_signed(-0.5), gp))))
    integrand = simplify(div(spec.q, mul(eta, eta)))
    gq = _antiderivative(integrand, z0)
    psi = simplify(sub(mul(const_expr(-1.0 / lam), gq), const_expr(c1)))
    return WeierstrassData(eta=eta, psi=psi, z0=z0, lam=lam)


# ---------------------------------------------------------------------------
# the error-function example

def erf_example_data(n, c=1.0, c1=0.0, lam=1.0):
    """Weierstrass data of the error-function equation w''-2zw'-2nw=0.

    eta = c e^{z^2/2}, psi = (n sqrt(pi)/(lambda c^2)) erf(z) - c1, based
    at z0 = 1 (the base point the closed-form normalization references).
    n may be a number or an Expr (e.g. an unbound parameter), in which case
    the returned psi carries it symbolically.  LambdaZero is raised when
    the coefficient n/(lambda c^2) is not finite, an Expr n counting as 1.
    """
    c = complex(c)
    lc2 = lam * c * c
    unit = 1.0 if isinstance(n, Expr) else n
    if lc2 == 0 or not cmath.isfinite(unit / lc2):
        raise LambdaZero("psi needs a finite n/(lambda c^2), got lambda = %r, "
                         "c = %r" % (lam, c))
    if isinstance(n, Expr):
        coef = simplify(div(n, const_expr(lc2)))
    else:
        coef = const_expr(n / lc2)
    eta = mul(const_expr(c),
              Call("exp", div(pow_(Var(), Num(2.0)), Num(2.0))))
    psi = sub(mul(coef,
                  mul(Call("sqrt", Const("pi")), Call("erf", Var()))),
              const_expr(c1))
    return WeierstrassData(eta=eta, psi=psi, z0=1.0 + 0j, lam=float(lam))


def erf_example_surface(n, c=1.0, c1=0.0, lam=1.0, domain=None, tol=1e-8,
                        threads=1):
    """Hyperbolic surface patch of the error-function equation.

    The h3 patch of sample_surface with system='reduced': the Sym-type
    formula on the reduced wavefunction from z0 = 1, without the move by
    the gauge rho(M(z0)) that the default h3 patch applies, so the
    default patch is this surface moved by that one Lorentz isometry.
    threads is accepted and ignored: sampling runs on the calling thread.
    """
    data = erf_example_data(n, c=c, c1=c1, lam=lam)
    if domain is None:
        domain = DomainRect(0.68, 1.32, -0.32, 0.32, 65, 65)
    return sample_surface(data, domain, "h3", tol=tol, system="reduced")


def _erf_closed_columns(n, c, c1, lam):
    """Closed-form wavefunction columns as printed, as functions of z.

    column(z, s, scope) is (alpha, beta) with s multiplying the Kummer
    part: sigma for column 1, 1 for column 2.  The second bracket of beta
    is read as printed, outside the (1/(lambda c^2)) e^{-z^2} prefactor;
    scope="inside" applies the prefactor to it as well (the reading the
    elimination identity favors).
    """
    lc2 = lam * c * c

    def column(z, s, scope="outside"):
        z = complex(z)
        h1 = hermite_h(-n - 1, z)
        h2 = hermite_h(-n - 2, z)
        f_half = kummer_c((1 + n) / 2.0, 0.5, z * z)
        f_three = kummer_c((1 + n) / 2.0, 1.5, z * z)
        em = cmath.exp(-z * z)
        ep = cmath.exp(z * z)
        alpha = em * (h1 + s * f_half)
        bracket1 = (lc2 * c1 + n * SQRT_PI * erf_c(z)) * (h1 + s * f_half)
        bracket2 = 2.0 * ((1 + n) * h2 + z * h1 - n * z * s * f_three)
        if scope == "inside":
            beta = (em * bracket1 + ep * bracket2) / lc2
        else:
            beta = em * bracket1 / lc2 + ep * bracket2
        return np.array([alpha, beta], dtype=complex)

    return column


def kummer_crosscheck(n, c=1.0, c1=0.0, lam=1.0, z=1.5 + 0j):
    """Compare the printed closed-form wavefunction with integration.

    Each closed-form column is propagated from its own value at the base
    point z0 = 1 by the numerically integrated fundamental solution and
    compared entrywise at z (normalization-insensitive by construction).
    The report also records finite-difference residuals of the columns
    against the first-order system under both bracket-scope readings, the
    Wronskian-type determinant, and the closed form at the base point.
    PASS uses a deliberately loose 1e-2 threshold; failures are recorded
    observations about the printed formulas, not about the integrator.
    """
    n = int(n)
    c = complex(c)
    c1 = complex(c1)
    lam = float(lam)
    z = complex(z)
    data = erf_example_data(n, c=c, c1=c1, lam=lam)

    haveA = (1 + n) * hermite_h(-n - 2, 1.0) + hermite_h(-n - 1, 1.0)
    haveB = hermite_h(-n - 1, 1.0)
    denom = (2.0 * haveA * kummer_c((1 + n) / 2.0, 0.5, 1.0)
             + 2.0 * n * haveB * kummer_c((1 + n) / 2.0, 1.5, 1.0))
    notes = []
    if denom == 0:
        sigma = complex("inf")
        notes.append("sigma denominator vanished")
    else:
        sigma = 1.0 + lam * math.e / denom

    column = _erf_closed_columns(n, c, c1, lam)
    svals = (sigma, 1.0)

    # fundamental solution of the reduced system from the base point
    path = PathSpec.line(1.0 + 0j, z)
    phi = integrate_reduced(data, path).value

    deviation = [[0.0, 0.0], [0.0, 0.0]]
    for k, s in enumerate(svals):
        v0 = column(1.0, s)
        vz = column(z, s)
        pred = phi @ v0
        for j in range(2):
            scale = max(abs(vz[j]), abs(pred[j]), 1e-30)
            deviation[k][j] = abs(vz[j] - pred[j]) / scale

    # finite-difference residual of each printed column against the system
    h = 1e-5
    fd = {"outside": 0.0, "inside": 0.0}
    for scope in fd:
        worst = 0.0
        for t in (0.35, 0.7):
            w = 1.0 + t * (z - 1.0)
            dv = (column(w + h, sigma, scope) - column(w - h, sigma, scope)) / (2 * h)
            rhs = reduced_coefficient(data, w) @ column(w, sigma, scope)
            scale = max(float(np.max(np.abs(rhs))), 1e-30)
            worst = max(worst, float(np.max(np.abs(dv - rhs))) / scale)
        fd[scope] = worst
    if fd["inside"] < fd["outside"]:
        notes.append("beta bracket satisfies the system better when the "
                     "exponential prefactor is applied to both terms")

    # scalar-equation diagnosis: the alpha entries against w''-2zw'-2nw=0
    # and against the companion equation w''+2zw'-2nw=0
    scalar = {"stated": 0.0, "companion": 0.0}
    for s in svals:
        for t in (0.35, 0.7):
            w = 1.0 + t * (z - 1.0)
            a0 = column(w, s)[0]
            ap = (column(w + h, s)[0] - column(w - h, s)[0]) / (2 * h)
            app = (column(w + h, s)[0] - 2 * a0 + column(w - h, s)[0]) / (h * h)
            scale = max(abs(app), abs(2 * w * ap), abs(2 * n * a0), 1e-30)
            scalar["stated"] = max(scalar["stated"],
                                   abs(app - 2 * w * ap - 2 * n * a0) / scale)
            scalar["companion"] = max(scalar["companion"],
                                      abs(app + 2 * w * ap - 2 * n * a0) / scale)
    if scalar["companion"] < 1e-4 < scalar["stated"]:
        notes.append("printed alpha entries solve the companion equation "
                     "w''+2zw'-2nw=0, not the stated one")

    # elimination identity: beta = psi alpha - alpha'/(lambda eta^2)
    eta_f, _, psi_f, _ = data.functions()
    beta_rel = {"outside": 0.0, "inside": 0.0}
    for scope in beta_rel:
        worst = 0.0
        for t in (0.35, 0.7):
            w = 1.0 + t * (z - 1.0)
            col = column(w, sigma, scope)
            ap = (column(w + h, sigma, scope)[0]
                  - column(w - h, sigma, scope)[0]) / (2 * h)
            want = psi_f(w) * col[0] - ap / (lam * eta_f(w) ** 2)
            scale = max(abs(col[1]), abs(want), 1e-30)
            worst = max(worst, abs(col[1] - want) / scale)
        beta_rel[scope] = worst

    base = np.array([column(1.0, s) for s in svals]).T
    base_dev = float(np.max(np.abs(base - np.eye(2))))
    if base_dev > 1e-8:
        notes.append("closed form at the base point differs from the "
                     "identity normalization by %.3e" % base_dev)

    wcol1 = column(1.5, sigma)
    wcol2 = column(1.5, 1.0)
    wronskian = abs(wcol1[0] * wcol2[1] - wcol1[1] * wcol2[0])
    if wronskian < 1e-10:
        notes.append("closed-form columns nearly dependent at z = 1.5")

    max_dev = max(max(row) for row in deviation)
    return {
        "n": n,
        "c": [c.real, c.imag],
        "c1": [c1.real, c1.imag],
        "lambda": lam,
        "z": [z.real, z.imag],
        "sigma": [sigma.real, sigma.imag],
        "column_deviation": deviation,
        "fd_residual": fd,
        "scalar_residual": scalar,
        "beta_relation_residual": beta_rel,
        "wronskian_abs": float(wronskian),
        "base_point_deviation": base_dev,
        "max_deviation": float(max_dev),
        "pass": bool(max_dev < 1e-2),
        "notes": notes,
    }
