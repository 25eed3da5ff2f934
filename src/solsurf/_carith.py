"""Complex arithmetic on numpy arrays, rounded as CPython rounds it.

numpy's complex multiply is fused (FMA) on hardware that has it, its
division scales by a reciprocal, and its integer powers, square root and
modulus take other routes; each can move a value by an ulp against
Python's complex type and cmath.  The array closures of expr, the
vectorized erf series and the batched integrator step use these helpers
instead, so that array code returns the same bits as the scalar code
written with the same formula.  Each helper spells out
CPython's formula one rounded float operation at a time; where Python
raises ZeroDivisionError the value is NaN.  Callers suppress numpy's
floating-point warnings.

Operands may be arrays, numpy scalars or Python numbers; they broadcast.
"""

import numpy as np

__all__ = ["cabs", "cmul", "cdiv", "cpowi", "csqrt"]

_NAN = float("nan")
_DBL_MIN = np.finfo(float).tiny


def _parts(x):
    x = np.asarray(x, dtype=complex)
    return x.real, x.imag


def _pack(re, im):
    out = np.empty(np.broadcast(re, im).shape, dtype=complex)
    out.real = re
    out.imag = im
    return out


def cabs(x):
    """abs(x) as Python's complex abs computes it, hypot of the parts;
    inf where Python raises OverflowError.  np.abs on complex arrays
    rounds differently on about a third of near-unit values."""
    xr, xi = _parts(x)
    return np.hypot(xr, xi)


def cmul(x, y):
    """x * y by CPython's _Py_c_prod."""
    xr, xi = _parts(x)
    yr, yi = _parts(y)
    return _pack(xr * yr - xi * yi, xr * yi + xi * yr)


def cdiv(x, y):
    """x / y by CPython's _Py_c_quot (Smith's method, scaled by the larger
    part of the divisor); NaN where the divisor is zero."""
    ar, ai = _parts(x)
    if np.ndim(y) == 0:
        # one divisor: take its branch only
        b = complex(y)
        if b == 0.0 or b != b:
            return _pack(ar * _NAN, ai * _NAN)
        if abs(b.real) >= abs(b.imag):
            ratio = b.imag / b.real
            denom = b.real + b.imag * ratio
            return _pack((ar + ai * ratio) / denom, (ai - ar * ratio) / denom)
        ratio = b.real / b.imag
        denom = b.real * ratio + b.imag
        return _pack((ar * ratio + ai) / denom, (ai * ratio - ar) / denom)
    br, bi = _parts(y)
    by_real = np.abs(br) >= np.abs(bi)
    by_imag = np.abs(bi) > np.abs(br)
    ratio = bi / br
    denom = br + bi * ratio
    re = np.where(by_real, (ar + ai * ratio) / denom, _NAN)
    im = np.where(by_real, (ai - ar * ratio) / denom, _NAN)
    ratio = br / bi
    denom = br * ratio + bi
    re = np.where(by_imag, (ar * ratio + ai) / denom, re)
    im = np.where(by_imag, (ai * ratio - ar) / denom, im)
    zero = (br == 0.0) & (bi == 0.0)
    return _pack(np.where(zero, _NAN, re), np.where(zero, _NAN, im))


def cpowi(x, n):
    """x ** n for an integer |n| <= 100 by CPython's c_powi: binary powers
    multiplied into 1, and for n <= 0 the reciprocal of x ** -n."""
    r = np.ones(np.shape(x), dtype=complex)
    p = x
    m = abs(n)
    mask = 1
    while m >= mask:
        if m & mask:
            r = cmul(r, p)
        mask <<= 1
        if m >= mask:
            p = cmul(p, p)
    if n <= 0:
        r = cdiv(1.0 + 0.0j, r)
    return r


def csqrt(x):
    """The principal square root by CPython's cmath.sqrt, for finite x.

    numpy's sqrt rounds differently on the imaginary axis, in about half
    of the values there."""
    xr, xi = _parts(x)
    ax, ay = np.abs(xr), np.abs(xi)
    # where hypot(ax, ay) would be subnormal, cmath scales by 2^53 and
    # the root back by 2^-27
    tiny = (ax < _DBL_MIN) & (ay < _DBL_MIN)
    ax_up = np.ldexp(ax, 53)
    s = np.where(tiny,
                 np.ldexp(np.sqrt(ax_up + np.hypot(ax_up, np.ldexp(ay, 53))),
                          -27),
                 2.0 * np.sqrt(ax / 8.0 + np.hypot(ax / 8.0, ay / 8.0)))
    d = ay / (2.0 * s)
    right = xr >= 0.0
    re = np.where(right, s, d)
    im = np.copysign(np.where(right, d, s), xi)
    zero = (xr == 0.0) & (xi == 0.0)
    return _pack(np.where(zero, 0.0, re), np.where(zero, xi, im))
