"""Series evaluation of the special functions used by the explicit solutions.

Everything here is a plain power series with explicit term recurrences and
a reported truncation estimate; no asymptotic machinery.  Intended range is
desk scale (|z| of order a few), which is all the surface constructions
need.  For the error function that range is enforced (|z| <= 8).
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from ._carith import cdiv, cmul

SQRT_PI = math.sqrt(math.pi)

ERF_RADIUS = 8.0
_MAX_TERMS = 800


class OutOfRange(ValueError):
    """Argument outside the range the series is trusted on."""


class NoConvergence(ArithmeticError):
    """Series failed to meet the tolerance within the term budget."""


class PoleInParameter(ValueError):
    """Lower Kummer parameter hit a nonpositive integer."""


@dataclass(frozen=True)
class SeriesResult:
    """Value of a series together with how it was obtained.

    truncation_estimate bounds the discarded tail of the series in exact
    arithmetic; it does not account for floating-point cancellation in
    the summed terms.
    """
    value: complex
    terms_used: int
    truncation_estimate: float


def erf_series(z, tol=1e-12):
    """erf(z) for complex |z| <= 8, absolute truncation below tol.

    Two complementary expansions, both odd in z by construction:

      Re(z^2) >= 0:  erf(z) = (2/sqrt(pi)) z e^{-z^2} sum_k (2z^2)^k/(2k+1)!!
                     (all terms positive for real z; no cancellation)
      Re(z^2) <  0:  erf(z) = (2/sqrt(pi)) sum_k (-1)^k z^{2k+1}/(k! (2k+1))
                     (the e^{-z^2} prefactor would blow up instead)

    Near the diagonals Re(z^2) ~ 0 with |z| large both series lose digits
    to roundoff; the truncation estimate still refers to the exact tail.
    """
    z = complex(z)
    if abs(z) > ERF_RADIUS:
        raise OutOfRange("erf series trusted only for |z| <= %g, got |z| = %g"
                         % (ERF_RADIUS, abs(z)))
    z2 = z * z
    if z2.real >= 0.0:
        return _erf_scaled(z, z2, tol)
    return _erf_maclaurin(z, z2, tol)


def _erf_scaled(z, z2, tol):
    # sum_k (2z^2)^k / (3*5*...*(2k+1)), prefactor (2/sqrt(pi)) z e^{-z^2}
    pref = (2.0 / SQRT_PI) * z * cmath.exp(-z2)
    w = 2.0 * z2
    term = 1.0 + 0.0j
    total = term
    k = 0
    while k < _MAX_TERMS:
        k += 1
        term = term * w / (2 * k + 1)
        total += term
        ratio = abs(w) / (2 * k + 3)
        if ratio < 1.0:
            tail = abs(term) * ratio / (1.0 - ratio)
            if abs(pref) * tail <= 0.5 * tol:
                return SeriesResult(pref * total, k + 1, abs(pref) * tail)
    raise NoConvergence("erf series: %d terms without reaching tol %g" % (_MAX_TERMS, tol))


def _erf_maclaurin(z, z2, tol):
    # sum_k (-1)^k z^{2k+1} / (k! (2k+1)), prefactor 2/sqrt(pi)
    pref = 2.0 / SQRT_PI
    term = z          # k = 0 term
    total = term
    power = z         # z^{2k+1} / k!
    k = 0
    while k < _MAX_TERMS:
        k += 1
        power = power * (-z2) / k
        term = power / (2 * k + 1)
        total += term
        # alternating-type bound once the terms decay: tail <= next term
        nxt = abs(power) * abs(z2) / ((k + 1) * (2 * k + 3))
        if nxt < abs(term) and pref * nxt <= 0.5 * tol:
            return SeriesResult(pref * total, k + 1, pref * nxt)
    raise NoConvergence("erf series: %d terms without reaching tol %g" % (_MAX_TERMS, tol))


def erf_c(z, tol=1e-12):
    """Value-only convenience wrapper around erf_series."""
    return erf_series(z, tol=tol).value


def erf_array(z, tol=1e-12):
    """erf_c over an array, element by element; NaN where erf_c raises.

    The same two series, term recurrences and stopping rules as
    erf_series, with every complex product and quotient rounded as Python
    rounds it (see _carith), so each element equals erf_c at that point
    bit for bit.  Each element's value is taken in the term where its own
    series stops.  NaN marks |z| > 8, a non-finite argument, or no convergence within
    the term budget.
    """
    z = np.asarray(z, dtype=complex)
    flat = z.ravel()
    out = np.full(flat.shape, complex(math.nan, math.nan))
    with np.errstate(all="ignore"):
        z2 = cmul(flat, flat)
        ok = np.isfinite(flat) & (np.hypot(flat.real, flat.imag) <= ERF_RADIUS)
        scaled = z2.real >= 0.0
        for sel, series in ((ok & scaled, _erf_scaled_array),
                            (ok & ~scaled, _erf_maclaurin_array)):
            idx = np.flatnonzero(sel)
            if idx.size:
                out[idx] = series(flat[idx], z2[idx], tol)
    return out.reshape(z.shape)


def _abs(x):
    return np.hypot(x.real, x.imag)


def _erf_scaled_array(z, z2, tol):
    # _erf_scaled on each element; an element's value is taken when its
    # own stopping rule first holds
    out = np.full(z.shape, complex(math.nan, math.nan))
    pending = np.ones(z.shape, dtype=bool)
    pref = cmul(cmul(2.0 / SQRT_PI, z), np.exp(-z2))
    w = cmul(2.0, z2)
    term = np.ones(z.shape, dtype=complex)
    total = term
    apref = _abs(pref)
    aw = _abs(w)
    for k in range(1, _MAX_TERMS + 1):
        term = cdiv(cmul(term, w), 2 * k + 1)
        total = total + term
        ratio = aw / (2 * k + 3)
        tail = _abs(term) * ratio / (1.0 - ratio)
        done = pending & (ratio < 1.0) & (apref * tail <= 0.5 * tol)
        if done.any():
            out[done] = cmul(pref[done], total[done])
            pending &= ~done
            if not pending.any():
                break
    return out


def _erf_maclaurin_array(z, z2, tol):
    # _erf_maclaurin on each element, as _erf_scaled_array
    out = np.full(z.shape, complex(math.nan, math.nan))
    pending = np.ones(z.shape, dtype=bool)
    pref = 2.0 / SQRT_PI
    total = z
    power = z
    mz2 = -z2
    az2 = _abs(z2)
    for k in range(1, _MAX_TERMS + 1):
        power = cdiv(cmul(power, mz2), k)
        term = cdiv(power, 2 * k + 1)
        total = total + term
        nxt = _abs(power) * az2 / ((k + 1) * (2 * k + 3))
        done = pending & (nxt < _abs(term)) & (pref * nxt <= 0.5 * tol)
        if done.any():
            out[done] = cmul(pref, total[done])
            pending &= ~done
            if not pending.any():
                break
    return out


def kummer_series(a, b, z, tol=1e-12, max_terms=_MAX_TERMS):
    """Confluent hypergeometric 1F1(a; b; z) by its Taylor series.

    Terms follow t_{k+1} = t_k (a+k)/(b+k) z/(k+1), t_0 = 1.  Terminates
    exactly when a is a nonpositive integer.  Raises PoleInParameter when
    b is a nonpositive integer (the series has a pole there) and
    NoConvergence if two consecutive below-tolerance terms are not found
    within max_terms.
    """
    a = complex(a)
    b = complex(b)
    z = complex(z)
    if b.imag == 0.0 and b.real <= 0.0 and b.real == round(b.real):
        raise PoleInParameter("lower parameter b = %r is a nonpositive integer" % (b,))
    term = 1.0 + 0.0j
    total = term
    small_streak = 0
    for k in range(max_terms):
        term = term * (a + k) / (b + k) * z / (k + 1)
        total += term
        if term == 0.0:
            # polynomial case, sum is exact
            return SeriesResult(total, k + 2, 0.0)
        if abs(term) <= 0.5 * tol * max(1.0, abs(total)):
            small_streak += 1
            if small_streak >= 2:
                return SeriesResult(total, k + 2, 2.0 * abs(term))
        else:
            small_streak = 0
    raise NoConvergence("1F1 series: %d terms without reaching tol %g" % (max_terms, tol))


def kummer_c(a, b, z, tol=1e-12):
    """Value-only convenience wrapper around kummer_series."""
    return kummer_series(a, b, z, tol=tol).value


def gamma_half(k):
    """Gamma(k/2) for a positive integer k, by the recurrence from
    Gamma(1/2) = sqrt(pi) and Gamma(1) = 1.  Only these half-integer
    values are ever needed here."""
    if k != int(k) or k < 1:
        raise ValueError("gamma_half wants a positive integer, got %r" % (k,))
    k = int(k)
    if k == 1:
        return SQRT_PI
    if k == 2:
        return 1.0
    return (0.5 * k - 1.0) * gamma_half(k - 2)


def hermite_h(nu, z, tol=1e-10):
    """Hermite function H_nu(z) for integer nu (negative allowed).

    nu >= 0 uses the three-term recurrence H_{n+1} = 2z H_n - 2n H_{n-1}.
    nu < 0 uses the confluent-hypergeometric representation

      H_nu(z) = 2^nu sqrt(pi) [ 1F1(-nu/2; 1/2; z^2) / Gamma((1-nu)/2)
                  - 2z 1F1((1-nu)/2; 3/2; z^2) / Gamma(-nu/2) ]

    whose Gamma arguments are positive half-integers for every nu < 0.
    """
    if nu != int(nu):
        raise ValueError("integer order required, got %r" % (nu,))
    nu = int(nu)
    z = complex(z)
    if nu >= 0:
        h_prev = 1.0 + 0.0j
        if nu == 0:
            return h_prev
        h = 2.0 * z
        for n in range(1, nu):
            h, h_prev = 2.0 * z * h - 2.0 * n * h_prev, h
        return h
    z2 = z * z
    t1 = kummer_c(-0.5 * nu, 0.5, z2, tol=tol) / gamma_half(1 - nu)
    t2 = kummer_c(0.5 * (1 - nu), 1.5, z2, tol=tol) / gamma_half(-nu)
    return (2.0 ** nu) * SQRT_PI * (t1 - 2.0 * z * t2)
