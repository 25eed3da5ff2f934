"""Series evaluation of the special functions used by the explicit solutions.

Everything here is a plain power series with explicit term recurrences and
a reported truncation estimate; no asymptotic machinery.  Intended range is
desk scale (|z| of order a few), which is all the surface constructions
need.  For the error function that range is enforced (|z| <= 8).
"""

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

SQRT_PI = math.sqrt(math.pi)
_EPS = sys.float_info.epsilon

ERF_RADIUS = 8.0
_MAX_TERMS = 800
# absolute truncation tolerance of the erf series
_ERF_TOL = 1e-12


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


def erf_series(z):
    """erf(z) for complex |z| <= 8, absolute truncation below 1e-12.

    Two complementary expansions, both odd in z by construction:

      Re(z^2) >= 0:  erf(z) = (2/sqrt(pi)) z e^{-z^2} sum_k (2z^2)^k/(2k+1)!!
                     (all terms positive for real z; no cancellation)
      Re(z^2) <  0:  erf(z) = (2/sqrt(pi)) sum_k (-1)^k z^{2k+1}/(k! (2k+1))
                     (the e^{-z^2} prefactor would blow up instead)

    Near the diagonals Re(z^2) ~ 0 with |z| large both series cancel: their
    terms grow far beyond the sum.  The rounding scale of the summed series,
    eps |prefactor| sum_k |term_k|, is compared with 1e-12 max(1, |value|);
    where it is larger the other series is summed instead, and OutOfRange
    is raised where both refuse.  Below it, the truncation estimate refers
    to the exact tail.
    """
    z = complex(z)
    if abs(z) > ERF_RADIUS:
        raise OutOfRange("erf series trusted only for |z| <= %g, got |z| = %g"
                         % (ERF_RADIUS, abs(z)))
    z2 = z * z
    first, other = _erf_scaled, _erf_maclaurin
    if z2.real < 0.0:
        first, other = other, first
    try:
        return first(z, z2)
    except (OutOfRange, NoConvergence) as exc:
        try:
            return other(z, z2)
        except (OutOfRange, NoConvergence):
            raise exc from None


def _erf_scaled(z, z2):
    # sum_k (2z^2)^k / (3*5*...*(2k+1)), prefactor (2/sqrt(pi)) z e^{-z^2}
    pref = (2.0 / SQRT_PI) * z * cmath.exp(-z2)
    w = 2.0 * z2
    term = 1.0 + 0.0j
    total = term
    mass = 1.0        # sum of the term magnitudes
    k = 0
    while k < _MAX_TERMS:
        k += 1
        term = term * w / (2 * k + 1)
        total += term
        mass += abs(term)
        ratio = abs(w) / (2 * k + 3)
        if ratio < 1.0:
            tail = abs(term) * ratio / (1.0 - ratio)
            if abs(pref) * tail <= 0.5 * _ERF_TOL:
                return _rounded(z, pref * total, abs(pref) * mass, k + 1,
                                abs(pref) * tail)
    raise NoConvergence("erf series: %d terms without reaching tol %g" % (_MAX_TERMS, _ERF_TOL))


def _erf_maclaurin(z, z2):
    # sum_k (-1)^k z^{2k+1} / (k! (2k+1)), prefactor 2/sqrt(pi)
    pref = 2.0 / SQRT_PI
    term = z          # k = 0 term
    total = term
    mass = abs(z)     # sum of the term magnitudes
    power = z         # z^{2k+1} / k!
    k = 0
    while k < _MAX_TERMS:
        k += 1
        power = power * (-z2) / k
        term = power / (2 * k + 1)
        total += term
        mass += abs(term)
        # alternating-type bound once the terms decay: tail <= next term
        nxt = abs(power) * abs(z2) / ((k + 1) * (2 * k + 3))
        if nxt < abs(term) and pref * nxt <= 0.5 * _ERF_TOL:
            return _rounded(z, pref * total, pref * mass, k + 1, pref * nxt)
    raise NoConvergence("erf series: %d terms without reaching tol %g" % (_MAX_TERMS, _ERF_TOL))


def _rounded(z, value, mass, terms, tail):
    # the series result, unless its rounding scale eps * mass (mass the
    # prefactor times the sum of the term magnitudes) exceeds the tolerance
    if _EPS * mass > _ERF_TOL * max(1.0, abs(value)):
        raise OutOfRange("erf series at z = %r cancels beyond tol %g: term "
                         "magnitudes sum to %.3g against a value of %.3g"
                         % (z, _ERF_TOL, mass, abs(value)))
    return SeriesResult(value, terms, tail)


def erf_c(z):
    """Value-only convenience wrapper around erf_series."""
    return erf_series(z).value


def erf_array(z):
    """erf_c over an array, element by element; NaN where erf_c raises.

    The same two series, term recurrences, stopping rules, rounding check
    and fallback to the other series as erf_series, with numpy's complex
    arithmetic, so each element agrees with erf_c at that point to
    rounding.  Each element's value is taken in the term where its own
    series stops.  NaN marks |z| > 8, a non-finite argument, a sum that
    both series cancel beyond 1e-12, or no convergence within the term
    budget.
    """
    z = np.asarray(z, dtype=complex)
    flat = z.ravel()
    out = np.full(flat.shape, complex(math.nan, math.nan))
    with np.errstate(all="ignore"):
        z2 = flat * flat
        ok = np.isfinite(flat) & (np.abs(flat) <= ERF_RADIUS)
        scaled = z2.real >= 0.0
        # each element's first series, then the other one where that left NaN
        for first in (True, False):
            for sel, series in ((scaled == first, _erf_scaled_array),
                                (scaled != first, _erf_maclaurin_array)):
                idx = np.flatnonzero(ok & sel & np.isnan(out))
                if idx.size:
                    out[idx] = series(flat[idx], z2[idx])
    return out.reshape(z.shape)


def _rounded_array(value, mass):
    # _rounded over arrays: NaN where the rounding scale exceeds _ERF_TOL
    lost = _EPS * mass > _ERF_TOL * np.maximum(1.0, np.abs(value))
    return np.where(lost, complex(math.nan, math.nan), value)


def _erf_scaled_array(z, z2):
    # _erf_scaled on each element; an element's value is taken when its
    # own stopping rule first holds
    out = np.full(z.shape, complex(math.nan, math.nan))
    pending = np.ones(z.shape, dtype=bool)
    pref = 2.0 / SQRT_PI * z * np.exp(-z2)
    w = 2.0 * z2
    term = np.ones(z.shape, dtype=complex)
    total = term
    mass = np.ones(z.shape)
    apref = np.abs(pref)
    aw = np.abs(w)
    for k in range(1, _MAX_TERMS + 1):
        term = term * w / (2 * k + 1)
        total = total + term
        aterm = np.abs(term)
        mass = mass + aterm
        ratio = aw / (2 * k + 3)
        tail = aterm * ratio / (1.0 - ratio)
        done = pending & (ratio < 1.0) & (apref * tail <= 0.5 * _ERF_TOL)
        if done.any():
            out[done] = _rounded_array(pref[done] * total[done],
                                       apref[done] * mass[done])
            pending &= ~done
            if not pending.any():
                break
    return out


def _erf_maclaurin_array(z, z2):
    # _erf_maclaurin on each element, as _erf_scaled_array
    out = np.full(z.shape, complex(math.nan, math.nan))
    pending = np.ones(z.shape, dtype=bool)
    pref = 2.0 / SQRT_PI
    total = z
    mass = np.abs(z)
    power = z
    mz2 = -z2
    az2 = np.abs(z2)
    for k in range(1, _MAX_TERMS + 1):
        power = power * mz2 / k
        term = power / (2 * k + 1)
        total = total + term
        aterm = np.abs(term)
        mass = mass + aterm
        nxt = np.abs(power) * az2 / ((k + 1) * (2 * k + 3))
        done = pending & (nxt < aterm) & (pref * nxt <= 0.5 * _ERF_TOL)
        if done.any():
            out[done] = _rounded_array(pref * total[done], pref * mass[done])
            pending &= ~done
            if not pending.any():
                break
    return out


def kummer_series(a, b, z, tol=1e-12):
    """Confluent hypergeometric 1F1(a; b; z) by its Taylor series.

    Terms follow t_{k+1} = t_k (a+k)/(b+k) z/(k+1), t_0 = 1.  Terminates
    exactly when a is a nonpositive integer.  Raises PoleInParameter when
    b is a nonpositive integer (the series has a pole there) and
    NoConvergence if two consecutive below-tolerance terms are not found
    within 800 terms.
    """
    a = complex(a)
    b = complex(b)
    z = complex(z)
    if b.imag == 0.0 and b.real <= 0.0 and b.real == round(b.real):
        raise PoleInParameter("lower parameter b = %r is a nonpositive integer" % (b,))
    term = 1.0 + 0.0j
    total = term
    small_streak = 0
    for k in range(_MAX_TERMS):
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
    raise NoConvergence("1F1 series: %d terms without reaching tol %g" % (_MAX_TERMS, tol))


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


def hermite_h(nu, z):
    """Hermite function H_nu(z) for integer nu (negative allowed).

    nu >= 0 uses the three-term recurrence H_{n+1} = 2z H_n - 2n H_{n-1}.
    nu < 0 uses the confluent-hypergeometric representation

      H_nu(z) = 2^nu sqrt(pi) [ 1F1(-nu/2; 1/2; z^2) / Gamma((1-nu)/2)
                  - 2z 1F1((1-nu)/2; 3/2; z^2) / Gamma(-nu/2) ]

    whose Gamma arguments are positive half-integers for every nu < 0;
    both 1F1 series run to tol 1e-10.
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
    t1 = kummer_c(-0.5 * nu, 0.5, z2, tol=1e-10) / gamma_half(1 - nu)
    t2 = kummer_c(0.5 * (1 - nu), 1.5, z2, tol=1e-10) / gamma_half(-nu)
    return (2.0 ** nu) * SQRT_PI * (t1 - 2.0 * z * t2)
