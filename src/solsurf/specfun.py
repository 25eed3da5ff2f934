"""Series evaluation of the special functions used by the explicit solutions.

Everything here is a plain power series with explicit term recurrences and
a reported truncation estimate; no asymptotic machinery.  Intended range is
desk scale (|z| of order a few), which is all the surface constructions
need.  For the error function that range is enforced (|z| <= 8).

The two erf series are summed by Horner's rule to a degree fixed per point
before the sum starts.  The scalar and the array form read that degree
from one table per series, keyed only by the point's own magnitudes and
filled on demand: an entry is the first term at which the series'
stopping rule holds with the magnitudes at the upper edge of the entry's
bin.  The rule is monotone in them, so the truncation bound holds at
every point of the bin, and a point's series and degree never depend on
the other points of an array (its value can, at rounding level; see
erf_array).  An erf SeriesResult's truncation_estimate is that tail
bound at the point itself, for the degree the table gave.
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

# the degree tables' bins: |2z^2| (scaled series) and |z^2| (Maclaurin
# series) on a grid of width pi/16, and the binary exponent of the scaled
# series' prefactor from frexp, clamped from below.  The sum jumps by up
# to the tolerance where a point's degree changes, and a finite difference
# across a bin edge reads that jump: a width of pi/16 keeps the edges off
# the round values of |z|^2 that points are usually picked at (z = 1, 0.5
# and 0.3+0.4i lie on edges of a grid of width 1/4).  For |z| <= 8 the
# prefactor (2/sqrt(pi)) |z| e^{-Re z^2} stays below 2^97
_BINS_PER_UNIT = 16.0 / math.pi
_PREF_EXP_MIN, _PREF_EXP_MAX = -100, 97


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

    Each is summed by Horner's rule to a degree n fixed before the sum
    from a bound: the degree table of its series, shared with erf_array,
    gives the first n at which the tail bound (the geometric bound on the
    scaled series, the next term on the Maclaurin series) falls to
    0.5e-12 with |z^2| and the prefactor at the upper edges of their
    bins.  truncation_estimate is that tail bound at z itself, and
    terms_used is n + 1.

    Near the diagonals Re(z^2) ~ 0 with |z| large both series cancel: their
    terms grow far beyond the sum.  The rounding scale of the summed series,
    eps |prefactor| sum_k |term_k|, is compared with 1e-12 max(1, |value|);
    where it is larger the other series is summed instead, and OutOfRange
    is raised where both refuse.  Below it, the truncation estimate refers
    to the exact tail.  A NaN argument raises NoConvergence.
    """
    z = complex(z)
    if abs(z) > ERF_RADIUS:
        raise OutOfRange("erf series trusted only for |z| <= %g, got |z| = %g"
                         % (ERF_RADIUS, abs(z)))
    if cmath.isnan(z):
        raise NoConvergence("erf series: no tail bound holds at z = %r" % (z,))
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


class _DegreeTable:
    """The summation degree of one erf series for each bin of a point's
    magnitudes, filled on demand.

    An entry is the first k >= 1 at which the series' stopping rule holds
    with the magnitudes at the bin's upper edge, or _MAX_TERMS + 1 where
    it does not hold within the term budget; 0 marks an entry not yet
    computed.  The rule only gets harder to meet as the magnitudes grow,
    so every point of the bin meets it by that k.  The first index is the
    bin of |z^2|; the table grows to the largest one asked for.  An entry
    depends on its key alone, so one table serves every caller.
    """

    def __init__(self, columns, rule):
        self._rule = rule
        self._deg = np.zeros((0,) + columns, dtype=np.int16)

    def lookup(self, index):
        """The degrees at a tuple of integer index arrays."""
        table = self._deg
        rows = int(index[0].max()) + 1
        if rows > len(table):
            table = np.concatenate([table, np.zeros(
                (rows - len(table),) + table.shape[1:], dtype=np.int16)])
            self._deg = table
        deg = table[index]
        new = deg == 0
        if new.any():
            mark = np.zeros(table.shape, dtype=bool)
            mark[tuple(i[new] for i in index)] = True
            keys = np.nonzero(mark)
            with np.errstate(all="ignore"):
                table[keys] = self._rule(*keys)
            deg = table[index]
        return deg

    def degree(self, index):
        """The degree at one tuple of integer indices."""
        table = self._deg
        if index[0] < len(table) and table[index]:
            return int(table[index])
        return int(self.lookup(tuple(np.array([i]) for i in index))[0])


def _scaled_stop(iw, ie):
    # the scaled series' stopping rule on bins (iw, ie): the geometric
    # bound on the tail after term k, |pref| |w|^k/(2k+1)!! rho/(1 - rho)
    # with rho = |w|/(2k+3) < 1, at most 0.5e-12
    aw = iw / _BINS_PER_UNIT
    apref = np.ldexp(1.0, ie + _PREF_EXP_MIN)
    stop = np.full(aw.shape, _MAX_TERMS + 1)
    term = np.ones(aw.shape)
    for k in range(1, _MAX_TERMS + 1):
        term = term * aw / (2 * k + 1)
        ratio = aw / (2 * k + 3)
        tail = term * ratio / (1.0 - ratio)
        stop[(stop > _MAX_TERMS) & (ratio < 1.0)
             & (apref * tail <= 0.5 * _ERF_TOL)] = k
        if (stop <= _MAX_TERMS).all():
            break
    return stop


def _maclaurin_stop(iz):
    # the Maclaurin series' stopping rule on bins iz of |z^2|: the next
    # term, (2/sqrt(pi)) |z|^{2k+3}/((k+1)! (2k+3)), below term k and at
    # most 0.5e-12
    az2 = iz / _BINS_PER_UNIT
    stop = np.full(az2.shape, _MAX_TERMS + 1)
    power = np.sqrt(az2)          # |z|^{2k+1} / k!
    for k in range(1, _MAX_TERMS + 1):
        power = power * az2 / k
        term = power / (2 * k + 1)
        nxt = power * az2 / ((k + 1) * (2 * k + 3))
        stop[(stop > _MAX_TERMS) & (nxt < term)
             & (2.0 / SQRT_PI * nxt <= 0.5 * _ERF_TOL)] = k
        if (stop <= _MAX_TERMS).all():
            break
    return stop


_SCALED = _DegreeTable((_PREF_EXP_MAX - _PREF_EXP_MIN + 1,), _scaled_stop)
_MACLAURIN = _DegreeTable((), _maclaurin_stop)


def _scaled_degree(aw, apref):
    # the scaled series' degree at |w| = |2z^2| and |pref|
    ie = max(math.frexp(apref)[1], _PREF_EXP_MIN) - _PREF_EXP_MIN
    return _SCALED.degree((math.ceil(aw * _BINS_PER_UNIT), ie))


def _scaled_degrees(aw, apref):
    # _scaled_degree over arrays
    ie = np.maximum(np.frexp(apref)[1], _PREF_EXP_MIN) - _PREF_EXP_MIN
    return _SCALED.lookup((np.ceil(aw * _BINS_PER_UNIT).astype(np.intp), ie))


def _maclaurin_degree(az2):
    # the Maclaurin series' degree at |z^2|
    return _MACLAURIN.degree((math.ceil(az2 * _BINS_PER_UNIT),))


def _maclaurin_degrees(az2):
    # _maclaurin_degree over arrays
    return _MACLAURIN.lookup((np.ceil(az2 * _BINS_PER_UNIT).astype(np.intp),))


def _no_convergence():
    return NoConvergence("erf series: %d terms without reaching tol %g"
                         % (_MAX_TERMS, _ERF_TOL))


def _erf_scaled(z, z2):
    # sum_k (2z^2)^k / (3*5*...*(2k+1)), prefactor (2/sqrt(pi)) z e^{-z^2}
    pref = (2.0 / SQRT_PI) * z * cmath.exp(-z2)
    w = 2.0 * z2
    aw = abs(w)
    apref = abs(pref)
    n = _scaled_degree(aw, apref)
    if n > _MAX_TERMS:
        raise _no_convergence()
    total = 1.0 + 0.0j
    mass = 1.0        # sum of the term magnitudes
    term = 1.0        # |w|^n / (2n+1)!!
    for k in range(n, 0, -1):
        f = 1.0 / (2 * k + 1)        # _scaled_factor(k)
        total = total * w * f + 1.0
        mass = mass * aw * f + 1.0
        term *= aw * f
    ratio = aw / (2 * n + 3)
    return _rounded(z, pref * total, apref * mass, n + 1,
                    apref * term * ratio / (1.0 - ratio))


def _erf_maclaurin(z, z2):
    # sum_k (-1)^k z^{2k+1} / (k! (2k+1)), prefactor 2/sqrt(pi)
    pref = 2.0 / SQRT_PI
    v = -z2
    az2 = abs(z2)
    n = _maclaurin_degree(az2)
    if n > _MAX_TERMS:
        raise _no_convergence()
    total = 1.0 + 0.0j
    mass = 1.0        # sum of the term magnitudes over |z|
    power = 1.0       # |z^2|^n / n!
    for k in range(n, 0, -1):
        f = (2 * k - 1) / (k * (2 * k + 1))        # _maclaurin_factor(k)
        total = total * v * f + 1.0
        mass = mass * az2 * f + 1.0
        power *= az2 / k
    az = abs(z)
    # the next term bounds the tail once the terms decay
    nxt = az * power * az2 / ((n + 1) * (2 * n + 3))
    return _rounded(z, pref * (z * total), pref * (az * mass), n + 1,
                    pref * nxt)


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

    The same two series, degree tables, Horner sums, rounding check and
    fallback to the other series as erf_series, with numpy's complex
    arithmetic, so each element agrees with erf_c at that point to
    rounding.  Each element's series and degree depend on that element
    alone; its value matches erf_array of the element alone to about
    1e-15 relative, as numpy may round it by its place in the array.
    NaN marks |z| > 8, a non-finite argument, a sum that both series
    cancel beyond 1e-12, or no convergence within the term budget.
    """
    z = np.asarray(z, dtype=complex)
    flat = z.ravel()
    out = np.full(flat.shape, complex(math.nan, math.nan))
    with np.errstate(all="ignore"):
        z2 = flat * flat
        ok = np.abs(flat) <= ERF_RADIUS     # False at NaN and infinities
        scaled = z2.real >= 0.0
        picks = (np.flatnonzero(ok & scaled), np.flatnonzero(ok & ~scaled))
        series = (_erf_scaled_array, _erf_maclaurin_array)
        for idx, first in zip(picks, series):
            if idx.size:
                out[idx] = first(flat[idx], z2[idx])
        # the other series, where the first one refused
        for idx, other in zip(picks, series[::-1]):
            idx = idx[np.isnan(out[idx])]
            if idx.size:
                out[idx] = other(flat[idx], z2[idx])
    return out.reshape(z.shape)


def _rounded_array(value, bound, mass, deg):
    # _rounded over arrays, and NaN beyond the term budget.  bound bounds
    # the prefactor times the sum of the term magnitudes from above; that
    # product itself, mass(idx) at elements idx, is summed only where
    # bound comes within a factor 2 of the rounding check's limit
    limit = _ERF_TOL * np.maximum(1.0, np.abs(value))
    lost = deg > _MAX_TERMS
    near = np.flatnonzero(_EPS * bound > 0.5 * limit)
    if near.size:
        lost[near] |= _EPS * mass(near) > limit[near]
    return np.where(lost, complex(math.nan, math.nan), value)


def _horner_array(v, deg, factor):
    """Per element, 1 + v f(1) (1 + v f(2) (... (1 + v f(n)))) to the
    element's own degree n, by Horner's rule.  The elements run in order
    of falling degree, so that each level updates a leading slice."""
    order = np.argsort(-deg, kind="stable")
    v = v[order]
    # active[k]: the number of elements of degree k or more
    active = np.cumsum(np.bincount(deg)[::-1])[::-1]
    acc = np.ones_like(v)
    for k in range(len(active) - 1, 0, -1):
        a = acc[:active[k]]
        np.multiply(a, v[:active[k]], out=a)
        a *= factor(k)
        a += 1.0
    out = np.empty_like(acc)
    out[order] = acc
    return out


def _scaled_factor(k):
    return 1.0 / (2 * k + 1)


def _maclaurin_factor(k):
    return (2 * k - 1) / (k * (2 * k + 1))


def _erf_scaled_array(z, z2):
    # _erf_scaled on each element
    pref = 2.0 / SQRT_PI * z * np.exp(-z2)
    w = 2.0 * z2
    aw = np.abs(w)
    apref = np.abs(pref)
    deg = _scaled_degrees(aw, apref)
    value = pref * _horner_array(w, deg, _scaled_factor)

    def mass(idx):
        return apref[idx] * _horner_array(aw[idx], deg[idx], _scaled_factor)

    # over all k, |pref| sum_k |w|^k/(2k+1)!! is e^{2 (Im z)^2} erf(|z|)
    return _rounded_array(value, np.exp(2.0 * z.imag ** 2), mass, deg)


def _erf_maclaurin_array(z, z2):
    # _erf_maclaurin on each element
    pref = 2.0 / SQRT_PI
    az = np.abs(z)
    az2 = np.abs(z2)
    deg = _maclaurin_degrees(az2)
    value = pref * (z * _horner_array(-z2, deg, _maclaurin_factor))

    def mass(idx):
        return pref * (az[idx] * _horner_array(az2[idx], deg[idx],
                                               _maclaurin_factor))

    # over all k, pref sum_k |z|^{2k+1}/(k! (2k+1)) <= pref |z| e^{|z|^2}
    return _rounded_array(value, pref * az * np.exp(az2), mass, deg)


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
