"""Quadrature helpers shared by the integrators.

adaptive_gl_batch is the one adaptive rule, on QUADPACK's Gauss-Kronrod
(7, 15) pair: it integrates many straight segments at once, with one call
of the integrand per round over the open intervals of all of them.
adaptive_gl is the same rule on one segment, with an integrand called one
point at a time.

Also the spectral antiderivative matrix: given values of f at the
n Legendre nodes on [-1, 1], S @ f approximates int_{-1}^{x_m} f for
every node x_m, exactly whenever f is a polynomial of degree < n.  That
is what makes iterated (Picard) integrals affordable: each level is one
matrix product instead of a nested quadrature.
"""

import numpy as np

__all__ = ["QuadratureFailure", "gl_nodes", "integration_matrix", "adaptive_gl",
           "adaptive_gl_batch"]


class QuadratureFailure(ArithmeticError):
    """Adaptive quadrature exhausted its depth without meeting tolerance."""


# QUADPACK's qk15 constants (Piessens et al. 1983), written out so that
# the rule costs no import of numpy.polynomial: the nonnegative nodes from
# 1 down to 0, each with its K15 weight and its G7 weight (0 where G7 has
# no node)
_K15_HALF = np.array([
    (0.9914553711208126, 0.022935322010529224, 0.0),
    (0.9491079123427585, 0.06309209262997856, 0.1294849661688697),
    (0.8648644233597691, 0.10479001032225019, 0.0),
    (0.7415311855993945, 0.14065325971552592, 0.27970539148927664),
    (0.5860872354676911, 0.1690047266392679, 0.0),
    (0.4058451513773972, 0.19035057806478542, 0.3818300505051189),
    (0.20778495500789848, 0.20443294007529889, 0.0),
    (0.0, 0.20948214108472782, 0.4179591836734694)])
# the 15 nodes from -1 to 1, and the weights as the rows K15, G7
_KRONROD_X = np.concatenate([-_K15_HALF[:-1, 0], _K15_HALF[::-1, 0]])
_KRONROD_W = np.concatenate([_K15_HALF[:-1, 1:], _K15_HALF[::-1, 1:]]).T.copy()
_EPS = np.finfo(float).eps
_NODE_CACHE = {}
_MATRIX_CACHE = {}


def gl_nodes(n):
    """Gauss-Legendre nodes and weights on [-1, 1], cached."""
    if n not in _NODE_CACHE:
        _NODE_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _NODE_CACHE[n]


def _legendre_values(nmax, x):
    # P[i, m] = P_i(x_m) for i = 0..nmax by the three-term recurrence
    p = np.empty((nmax + 1, x.size))
    p[0] = 1.0
    if nmax >= 1:
        p[1] = x
    for i in range(1, nmax):
        p[i + 1] = ((2 * i + 1) * x * p[i] - i * p[i - 1]) / (i + 1)
    return p


def integration_matrix(n):
    """(nodes, weights, S) with S[m, j] the antiderivative-from--1 weights.

    Built by expanding the node interpolant in Legendre polynomials and
    integrating term by term: int P_i = (P_{i+1} - P_{i-1})/(2i+1) for
    i >= 1 and int P_0 = P_1 + P_0, all vanishing at x = -1.
    """
    if n in _MATRIX_CACHE:
        return _MATRIX_CACHE[n]
    x, w = gl_nodes(n)
    p = _legendre_values(n, x)
    # coefficient extraction: c_i = (2i+1)/2 sum_m w_m P_i(x_m) f_m
    coef = ((2.0 * np.arange(n) + 1.0) / 2.0)[:, None] * p[:n] * w[None, :]
    anti = np.empty((n, n))
    anti[0] = p[1] + 1.0
    for i in range(1, n):
        anti[i] = (p[i + 1] - p[i - 1]) / (2 * i + 1)
    s = anti.T @ coef
    _MATRIX_CACHE[n] = (x, w, s)
    return _MATRIX_CACHE[n]


def _kronrod(f, starts, ends):
    """(K15, G7, floor) on each interval starts[k] -> ends[k], from one
    call of f at the 15 nodes of all of them.

    The nodes are laid out node-major, and each rule sums its weighted
    values down the node axis in node order by elementwise operations, so
    an interval's value does not depend on the batch around it, nor on
    the BLAS or SIMD kernels at hand.  floor is the rounding the K15 sum
    carries, eps |half| sum_m w_m (|Re f_m| + |Im f_m|), per value entry.
    """
    half = 0.5 * (ends - starts)
    nodes = 0.5 * (starts + ends) + half * _KRONROD_X[:, None]
    vals = np.asarray(f(nodes.ravel()), dtype=complex)
    shape = half.shape + vals.shape[1:]
    # real and imaginary parts side by side: never one column, which
    # numpy would sum pairwise
    parts = np.ascontiguousarray(vals.reshape(len(_KRONROD_X), -1)).view(float)
    terms = _KRONROD_W[0][:, None] * parts
    kron = np.add.reduce(terms, axis=0)
    gauss = np.add.reduce(_KRONROD_W[1][1::2, None] * parts[1::2], axis=0)
    mass = np.add.reduce(np.abs(terms, out=terms), axis=0)
    scale = half.reshape((-1,) + (1,) * (len(shape) - 1))
    kron, gauss = (r.view(complex).reshape(shape) * scale for r in (kron, gauss))
    floor = (mass[0::2] + mass[1::2]).reshape(shape) * (_EPS * np.abs(scale))
    return kron, gauss, floor


def _per_interval(a):
    # one row per interval, the value axes flattened
    return a.reshape(len(a), -1)


# Open intervals a segment advances per round, its leftmost ones.  A
# segment that cannot meet its tolerance (below the rounding floor, say)
# then fails within about _MAX_DEPTH rounds of at most this many intervals,
# as a depth-first recursion fails down its leftmost path, instead of
# splitting all 2**_MAX_DEPTH intervals of its last level first.
_OPEN_PER_SEGMENT = 16

# the bisections a segment may take
_MAX_DEPTH = 24


def _worst(err, floor):
    # an interval's error estimate: its largest entry, none below the floor
    return _per_interval(np.maximum(err, floor)).max(axis=1)


def adaptive_gl_batch(f, a, b, tol=1e-10):
    """Integrals of f along the K straight segments a[k] -> b[k].

    f maps a 1-D complex array of points to their values, one row per
    point (shape (m,) or (m, d)).  Its result is read before its next
    call and never written, so it may be a view into a buffer that f
    reuses from call to call.  Each segment follows one rule.  The whole
    segment is accepted at K15 when |K15 - G7| is at most tol, at 15
    points.  Otherwise K15 is its whole-interval rule, and from there an
    interval's K15 is compared with the summed K15 of its halves; the
    interval is accepted when the largest difference is at most its
    tolerance share, and otherwise split, each half taking half the
    tolerance and one less depth.  No estimate reads below the rounding
    floor of the rules it compares, so a tolerance under that floor is
    never met by luck.  A segment fails when the summed rule on an
    interval's halves is not finite, or an interval at depth 0 still
    misses its share.

    Open intervals advance together in bisection rounds, one call of f
    per round: every segment's leftmost _OPEN_PER_SEGMENT open intervals,
    the others waiting their turn.  A half's value is reused as its own
    whole-interval rule.  A segment visits the intervals a depth-first
    recursion visits, and each accepted interval's summed rule is added to
    its segment's total in the round that accepts it.

    Returns (totals, failed): totals has one row per segment, NaN where
    failed is True.
    """
    lo = np.asarray(a, dtype=complex).ravel()
    hi = np.asarray(b, dtype=complex).ravel()
    if lo.size == 0:
        return np.zeros(0, dtype=complex), np.zeros(0, dtype=bool)
    with np.errstate(all="ignore"):
        # the first round: every segment whole, K15 against G7.  A value
        # that is not finite is refused here, not failed: its halves may
        # never sample the point that made it so
        whole, gauss, floor = _kronrod(f, lo, hi)
        accept = _worst(np.abs(whole - gauss), floor) <= tol
        failed = np.zeros(lo.size, dtype=bool)
        totals = np.zeros_like(whole)
        totals[accept] = whole[accept]
        # the open intervals, segment by segment and left to right within
        # one: segment, tolerance share, depth left, and the
        # whole-interval rule
        seg = np.flatnonzero(~accept)
        lo, hi, whole = lo[seg], hi[seg], whole[seg]
        share = np.full(seg.size, float(tol))
        depth = np.full(seg.size, _MAX_DEPTH)
        while seg.size:
            rank = np.arange(seg.size) - np.searchsorted(seg, seg)
            act = np.flatnonzero(rank < _OPEN_PER_SEGMENT)
            k = act.size
            lo_a, hi_a = lo[act], hi[act]
            mid = 0.5 * (lo_a + hi_a)
            rules, _, floor = _kronrod(f, np.concatenate([lo_a, mid]),
                                       np.concatenate([mid, hi_a]))
            left, right = rules[:k], rules[k:]
            fine = left + right
            finite = _per_interval(np.isfinite(fine)).all(axis=1)
            err = _worst(np.abs(fine - whole[act]), floor[:k] + floor[k:])
            accept = finite & (err <= share[act])
            bad = ~finite | (~accept & (depth[act] <= 0))
            failed[seg[act[bad]]] = True
            np.add.at(totals, seg[act[accept]], fine[accept])
            split = ~accept & ~failed[seg[act]]
            # next pool: accepted intervals and failed segments leave, and
            # a split interval gives way, in place, to its two halves
            count = np.where(failed[seg], 0, 1)
            count[act] = np.where(split, 2, 0)
            src = np.repeat(np.arange(seg.size), count)
            is_half = np.zeros(seg.size, dtype=bool)
            is_half[act[split]] = True
            pos = np.flatnonzero(is_half[src])
            first, second = pos[0::2], pos[1::2]
            seg, lo, hi = seg[src], lo[src], hi[src]
            share, depth = share[src], depth[src]
            whole = whole[src]
            hi[first] = lo[second] = mid[split]
            whole[first], whole[second] = left[split], right[split]
            share[pos] *= 0.5
            depth[pos] -= 1
    totals[failed] = np.nan
    return totals, failed


def adaptive_gl(f, a, b, tol=1e-10):
    """Integral of f along the straight segment a -> b, adaptively bisected.

    f may return a complex scalar or an ndarray; exceptions it raises pass
    through.  This is adaptive_gl_batch on one segment, with f called once
    per node; QuadratureFailure reports a non-finite integrand or an
    exhausted depth.
    """
    def values(points):
        return np.array([f(z) for z in points.tolist()], dtype=complex)

    total, failed = adaptive_gl_batch(values, [complex(a)], [complex(b)], tol=tol)
    if failed[0]:
        raise QuadratureFailure("segment %r -> %r: non-finite integrand, or "
                                "error above tol %.3e after %d bisections"
                                % (a, b, tol, _MAX_DEPTH))
    return total[0]
