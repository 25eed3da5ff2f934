"""Gauss-Legendre quadrature helpers shared by the integrators.

adaptive_gl_batch is the one adaptive rule: it integrates many straight
segments at once, with one call of the integrand per bisection round
over the open intervals of all of them.  adaptive_gl is the same rule on
one segment, with an integrand called one point at a time.

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


# leggauss(15), the rule of adaptive_gl_batch, written out so that it
# costs no import of numpy.polynomial: its nonnegative nodes with their
# weights, mirrored as leggauss mirrors them, equal to it bit for bit
_GL15_HALF = np.array([(0.0, 0.2025782419255613),
                       (0.20119409399743451, 0.1984314853271116),
                       (0.3941513470775634, 0.1861610000155622),
                       (0.5709721726085388, 0.16626920581699398),
                       (0.7244177313601701, 0.13957067792615444),
                       (0.8482065834104272, 0.10715922046717141),
                       (0.9372733924007058, 0.0703660474881084),
                       (0.9879925180204854, 0.030753241996117203)])
_NODE_CACHE = {15: (np.concatenate([-_GL15_HALF[:0:-1, 0], _GL15_HALF[:, 0]]),
                    np.concatenate([_GL15_HALF[:0:-1, 1], _GL15_HALF[:, 1]]))}
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


def _gl_rules(f, starts, ends, x, w):
    """The n-point rule on each interval starts[k] -> ends[k], with one
    call of f for all of them.

    Per interval, the weighted values are summed in node order and then
    scaled by the half length, so an interval's value does not depend on
    the batch around it.  The sum runs in place, through one array for
    the weighted term, so a call allocates no array per node.
    """
    mid = 0.5 * (starts + ends)
    half = 0.5 * (ends - starts)
    nodes = mid[:, None] + half[:, None] * x
    vals = np.asarray(f(nodes.ravel()), dtype=complex)
    vals = vals.reshape(nodes.shape + vals.shape[1:])
    total = w[0] * vals[:, 0]
    term = np.empty_like(total)
    for m in range(1, len(x)):
        np.multiply(w[m], vals[:, m], out=term)
        np.add(total, term, out=total)
    return (half * total.T).T


def _per_interval(a):
    # one row per interval, the value axes flattened
    return a.reshape(len(a), -1)


# Open intervals a segment advances per round, its leftmost ones.  A
# segment that cannot meet its tolerance (below the rounding floor, say)
# then fails within about _MAX_DEPTH rounds of at most this many intervals,
# as a depth-first recursion fails down its leftmost path, instead of
# splitting all 2**_MAX_DEPTH intervals of its last level first.
_OPEN_PER_SEGMENT = 16

# Gauss-Legendre nodes of the rule on each interval, and the bisections
# a segment may take
_NODES = 15
_MAX_DEPTH = 24


def adaptive_gl_batch(f, a, b, tol=1e-10):
    """Integrals of f along the K straight segments a[k] -> b[k].

    f maps a 1-D complex array of points to their values, one row per
    point (shape (m,) or (m, d)).  Its result is read before its next
    call and never written, so it may be a view into a buffer that f
    reuses from call to call.  Each segment follows one rule: the
    15-point rule on an interval is compared with the summed rule on its
    halves; the interval is accepted when the largest difference is at
    most its tolerance share, and otherwise split, each half taking half
    the tolerance and one less depth.  A segment fails when a summed rule
    is not finite or an interval at depth 0 still misses its share.

    Open intervals advance together in bisection rounds, one call of f
    per round: every segment's leftmost _OPEN_PER_SEGMENT open intervals,
    the others waiting their turn.  A half's value is reused as its own
    whole-interval rule.  A segment visits the intervals a depth-first
    recursion visits, and each accepted interval's summed rule is added to
    its segment's total in the round that accepts it.

    Returns (totals, failed): totals has one row per segment, NaN where
    failed is True.
    """
    x, w = gl_nodes(_NODES)
    lo = np.asarray(a, dtype=complex).ravel()
    hi = np.asarray(b, dtype=complex).ravel()
    k = lo.size
    failed = np.zeros(k, dtype=bool)
    if k == 0:
        return np.zeros(0, dtype=complex), failed
    # the open intervals, segment by segment and left to right within one:
    # segment, tolerance share, depth left, and the whole-interval rule
    # (computed with the halves in the first round)
    seg = np.arange(k)
    share = np.full(k, float(tol))
    depth = np.full(k, _MAX_DEPTH)
    whole = totals = None
    with np.errstate(all="ignore"):
        while seg.size:
            rank = np.arange(seg.size) - np.searchsorted(seg, seg)
            act = np.flatnonzero(rank < _OPEN_PER_SEGMENT)
            k = act.size
            lo_a, hi_a = lo[act], hi[act]
            mid = 0.5 * (lo_a + hi_a)
            if whole is None:
                rules = _gl_rules(f, np.concatenate([lo_a, lo_a, mid]),
                                  np.concatenate([hi_a, mid, hi_a]), x, w)
                whole, rules = rules[:k], rules[k:]
                totals = np.zeros(whole.shape, dtype=complex)
            else:
                rules = _gl_rules(f, np.concatenate([lo_a, mid]),
                                  np.concatenate([mid, hi_a]), x, w)
            left, right = rules[:k], rules[k:]
            fine = left + right
            finite = _per_interval(np.isfinite(fine)).all(axis=1)
            err = _per_interval(np.abs(fine - whole[act])).max(axis=1)
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
