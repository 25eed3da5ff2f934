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

from ._carith import cmul

__all__ = ["QuadratureFailure", "gl_nodes", "integration_matrix", "adaptive_gl",
           "adaptive_gl_batch"]


class QuadratureFailure(ArithmeticError):
    """Adaptive quadrature exhausted its depth without meeting tolerance."""


_NODE_CACHE = {}
_MATRIX_CACHE = {}


def gl_nodes(n):
    """Gauss-Legendre nodes and weights on [-1, 1], cached."""
    if n not in _NODE_CACHE:
        x, w = np.polynomial.legendre.leggauss(n)
        _NODE_CACHE[n] = (x, w)
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

    Per interval this is the arithmetic of a scalar loop over the nodes:
    the weighted values summed in node order, then scaled by the half
    length, so an interval's value does not depend on the batch around it.
    """
    mid = 0.5 * (starts + ends)
    half = 0.5 * (ends - starts)
    nodes = mid[:, None] + half[:, None] * x
    vals = np.asarray(f(nodes.ravel()), dtype=complex)
    vals = vals.reshape(nodes.shape + vals.shape[1:])
    total = w[0] * vals[:, 0]
    for m in range(1, len(x)):
        total = total + w[m] * vals[:, m]
    if total.ndim == 1:
        # scaled as a loop over one interval scales: there a scalar sum is
        # a numpy scalar, whose product rounds as Python's (cmul), while a
        # vector sum is an array, whose product numpy may fuse
        return cmul(half, total)
    return half[:, None] * total


def _per_interval(a):
    # one row per interval, the value axes flattened
    return a.reshape(len(a), -1)


# Open intervals a segment advances per round, its leftmost ones.  A
# segment that cannot meet its tolerance (below the rounding floor, say)
# then fails within about max_depth rounds of at most this many intervals,
# as a depth-first recursion fails down its leftmost path, instead of
# splitting all 2**max_depth intervals of its last level first.
_OPEN_PER_SEGMENT = 16


def adaptive_gl_batch(f, a, b, tol=1e-10, max_depth=24, n=15):
    """Integrals of f along the K straight segments a[k] -> b[k].

    f maps a 1-D complex array of points to their values, one row per
    point (shape (m,) or (m, d)).  Each segment follows one rule: the
    n-point rule on an interval is compared with the summed rule on its
    halves; the interval is accepted when the largest difference is at
    most its tolerance share, and otherwise split, each half taking half
    the tolerance and one less depth.  A segment fails when a summed rule
    is not finite or an interval at depth 0 still misses its share.

    Open intervals advance together in bisection rounds, one call of f
    per round: every segment's leftmost _OPEN_PER_SEGMENT open intervals,
    the others waiting their turn.  A half's value is reused as its own
    whole-interval rule.  A segment visits the intervals a depth-first
    recursion visits, and its accepted values are summed back up the
    bisection tree, left half plus right half, as that recursion sums them.

    Returns (totals, failed): totals has one row per segment, NaN where
    failed is True.
    """
    x, w = gl_nodes(n)
    lo = np.asarray(a, dtype=complex).ravel()
    hi = np.asarray(b, dtype=complex).ravel()
    k = lo.size
    failed = np.zeros(k, dtype=bool)
    if k == 0:
        return np.zeros(0, dtype=complex), failed
    # the open intervals, segment by segment and left to right within one:
    # segment, bisection-tree node, tolerance share, depth left, and the
    # whole-interval rule (computed with the halves in the first round)
    seg = np.arange(k)
    node = np.arange(k)
    share = np.full(k, float(tol))
    depth = np.full(k, max_depth)
    whole = None
    n_nodes = k
    rounds = []             # per round: (nodes, summed rules, split, halves)
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
            split = ~accept & ~failed[seg[act]]
            halves = n_nodes + 2 * np.arange(np.count_nonzero(split))
            rounds.append((node[act], fine, split, halves))
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
            share, depth, node = share[src], depth[src], node[src]
            whole = whole[src]
            hi[first] = lo[second] = mid[split]
            whole[first], whole[second] = left[split], right[split]
            share[pos] *= 0.5
            depth[pos] -= 1
            node[first], node[second] = halves, halves + 1
            n_nodes += pos.size
        values = np.full((n_nodes,) + fine.shape[1:], complex(np.nan, np.nan))
        for ids, fine, split, halves in reversed(rounds):
            values[ids] = fine
            values[ids[split]] = values[halves] + values[halves + 1]
    totals = values[:failed.size]
    totals[failed] = np.nan
    return totals, failed


def adaptive_gl(f, a, b, tol=1e-10, max_depth=24, n=15):
    """Integral of f along the straight segment a -> b, adaptively bisected.

    f may return a complex scalar or an ndarray; exceptions it raises pass
    through.  This is adaptive_gl_batch on one segment, with f called once
    per node; QuadratureFailure reports a non-finite integrand or an
    exhausted depth.
    """
    if a == b:
        probe = np.asarray(f(a), dtype=complex)
        return probe * 0.0

    def values(points):
        return np.array([f(z) for z in points.tolist()], dtype=complex)

    total, failed = adaptive_gl_batch(values, [complex(a)], [complex(b)],
                                      tol=tol, max_depth=max_depth, n=n)
    if failed[0]:
        raise QuadratureFailure("segment %r -> %r: non-finite integrand, or "
                                "error above tol %.3e after %d bisections"
                                % (a, b, tol, max_depth))
    return total[0]
