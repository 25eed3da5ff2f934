"""Surface construction: Sym-type immersion into the hyperboloid, its
origin-shifted flat limit, and direct Enneper-Weierstrass integration,
plus grid sampling and frame/curvature verification.

Conventions.  The hyperbolic target H^3(lambda) is the sheet
(X|X) = -1/lambda^2 in Lorentz space; the Sym-type formula is

    F^sigma = (1/lambda) Phi^H Phi

(automatically on the hyperboloid since det Phi = 1).  The shifted
variant (Phi^H Phi - I)/lambda, computed with the reduced wavefunction,
converges as lambda -> 0 to the Euclidean minimal surface of the same
data up to the fixed linear map

    (X1, X2, X3) = (-2 F1, -2 F2, 2 F3)

where F is the classical representation

    F = Re int (1/2 (1 - psi^2), i/2 (1 + psi^2), psi) eta^2 dz

which this module treats as the canonical Euclidean output.  Both
immersions are one formula with a shift, (Phi^H Phi - s I)/lambda for
s = 0 or 1, written once on the entries of Phi (_lorentz4); the grid
sampler and the public sym_immersion / shifted_immersion share it.  The
classical integral, the loop period and the e3-direct sampler share one
integrand over the array closures and one batched quadrature.

Grid sampling probes the data over the grid in array passes, then takes
one sweep for all three targets (_sweep_grid): from z0 into the grid
column nearest z0, up and down that column, and along each row both ways
from it, each half a straight line of hops (_sweep_lines).  A hop's
value does not depend on the value at its start, so the planned hops are
computed in batches, then accumulated along the lines; a failed hop
masks the rest of its half line.  The ODE targets multiply transfer
matrices of the reduced (holomorphic) system in the paper's ODE gauge
(_sample_ode), then a pass over the valid samples forms the
wavefunction, moves it by the constant gauge M(z0) for h3, which gives
the full system's surface (lsp.gauge_matrix), and applies the formula.
e3-direct adds integrals of the Weierstrass integrand, the additive case
T = I + lambda int B + O(lambda^2) that the paper recovers as lambda ->
0.  Everything runs on the calling thread.

frame_sweep reconstructs the frame and curvature estimates over the whole
grid with array stencils; frame_and_curvature is the same computation at
one sample.
"""

from dataclasses import dataclass, field

import numpy as np

# adaptive_gl is not called here; it stays a module name because the
# benchmark tracer in solbench/ wraps immersion.adaptive_gl
from ._quad import QuadratureFailure, adaptive_gl, adaptive_gl_batch  # noqa: F401
from .geom import EVAL_ERRORS, DomainError, WeierstrassData
from .lsp import (BranchAmbiguity, StepUnderflow, _LaneWork, _UNIT_WEIGHTS,
                  _gauged_coef, _integrate_lanes, _mul4_array, gauge_matrix,
                  propagate)

__all__ = [
    "DomainRect", "SurfacePatch", "FrameSample", "FrameSweep", "LambdaZero",
    "DegenerateFrame", "sym_immersion", "shifted_immersion",
    "enneper_weierstrass", "loop_period", "sample_surface", "frame_sweep",
    "frame_and_curvature",
]

TARGETS = ("h3", "e3-limit", "e3-direct")

# grid rows per block of the array passes over the grid (the probe, the
# hops of the ODE sweep, the immersion pass after it, and the output rows
# of frame_sweep, which also read a two-row halo), so their temporaries
# stay a few grid rows deep instead of grid-sized.  For the ODE hops the
# blocks must not shrink much: at one row per block the per-call overhead
# of the coefficient table and the step made a 128^2 erf patch and its
# PLY write take 0.49 s instead of 0.30 s (2 CPUs, no clock pinning)
_SWEEP_ROWS = 8


class LambdaZero(ValueError):
    """A construction cannot use the spectral parameter lambda: it is zero,
    or a square or reciprocal that the construction needs is one that no
    float holds."""


class DegenerateFrame(ArithmeticError):
    """Tangent frame rank-deficient or a stencil neighbor is masked."""


@dataclass
class DomainRect:
    """Rectangle [re_min, re_max] x [im_min, im_max] sampled on an
    ny x nx grid (rows sweep the imaginary axis)."""
    re_min: float
    re_max: float
    im_min: float
    im_max: float
    nx: int
    ny: int

    def __post_init__(self):
        if self.nx < 2 or self.ny < 2:
            raise ValueError("resolution must be at least 2 per axis")
        if not (self.re_max > self.re_min and self.im_max > self.im_min):
            raise ValueError("empty domain rectangle")

    def xs(self):
        return np.linspace(self.re_min, self.re_max, self.nx)

    def ys(self):
        return np.linspace(self.im_min, self.im_max, self.ny)

    @property
    def dx(self):
        return (self.re_max - self.re_min) / (self.nx - 1)

    @property
    def dy(self):
        return (self.im_max - self.im_min) / (self.ny - 1)

    def point(self, i, j):
        return complex(self.xs()[j], self.ys()[i])

    def grid(self):
        return self.xs()[None, :] + 1j * self.ys()[:, None]


@dataclass
class FrameSample:
    """Frame and curvature data reconstructed at one grid point."""
    F: np.ndarray
    F_z: np.ndarray
    F_zbar: np.ndarray
    N: np.ndarray
    u: float
    H_est: float
    Q_est: complex


@dataclass
class SurfacePatch:
    """Sampled immersion grid plus per-sample residual records.

    points is (ny, nx, 4) for hyperbolic and limit targets (components
    X0..X3) and (ny, nx, 3) for the direct Euclidean target.  valid masks
    samples whose integration succeeded; residuals maps record names to
    float grids (NaN where invalid).
    """
    data: WeierstrassData
    domain: DomainRect
    target: str
    lam: float
    tol: float
    points: np.ndarray
    valid: np.ndarray
    residuals: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# pointwise immersion formulas

def _lorentz4(y, lam, shift=0.0):
    """Lorentz 4-vector of (Phi^H Phi - shift I)/lambda, Phi given by its
    row-major entries y: a 4-tuple of complex numbers, or of arrays (one
    wavefunction per element).

    Shift 0 is the Sym-type formula, shift 1 its origin-shifted form.  The
    components (X0, X1, X2, X3) are those of the Hermitian matrix
    X0 I + X1 s1 + X2 s2 + X3 s3 (s_k the Pauli matrices).  The entry
    products are written on the real parts, Re(conj(a) b) = ar br + ai bi
    and Im(conj(a) b) = ar bi - ai br, which round alike for Python floats
    and numpy arrays (and as Python's complex product does).
    """
    a, b, c, d = y
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    cr, ci, dr, di = c.real, c.imag, d.real, d.imag
    q11 = (ar * ar + ai * ai) + (cr * cr + ci * ci) - shift
    q22 = (br * br + bi * bi) + (dr * dr + di * di) - shift
    p_re = (ar * br + ai * bi) + (cr * dr + ci * di)
    p_im = (ar * bi - ai * br) + (cr * di - ci * dr)
    return (0.5 * (q11 + q22) / lam, p_re / lam,
            -p_im / lam, 0.5 * (q11 - q22) / lam)


def _immersion(phi, shift, refusal):
    """(Phi^H Phi - shift I)/lambda as a 4-vector, lambda being phi's;
    LambdaZero with the message refusal when lambda is 0, and ValueError
    unless Phi is 2x2 with determinant within 1e-6 of 1."""
    lam = phi.lam
    if lam == 0.0:
        raise LambdaZero(refusal)
    v = np.asarray(phi.value, dtype=complex)
    if v.shape != (2, 2):
        raise ValueError("wavefunction value must be 2x2")
    d = v[0, 0] * v[1, 1] - v[0, 1] * v[1, 0]
    if abs(d - 1.0) > 1e-6:
        raise ValueError("wavefunction determinant drifted to %r; "
                         "re-integrate with a tighter tolerance" % (d,))
    return np.array(_lorentz4(v.ravel(), lam, shift))


def sym_immersion(phi):
    """Hyperboloid point (1/lambda) Phi^H Phi as a Lorentz 4-vector."""
    return _immersion(phi, 0.0, "lambda = 0 has no hyperboloid; use "
                      "the shifted limit")


def shifted_immersion(phi):
    """Origin-shifted immersion (Phi^H Phi - I)/lambda as a 4-vector.

    With the reduced wavefunction this converges, entrywise at rate
    O(lambda), to the flat-limit surface; X0 -> 0 in the limit.
    """
    return _immersion(phi, 1.0, "the shift is evaluated at finite lambda")


def _phi_vector_batch(data):
    """The integrand (1/2 (1 - psi^2), i/2 (1 + psi^2), psi) eta^2 over an
    array of points, one row per point, from the array closures of eta
    and psi.

    The closure owns its work arrays, allocated on the first call and
    again only when more points arrive, and returns a view of them: a
    result holds until the next call.  Every operation keeps the operand
    order and contiguous operands of the expressions above, so the values
    are those of fresh arrays bit for bit.  What eta and psi return is
    only read; it may be z itself or a read-only view.
    """
    eta_a, _, psi_a, _ = data.array_functions()
    scratch = np.empty((3, 0), dtype=complex)
    vals = np.empty((0, 3), dtype=complex)

    def fvals(z):
        nonlocal scratch, vals
        n = len(z)
        if len(vals) < n:
            # eta^2, psi^2 and one term, each row contiguous; the values
            scratch = np.empty((3, n), dtype=complex)
            vals = np.empty((n, 3), dtype=complex)
        e2, p2, t = scratch[:, :n]
        out = vals[:n]
        ev, pv = eta_a(z), psi_a(z)
        np.multiply(ev, ev, out=e2)
        np.multiply(pv, pv, out=p2)
        np.subtract(1.0, p2, out=t)
        np.multiply(0.5, t, out=t)
        np.multiply(t, e2, out=t)
        out[:, 0] = t
        np.add(1.0, p2, out=t)
        np.multiply(0.5j, t, out=t)
        np.multiply(t, e2, out=t)
        out[:, 1] = t
        np.multiply(pv, e2, out=t)
        out[:, 2] = t
        return out

    return fvals


def _path_integral(data, path, tol):
    """Complex integral of the integrand vector along the validated path:
    every segment in one batch, summed in path order.  A segment where
    the data is not finite, or that misses tol, raises QuadratureFailure."""
    path.validate()
    ends = np.array(path.segments(), dtype=complex).reshape(-1, 2)
    parts, failed = adaptive_gl_batch(_phi_vector_batch(data), ends[:, 0],
                                      ends[:, 1], tol=tol)
    if failed.any():
        a, b = ends[np.flatnonzero(failed)[0]]
        raise QuadratureFailure("path segment %r -> %r: non-finite integrand, "
                                "or error above tol %.3e"
                                % (complex(a), complex(b), tol))
    total = np.zeros(3, dtype=complex)
    for part in parts:
        total = total + part
    return total


def enneper_weierstrass(data, path, tol=1e-10):
    """Classical minimal-surface integral F = Re int phi dz along the path."""
    return _path_integral(data, path, tol).real.copy()


def loop_period(data, path, tol=1e-10):
    """Period integral of the integrand vector around a closed polyline.

    Returns the complex 3-vector; a surface is single-valued over the loop
    iff the real part vanishes.  Diagnostic only, nothing is enforced.
    """
    if path.points[0] != path.points[-1]:
        raise ValueError("loop_period requires a closed path")
    return _path_integral(data, path, tol)


# ---------------------------------------------------------------------------
# grid sampling

def _probe_validity(data, zgrid):
    """(valid, psi): the samples where eta, psi and psi' are finite and eta
    is nonzero, and psi at every sample, by array evaluation over blocks
    of rows (which bounds the temporaries of series such as erf)."""
    eta_a, _, psi_a, dpsi_a = data.array_functions()
    valid = np.empty(zgrid.shape, dtype=bool)
    psi = np.empty(zgrid.shape, dtype=complex)
    for r0 in range(0, zgrid.shape[0], _SWEEP_ROWS):
        rows = slice(r0, r0 + _SWEEP_ROWS)
        z = zgrid[rows]
        ev = eta_a(z)
        psi[rows] = psi_a(z)
        valid[rows] = (np.isfinite(ev) & (ev != 0.0) & np.isfinite(psi[rows])
                       & np.isfinite(dpsi_a(z)))
    return valid, psi


def _sweep_lines(hop, combine, zs, ok, vals, k, lines_per_batch, mend=None):
    """Accumulate hop values in place along the lines zs[l], each run from
    index k both ways as two straight halves.

    A line visits its points with ok in order from its start k, where
    vals[:, l, k] holds its value.  hop(za, zb) returns the values of the
    hops za[i] -> zb[i] as an (e, K) array and whether each was computed;
    a hop's value does not depend on the value at its start, so the hops
    planned from the ok mask, each from the previous ok sample of its
    half, are computed first, those of lines_per_batch lines per call.  A
    hop that fails masks the rest of its half in ok: every later hop of
    the half contains the failed segment and passes the same singular
    point, so a sample beyond it could only be reached by stepping over a
    point where the integrator gave up.  Then the halves advance one
    sample at a time: a value is combine(hop value, value at the hop's
    start).  While every line of a half is ok at the column before and
    the column reached, whole columns combine as slices; from a column
    with a masked sample on, each line gathers its own start.  combine
    must give the values of contiguous operands on strided ones (np.add,
    and _mul4_array, which copies its operands by take).

    mend = (weak, fix), when given, mends hops whose value would carry a
    large error into the values: weak(hop values) marks them, and after
    the halves have advanced, fix(zs, ok, vals, k, start, marked) revises
    the values from the marked hops on, start[l, j] being the index the
    hop into (l, j) starts at.
    """
    n_lines, m = ok.shape
    # where each planned hop starts: the nearest ok sample toward k; a
    # line's ok samples change only after its own hops
    cols = np.arange(m)
    start = np.empty(ok.shape, dtype=int)
    start[:, k + 1:] = np.maximum.accumulate(
        np.where(ok[:, k:-1], cols[k:-1], -1), axis=1)
    start[:, :k] = np.minimum.accumulate(
        np.where(ok[:, k:0:-1], cols[k:0:-1], m), axis=1)[:, ::-1]
    planned = ok.copy()
    planned[:, k] = False
    marked = np.zeros(ok.shape, dtype=bool)
    for l0 in range(0, n_lines, lines_per_batch):
        ll, jj = np.nonzero(planned[l0:l0 + lines_per_batch])
        if not ll.size:
            continue
        ll += l0
        v, good = hop(zs[ll, start[ll, jj]], zs[ll, jj])
        vals[:, ll, jj] = v
        if mend is not None:
            marked[ll, jj] = mend[0](v)
        for l, j in zip(ll[~good], jj[~good]):
            ok[l, slice(j, None) if j > k else slice(0, j + 1)] = False
    for half in (range(k + 1, m), range(k - 1, -1, -1)):
        last = np.full(n_lines, k)
        dense = bool(ok[:, k].all())
        for j in half:
            dense = dense and bool(ok[:, j].all())
            if dense:
                vals[:, :, j] = combine(vals[:, :, j], vals[:, :, last[0]])
                last[:] = j
                continue
            lanes = np.flatnonzero(ok[:, j])
            vals[:, lanes, j] = combine(vals[:, lanes, j],
                                        vals[:, lanes, last[lanes]])
            last[lanes] = j
    marked &= ok
    if marked.any():
        mend[1](zs, ok, vals, k, start, marked)


def _sweep_grid(hop, combine, zgrid, valid, v0, z0, lines_per_batch,
                mend=None):
    """Values over the grid from v0 at z0, masking valid where a hop
    fails.  The seed column, the grid column nearest z0, is reached by a
    hop from z0 into its valid sample nearest z0; where it fails, by one
    into the next nearest, then by the hops into all the others in one
    call, the nearest success starting the column and the samples tried
    before it masked.  The column runs up and down from that sample, every
    row left and right from its seed-column sample (_sweep_lines); a row
    whose seed-column sample is masked is masked whole.  A z0 on a sample
    reaches it by a zero-length hop.  mend goes to each _sweep_lines
    call.  Returns the (e, ny, nx) values, meaningful where valid."""
    vals = np.empty((len(v0),) + zgrid.shape, dtype=complex)
    c = int(np.argmin(np.abs(zgrid[0].real - z0.real)))
    near = np.flatnonzero(valid[:, c])
    near = near[np.argsort(np.abs(zgrid[near, c] - z0), kind="stable")]
    for tried in (near[:1], near[1:2], near[2:]):
        if not tried.size:
            break
        v, ok = hop(np.full(tried.size, z0, dtype=complex), zgrid[tried, c])
        if ok.any():
            i = int(np.argmax(ok))
            valid[tried[:i], c] = False
            vals[:, tried[i], c] = combine(v[:, i], v0)
            _sweep_lines(hop, combine, zgrid[None, :, c], valid[None, :, c],
                         vals[:, None, :, c], tried[i], 1, mend)
            break
        valid[tried, c] = False
    valid[~valid[:, c]] = False
    _sweep_lines(hop, combine, zgrid, valid, vals, c, lines_per_batch, mend)
    return vals


def sample_surface(data, domain, target, tol=1e-8, system=None):
    """Sample the immersion over a rectangular grid into a SurfacePatch.

    target 'h3' is the Sym-type formula of the full system at H = lambda;
    'e3-limit' is the shifted formula of the reduced system; 'e3-direct'
    accumulates the classical integral.  Both ODE targets integrate the
    reduced (holomorphic) system Psi, in the ODE gauge (_sample_ode).  The
    full system's Phi is M(z)^{-1} Psi M(z0) with the gauge M unitary, so
    h3 is the Sym-type image of Psi M(z0): the holomorphic sweep moved by
    the isometry X -> M(z0)^H X M(z0) of _lorentz4's Hermitian matrices.
    Where the gauge is undefined at z0, every h3 sample is masked.
    system='reduced' makes h3 omit the move.  Residual records:
    'hyperboloid' and 'det_drift' for h3, 'x0_abs' and 'det_drift' for
    the limit target.

    The grid is probed first, by array evaluation of the data: points
    where eta, psi or psi' is not finite, or eta vanishes, are masked, as
    are points whose hop fails.  Every target takes the same hops
    (_sweep_grid), and a failed hop masks the rest of its half line, whose
    later samples could only be reached past the same singular point.
    With a pole the surface can depend on the path, and a sample takes
    the branch of its own.  The targets differ only in a hop's value and
    how values combine (_sample_ode, _sample_direct).
    """
    if target not in TARGETS:
        raise ValueError("target must be one of %r" % (TARGETS,))
    lam = data.lam
    if target in ("h3", "e3-limit") and lam == 0.0:
        raise LambdaZero("target %r needs lambda != 0" % (target,))
    if target == "h3" and lam * lam == 0.0:
        raise LambdaZero("target 'h3' needs lambda^2 != 0, got %r" % (lam,))
    if system is None:
        system = "full" if target == "h3" else "reduced"
    elif target != "h3" or system not in ("full", "reduced"):
        raise ValueError("system override applies to the h3 target only")
    zgrid = domain.grid()
    valid, psi = _probe_validity(data, zgrid)
    if target == "e3-direct":
        points, residuals = _sample_direct(data, zgrid, valid, tol), {}
    else:
        points, residuals = _sample_ode(data, zgrid, valid, psi, target, tol,
                                        system)
    return SurfacePatch(data=data, domain=domain, target=target, lam=lam,
                        tol=tol, points=points, valid=valid, residuals=residuals)


# one row of quadrature hops per adaptive_gl_batch call: blocks of 8 rows
# raised the peak memory of a fresh process sampling README's data at
# 128^2 from 33.6 to 35.1 MB, while its sampling time, 0.040 against
# 0.038 s, stayed within the spread of either (medians of 15 fresh
# processes each; 2 CPUs, no clock pinning)
_QUAD_ROWS = 1


def _sample_direct(data, zgrid, valid, tol):
    """Points of the classical integral over the grid, masking valid where
    a hop fails: a hop's value is its integral (adaptive_gl_batch of the
    integrand), and the values add up hop by hop along each line."""
    fvals = _phi_vector_batch(data)

    def hop(za, zb):
        parts, failed = adaptive_gl_batch(fvals, za, zb, tol=tol)
        return parts.T, ~failed

    vals = _sweep_grid(hop, np.add, zgrid, valid, np.zeros(3, dtype=complex),
                       data.z0, _QUAD_ROWS)
    points = np.full(zgrid.shape + (3,), np.nan)
    points[valid] = vals[:, valid].real.T
    return points


# a hop's transfer matrix T, accurate to about tol |T|, carries an error
# of up to kappa tol into the wavefunction, kappa being T's condition
# number; _sample_ode mends the hops above it at tol / _KAPPA_MEND
_KAPPA_MEND = 4.0


def _sample_ode(data, zgrid, valid, psi, target, tol, system):
    """Points and residual records of the ODE targets over the grid,
    masking valid where a hop fails.

    The sweep integrates Phi = G^{-1} Psi, G = [[1, 0], [psi, 1]], over eta
    and psi' (lsp._gauged_coef).  A hop's value is its transfer matrix T
    from the identity, so the value at a sample is T Phi at the hop's
    start (_mul4_array), from Phi(z0) = G(z0)^{-1}.  Each batch of hops,
    both halves of _SWEEP_ROWS rows, runs in lock step (lsp._integrate_lanes,
    through work arrays that this sweep owns), the hop left unsettled
    through the scalar propagate.  Phi is Psi's gauge where psi is
    continuous, so a hop on which psi(b) - psi(a) is not the integral of
    psi' d (a cut: the first step's quadrature misses by more than tol (1
    + |psi(a)| + |psi(b)|), and adaptive Gauss-Kronrod misses or fails
    too, as it does on a singular psi') and a hop past a sample the probe
    masked go through propagate of Psi from G(a) Phi_a, and G(b)^{-1}
    takes the value back.  The quadrature sums its weighted nodes in node
    order, elementwise, so neither a hop's way nor its value depends on
    its batch or on the BLAS kernel.
    Near a pole T's condition number kappa reaches hundreds, and T Phi is
    off by up to kappa tol, so after each line sweep the hops with kappa
    above _KAPPA_MEND are integrated again from the value at their start,
    at tol / _KAPPA_MEND, and the later samples of their lines take the
    correction.  Then one pass over the valid samples, _SWEEP_ROWS rows at
    a time, forms Psi = G Phi from the probe's psi, right-multiplies it by
    M(z0) when system is 'full', applies _lorentz4 and fills the records;
    psi(z0) not finite masks every sample, and masked samples stay NaN.
    """
    lam = data.lam
    ny, nx = zgrid.shape
    hop_errors = (StepUnderflow, DomainError) + EVAL_ERRORS
    m0 = None
    if system == "full":
        try:
            m0 = gauge_matrix(data, data.z0).reshape(4, 1)
        except (BranchAmbiguity, DomainError):
            valid[:] = False
    eta_a, _, psi_a, dpsi_a = data.array_functions()
    gauged = _gauged_coef(lam, eta_a, dpsi_a)
    p0 = psi_a(np.array([data.z0]))[0]   # Phi(z0) = G(z0)^-1
    valid &= bool(np.isfinite(p0))
    rows, cols = zgrid[:, 0].imag, zgrid[0].real
    # the lock-step stages' work arrays, for every batch of the sweep, and
    # the quadrature of -psi' d over each batch's first table
    work, quad = _LaneWork(), []

    def coef(a, d, t, out):
        c = gauged(a, d, t, out)
        if len(t) == 6:
            quad.append(sum(w * e for w, e in zip(_UNIT_WEIGHTS, c[:, 1])))
        return c

    def lanes(za, zb, y, tol=tol):
        # the hops za -> zb from the (4, n) values y in lock step, those
        # on Psi (on_psi, see above) and the one left unsettled by the
        # scalar propagate; the probe's psi is found by row and column
        d = zb - za
        t, ok, failed = _integrate_lanes(coef, za, d, y, tol, work)
        pa, pb = (np.where(z == data.z0, p0, psi[
            np.searchsorted(rows, z.imag).clip(0, ny - 1),
            np.searchsorted(cols, z.real).clip(0, nx - 1)]) for z in (za, zb))
        bound = tol * (1.0 + abs(pa) + abs(pb))
        odd = ~(abs(pb - pa + quad.pop()) <= bound)
        part, bad = adaptive_gl_batch(dpsi_a, za[odd], zb[odd],
                                      bound[odd] / 10)
        on_psi = ((abs(d.real) > 1.5 * (cols[1] - cols[0]))
                  | (abs(d.imag) > 1.5 * (rows[1] - rows[0])))
        on_psi[odd] |= bad | ~(abs(pb[odd] - pa[odd] - part) <= bound[odd])
        for k in np.flatnonzero(~(ok | failed | on_psi)):
            try:
                # Python complex values: numpy scalars step slower
                t[:, k] = propagate(data, za[k], zb[k],
                                    tuple(y[:, k].tolist()), tol=tol,
                                    system="gauged")
                ok[k] = True
            except hop_errors:
                pass
        for k in np.flatnonzero(on_psi):
            y0, y1, y2, y3 = y[:, k].tolist()
            a, b = complex(pa[k]), complex(pb[k])
            try:
                w0, w1, w2, w3 = propagate(
                    data, za[k], zb[k], (y0, y1, a * y0 + y2, a * y1 + y3),
                    tol=tol, system="reduced")
                t[:, k] = w0, w1, w2 - b * w0, w3 - b * w1
                ok[k] = True
            except hop_errors:
                ok[k] = False
        return t, ok

    def transfer(za, zb):
        eye = np.zeros((4, za.size), dtype=complex)
        eye[[0, 3]] = 1.0
        return lanes(za, zb, eye)

    def weak(t):
        # T's condition number kappa = sigma_1^2 (det T = 1), from
        # |T|^2 = sigma_1^2 + sigma_2^2, above _KAPPA_MEND
        f = (t.real * t.real + t.imag * t.imag).sum(axis=0)
        return f > _KAPPA_MEND + 1.0 / _KAPPA_MEND

    def fix(zs, ok, vals, k, start, marked):
        # the marked hops again from the value at their start, all in one
        # call at tol / _KAPPA_MEND (a hop that fails there keeps T Phi_a).
        # Each result w enters its half as a right factor R of the values
        # from Phi_b on, Phi_b R = w, the later factors on the left; R - I
        # = adj(Phi_b) (w - Phi_b) / det(Phi_b) is formed from the small
        # difference, so it keeps its digits where Phi is large
        ll, jj = np.nonzero(marked)
        aa = start[ll, jj]
        w, good = lanes(zs[ll, aa], zs[ll, jj], vals[:, ll, aa],
                        tol / _KAPPA_MEND)
        ll, jj, w = ll[good], jj[good], w[:, good]
        yb = vals[:, ll, jj]
        e = _mul4_array(np.stack((yb[3], -yb[1], -yb[2], yb[0])), w - yb)
        e /= yb[0] * yb[3] - yb[1] * yb[2]
        for side in (1, -1):
            half = (jj - k) * side > 0
            if not half.any():
                continue
            # np.unique would import numpy.ma (1.1 MB) on the first call
            lines = np.flatnonzero(np.bincount(ll[half], minlength=len(zs)))
            r = np.zeros((4, len(zs)), dtype=complex)
            near, far = (jj[half].min(), jj[half].max())[::side]
            for j in range(near, far + side, side):
                hit = half & (jj == j)
                l = ll[hit]
                r[:, l] += e[:, hit] + _mul4_array(e[:, hit], r[:, l])
                l = lines[ok[lines, j]]
                vals[:, l, j] += _mul4_array(vals[:, l, j], r[:, l])
            # past the last marked hop R stays; masked samples take it too
            rest = slice(far + 1, None) if side > 0 else slice(0, far)
            vals[:, lines, rest] += _mul4_array(vals[:, lines, rest],
                                                r[:, lines, None])

    with np.errstate(all="ignore"):
        phi = _sweep_grid(transfer, _mul4_array, zgrid, valid,
                          np.array([1.0, 0.0, -p0, 1.0]), data.z0,
                          _SWEEP_ROWS, (weak, fix))

        # immerse the valid samples, a block of rows at a time
        shift = 0.0 if target == "h3" else 1.0
        points = np.full((ny, nx, 4), np.nan)
        drift = np.full((ny, nx), np.nan)
        record = np.full((ny, nx), np.nan)
        for r0 in range(0, ny, _SWEEP_ROWS):
            block = slice(r0, r0 + _SWEEP_ROWS)
            ok = valid[block]
            y = phi[:, block][:, ok]
            y[2:] += psi[block][ok] * y[:2]   # Psi = G Phi
            if m0 is not None:
                y = _mul4_array(y, m0)
            x = _lorentz4(y, lam, shift)
            points[block][ok] = np.stack(x, axis=1)
            drift[block][ok] = np.abs(y[0] * y[3] - y[1] * y[2] - 1.0)
            if target == "h3":
                record[block][ok] = (x[1] * x[1] + x[2] * x[2] + x[3] * x[3]
                                     - x[0] * x[0] + 1.0 / (lam * lam))
            else:
                record[block][ok] = np.abs(x[0])
    name = "hyperboloid" if target == "h3" else "x0_abs"
    return points, {"det_drift": drift, name: record}


# ---------------------------------------------------------------------------
# frame reconstruction

# the diagonal of G = diag(-1, 1, 1, 1); a row times it elementwise is
# the row times G, exactly where the row is finite (zeros' signs aside)
_LORENTZ_SIGNS = np.array([-1.0, 1.0, 1.0, 1.0])

# per-sample outcome codes of the frame reconstruction; FRAME_OK marks an
# evaluated sample, FRAME_EDGE one outside the swept ring
FRAME_OK = 0
FRAME_EDGE = 1
FRAME_MASKED = 2
FRAME_CONFORMAL = 3
FRAME_RANK = 4
FRAME_TIMELIKE = 5
FRAME_COLLINEAR = 6

# report name and DegenerateFrame message of each skip reason
FRAME_REASON_NAMES = {
    FRAME_MASKED: ("masked", "stencil touches a masked sample at (%d, %d)"),
    FRAME_CONFORMAL: ("conformal", "conformal factor nonpositive at (%d, %d)"),
    FRAME_RANK: ("rank", "frame rows rank-deficient at (%d, %d)"),
    FRAME_TIMELIKE: ("timelike", "normal direction not spacelike at (%d, %d)"),
    FRAME_COLLINEAR: ("collinear", "tangents collinear at (%d, %d)"),
}


@dataclass
class FrameSweep:
    """Frame and curvature estimates over a whole grid (see frame_sweep).

    All arrays are (ny, nx).  reason holds one FRAME_* code per sample.
    u, H_est, Q_est and conformality, the normalized residual
    |(F_z|F_z)| e^{-u}, are NaN wherever reason is not FRAME_OK.
    """
    reason: np.ndarray
    u: np.ndarray
    H_est: np.ndarray
    Q_est: np.ndarray
    conformality: np.ndarray


def _form(w, lorentz):
    """Sum a componentwise product over the last axis with the target's
    signature: w1 + w2 + w3 - w0 (Lorentz) or w0 + w1 + w2."""
    if lorentz:
        return w[..., 1] + w[..., 2] + w[..., 3] - w[..., 0]
    return w[..., 0] + w[..., 1] + w[..., 2]


def _rowdot(x, y):
    """x[k] @ y[k] for each row k, its products summed left to right.

    Near a pole the Lorentz normal is almost null and (N|N) cancels by
    several digits, so the summation order shows in H and Q.  A BLAS
    product may round a row by its batch or its alignment (OpenBLAS's
    Prescott kernel does); elementwise sums keep frame_sweep equal to
    frame_and_curvature bit for bit.  The frame code takes no BLAS
    product: a row times _LORENTZ_SIGNS is its product with G.
    """
    return sum((x * y).T)


def _padded(patch):
    """Points and mask of the grid with a two-sample halo on every side,
    NaN points and masked; the window of samples [r0:r1, c0:c1] with their
    halo is then the slice [r0:r1 + 4, c0:c1 + 4]."""
    ny, nx, dim = patch.points.shape
    p = np.full((ny + 4, nx + 4, dim), np.nan)
    v = np.zeros(p.shape[:2], dtype=bool)
    p[2:-2, 2:-2] = patch.points
    v[2:-2, 2:-2] = patch.valid
    return p, v


def _position_scale(patch):
    """lambda for e3-limit, whose points lie on the hyperboloid centred at
    C = -e0/lambda (_lorentz4): its frame's position row lambda F + e0 =
    lambda (F - C) is O(1) at every lambda, where F - C swamps the tangents
    once lambda is small.  None for h3, whose position row is F."""
    return patch.lam if patch.target == "e3-limit" else None


@np.errstate(all="ignore")
def _frame_block(p, valid, dx, dy, scale):
    """Frame and curvature at every inner sample of a window of _padded.

    Returns (reason, vals): reason is the FRAME_* code of each inner
    sample, and vals maps F, fx, fy, N, u, H, Q and conf to arrays over
    the samples with code FRAME_OK, in row-major order.

    Each sample takes one stencil: the fourth-order ones are formed over
    the window, the x-difference once over all its rows (fx, and the rows
    fxy differences), and the second-order ones only at the samples
    gathered where the 3x3 block is valid and the 5x5 one is not.

    The Lorentz normal is the closed-form 4-D cross product
    N_i = G_ii eps_ijkl Y^j F_x^k F_y^l with the position row Y = F, or
    Y = scale F + e0 when scale is not None (see _position_scale),
    the one direction Lorentz-orthogonal to Y, F_x and F_y, scaled to
    Euclidean length 1 before the spacelike test and then to (N|N) = 1.
    The rows (Y, F_x, F_y) count as rank-deficient unless
    |N|^2 > 1e-16 e1 e2, with e1 = |Y|^2 + |F_x|^2 + |F_y|^2 and e2 the
    sum of |a|^2 |b|^2 - (a.b)^2 over the three row pairs.  Since |N|^2 is
    sv0^2 sv1^2 sv2^2 for the rows' singular values sv0 >= sv1 >= sv2,
    the test bounds sv2 / sv0: it flags every sample with
    sv2 <= 1e-8 sv0, and none with sv2 > 3e-8 sv0.  The Euclidean target
    ignores scale.
    """
    lorentz = p.shape[-1] == 4
    ny, nx = valid.shape[0] - 4, valid.shape[1] - 4

    def at(di, dj):
        return p[2 + di:2 + di + ny, 2 + dj:2 + dj + nx]

    # the 3x3 and the 5x5 block valid: erode along the rows, then down
    # the columns
    row3 = valid[:, 1:-3] & valid[:, 2:-2] & valid[:, 3:-1]
    row5 = row3 & valid[:, :-4] & valid[:, 4:]
    near = row3[1:-3] & row3[2:-2] & row3[3:-1]
    wide = row5[:-4] & row5[1:-3] & row5[2:-2] & row5[3:-1] & row5[4:]

    # the fourth-order stencils, exact through quartics, which keeps the
    # conformality residual at truncation level even on coarse grids
    f = at(0, 0)
    d1x = (-p[:, 4:] + 8.0 * p[:, 3:-1]
           - 8.0 * p[:, 1:-3] + p[:, :-4]) / (12.0 * dx)
    fx = d1x[2:-2]
    fy = (-at(2, 0) + 8.0 * at(1, 0)
          - 8.0 * at(-1, 0) + at(-2, 0)) / (12.0 * dy)
    fxx = (-at(0, 2) + 16.0 * at(0, 1) - 30.0 * f
           + 16.0 * at(0, -1) - at(0, -2)) / (12.0 * dx * dx)
    fyy = (-at(2, 0) + 16.0 * at(1, 0) - 30.0 * f
           + 16.0 * at(-1, 0) - at(-2, 0)) / (12.0 * dy * dy)
    fxy = (-d1x[4:] + 8.0 * d1x[3:-1]
           - 8.0 * d1x[1:-3] + d1x[:-4]) / (12.0 * dy)

    # the second-order stencils where only the 3x3 block is valid, after
    # fxy has read d1x, of which fx is a view
    i, j = np.nonzero(near & ~wide)
    if i.size:
        def g(di, dj):
            return p[i + 2 + di, j + 2 + dj]

        fx[i, j] = (g(0, 1) - g(0, -1)) / (2.0 * dx)
        fy[i, j] = (g(1, 0) - g(-1, 0)) / (2.0 * dy)
        fxx[i, j] = (g(0, 1) - 2.0 * g(0, 0) + g(0, -1)) / (dx * dx)
        fyy[i, j] = (g(1, 0) - 2.0 * g(0, 0) + g(-1, 0)) / (dy * dy)
        fxy[i, j] = (g(1, 1) - g(1, -1) - g(-1, 1)
                     + g(-1, -1)) / (4.0 * dx * dy)

    # e^u = 2 (F_z|F_zbar) with F_z = a - i c, F_zbar = a + i c
    a = 0.5 * fx
    c = 0.5 * fy
    eu = 2.0 * _form(a * a + c * c, lorentz)
    conformal = near & (eu > 0.0) & np.isfinite(eu)
    reason = np.where(near, np.where(conformal, FRAME_OK, FRAME_CONFORMAL),
                      FRAME_MASKED).astype(np.int8)

    # from here on, only the samples that passed, as (K, dim) arrays
    sel = np.flatnonzero(conformal)
    whole = sel.size == ny * nx

    def pick(x):
        x = x.reshape((ny * nx,) + x.shape[2:])
        return x if whole else x[sel]

    f, fx, fy, a, c, fxx, fyy, fxy, eu = map(pick, (f, fx, fy, a, c, fxx,
                                                    fyy, fxy, eu))
    f_zzbar = 0.25 * (fxx + fyy)
    zz_re = 0.25 * (fxx - fyy)
    zz_im = -(0.5 * fxy)
    if lorentz:
        # N_i = G_ii eps_ijkl Y^j F_x^k F_y^l, from the six 2x2 minors
        # m_kl of (F_x, F_y) and the position row Y
        y = f if scale is None else scale * f + np.array([1.0, 0.0, 0.0, 0.0])
        m01, m02, m03, m12, m13, m23 = (
            fx[:, k] * fy[:, l] - fx[:, l] * fy[:, k]
            for k, l in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))
        y0, y1, y2, y3 = y.T
        n_vec = np.stack([y1 * m23 - y2 * m13 + y3 * m12,
                          y0 * m23 - y2 * m03 + y3 * m02,
                          y1 * m03 - y0 * m13 - y3 * m01,
                          y0 * m12 - y1 * m02 + y2 * m01], axis=1)
        # the rank rule of the docstring: |N|^2, e1 and e2 are the
        # elementary symmetric functions of the rows' squared singular
        # values
        n2 = np.einsum("ki,ki->k", n_vec, n_vec)
        yy, xx, ww = (np.einsum("ki,ki->k", r, r) for r in (y, fx, fy))
        yx, yw, xw = (np.einsum("ki,ki->k", r, s)
                      for r, s in ((y, fx), (y, fy), (fx, fy)))
        e1 = yy + xx + ww
        e2 = (yy * xx - yx * yx) + (yy * ww - yw * yw) + (xx * ww - xw * xw)
        bad = ~(n2 > 1e-16 * e1 * e2)
        n_vec = n_vec / np.sqrt(np.where(bad, 1.0, n2))[:, None]
        nn = _rowdot(n_vec * _LORENTZ_SIGNS, n_vec)
        timelike = ~bad & (nn <= 1e-12)
        codes = np.where(bad, FRAME_RANK, FRAME_TIMELIKE)
        bad |= timelike
        n_vec = n_vec / np.sqrt(np.where(bad, 1.0, nn))[:, None]
        # a row of F_zzbar that is not finite leaves N as it is: the sign
        # of (F_zzbar|N) is not defined there
        flip = ((_rowdot(f_zzbar * _LORENTZ_SIGNS, n_vec) < 0.0)
                & np.isfinite(f_zzbar).all(axis=1))
        n_vec = np.where(flip[:, None], -n_vec, n_vec)
    else:
        n_vec = np.cross(fx, fy)
        norm = np.sqrt(_rowdot(n_vec, n_vec))
        bad = norm <= 1e-14
        codes = np.full(bad.shape, FRAME_COLLINEAR)
        n_vec = n_vec / np.where(bad, 1.0, norm)[:, None]
    if bad.any():
        reason.reshape(-1)[sel[bad]] = codes[bad]
        keep = ~bad
        f, fx, fy, a, c, f_zzbar, zz_re, zz_im, n_vec, eu = (
            x[keep] for x in (f, fx, fy, a, c, f_zzbar, zz_re, zz_im, n_vec,
                              eu))
    # (F_z|F_z) = sum (a_k - i c_k)^2 with the target's signature
    ip_re = _form(a * a - c * c, lorentz)
    ip_im = 2.0 * _form(a * c, lorentz)
    q = np.empty(eu.shape, dtype=complex)
    q.real = _form(zz_re * n_vec, lorentz)
    q.imag = _form(zz_im * n_vec, lorentz)
    vals = {"F": f, "fx": fx, "fy": fy, "N": n_vec, "u": np.log(eu),
            "H": 2.0 * _form(f_zzbar * n_vec, lorentz) / eu,
            "Q": q, "conf": np.hypot(ip_re, ip_im) / eu}
    return reason, vals


def frame_sweep(patch, ring=1):
    """Frame and curvature estimates at every sample at least ring samples
    from the grid edge, as arrays; the grid-wide form of
    frame_and_curvature, with identical values and skip rules.

    Each sample takes one stencil: the fourth-order ones when it lies two
    or more samples from every edge and its whole 5x5 block is valid, else
    the second-order ones, which need the 3x3 block valid and are formed
    only at the samples gathered for them.  A sample is
    skipped, with the FRAME_* code of the reason, when its stencil touches
    a masked sample, e^u is not positive and finite, the Lorentz frame
    rows are rank-deficient or the Lorentz normal is not spacelike, or the
    Euclidean tangents are collinear.  The Lorentz frame rows are
    (Y, F_x, F_y), the position row Y being F for h3 and lambda F + e0
    for e3-limit (see _position_scale).  They are
    rank-deficient unless |N|^2 > 1e-16 e1 e2, where N is the unnormalized
    cross product and e1, e2 are the first two elementary symmetric
    functions of the rows' squared singular values (see _frame_block).
    The grid is processed in blocks of output rows, which bounds the
    temporaries.
    """
    ring = int(ring)
    if ring < 1:
        raise ValueError("ring must be at least 1, got %d" % ring)
    ny, nx, _ = patch.points.shape
    reason = np.full((ny, nx), FRAME_EDGE, dtype=np.int8)
    u = np.full((ny, nx), np.nan)
    h_est = np.full((ny, nx), np.nan)
    q_est = np.full((ny, nx), complex(np.nan, np.nan))
    conf = np.full((ny, nx), np.nan)
    scale = _position_scale(patch)
    c0, c1 = ring, nx - ring
    if c1 > c0:
        p, v = _padded(patch)
        for r0 in range(ring, ny - ring, _SWEEP_ROWS):
            r1 = min(r0 + _SWEEP_ROWS, ny - ring)
            code, vals = _frame_block(p[r0:r1 + 4, c0:c1 + 4],
                                      v[r0:r1 + 4, c0:c1 + 4],
                                      patch.domain.dx, patch.domain.dy, scale)
            reason[r0:r1, c0:c1] = code
            ok = code == FRAME_OK
            u[r0:r1, c0:c1][ok] = vals["u"]
            h_est[r0:r1, c0:c1][ok] = vals["H"]
            q_est[r0:r1, c0:c1][ok] = vals["Q"]
            conf[r0:r1, c0:c1][ok] = vals["conf"]
    return FrameSweep(reason=reason, u=u, H_est=h_est, Q_est=q_est,
                      conformality=conf)


def frame_and_curvature(patch, index):
    """Reconstruct the frame at an interior grid point by differencing.

    F_z, F_zbar are Wirtinger central differences of the stored points.
    For Lorentz targets the normal N solves (F - C|N) = (F_z|N) =
    (F_zbar|N) = 0 with (N|N) = 1, C the centre of the target's
    hyperboloid (the origin for h3, -e0/lambda for e3-limit); it is the
    4-D cross product of lambda (F - C) (F for h3), F_x and F_y, with the
    sign such that
    (F_zzbar|N) >= 0, the choice that is continuous across the grid for
    patches with H > 0.  For Euclidean targets N is the normalized cross
    product of the tangents.  The estimates follow the defining relations

        e^u = 2 (F_z|F_zbar),  H = 2 e^{-u} (F_zzbar|N),  Q = (F_zz|N).

    Stencils and skip rules are those of frame_sweep, evaluated on the 5x5
    window around the index; a skipped sample raises DegenerateFrame.
    """
    i, j = index
    ny, nx, _ = patch.points.shape
    if not (1 <= i <= ny - 2 and 1 <= j <= nx - 2):
        raise ValueError("interior grid point required, got (%d, %d)" % (i, j))
    p, v = _padded(patch)
    code, vals = _frame_block(p[i:i + 5, j:j + 5], v[i:i + 5, j:j + 5],
                              patch.domain.dx, patch.domain.dy,
                              _position_scale(patch))
    if code[0, 0] != FRAME_OK:
        raise DegenerateFrame(FRAME_REASON_NAMES[int(code[0, 0])][1] % (i, j))
    fx = vals["fx"][0]
    fy = vals["fy"][0]
    return FrameSample(F=vals["F"][0], F_z=0.5 * (fx - 1j * fy),
                       F_zbar=0.5 * (fx + 1j * fy), N=vals["N"][0],
                       u=float(vals["u"][0]), H_est=float(vals["H"][0]),
                       Q_est=complex(vals["Q"][0]))
