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

Grid sampling probes the data over the grid in array passes, integrates
one seed column and then each row from its column-0 value.  The ODE
targets integrate first and immerse afterwards.  They hop from sample to
sample, each hop starting from the wavefunction at the previous one:
down the seed column one scalar propagate at a time, then along all rows
at once, one column per array pass.  Each row's hop is first tried as
the single full Dormand-Prince step the scalar integrator starts with,
over a coefficient table of the array closures that one pass per block
of columns fills at all six stage times, and with one stacked product
per stage; the hops that step does not settle go through the scalar
propagate, so the results are those of hopping sample by sample.  A pass
over the valid samples then applies the Sym-type formula.  The classical
integral carries no state from hop to hop, so e3-direct integrates all
hops of the seed column, and then of each row, as one batch of
quadratures (adaptive_gl_batch over the array closures) and accumulates
them with a cumsum.  Everything runs on the calling thread.

frame_sweep reconstructs the frame and curvature estimates over the whole
grid with array stencils; frame_and_curvature is the same computation at
one sample.
"""

from dataclasses import dataclass, field

import numpy as np

from ._carith import cabs, cmul
# adaptive_gl is not called here; it stays a module name because the
# benchmark tracer in solbench/ wraps immersion.adaptive_gl
from ._quad import QuadratureFailure, adaptive_gl, adaptive_gl_batch  # noqa: F401
from .geom import EVAL_ERRORS, DomainError, WeierstrassData
from .lsp import (StepUnderflow, _ID4, _UNIT_NODES, _segment_coefs_array,
                  _unit_step_array, propagate)

__all__ = [
    "DomainRect", "SurfacePatch", "FrameSample", "FrameSweep", "LambdaZero",
    "DegenerateFrame", "sym_immersion", "shifted_immersion",
    "enneper_weierstrass", "loop_period", "sample_surface", "frame_sweep",
    "frame_and_curvature",
]

TARGETS = ("h3", "e3-limit", "e3-direct")

# grid rows (or columns) per block of the array passes over the grid (the
# probe, the coefficient tables of the ODE row sweep, the immersion pass
# after it, and the output rows of frame_sweep, which also read a two-row
# halo), so their temporaries stay a few grid rows deep instead of
# grid-sized
_SWEEP_ROWS = 8

# the Dormand-Prince nodes of one full step as a column, so that one call
# of the array coefficient tabulates a block's hops at all six: (6, 4, m)
_NODE_AXIS = np.array(_UNIT_NODES)[:, None]


class LambdaZero(ValueError):
    """Sym-type formulas require lambda != 0."""


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

def _check_wavefunction(phi):
    v = np.asarray(phi.value, dtype=complex)
    if v.shape != (2, 2):
        raise ValueError("wavefunction value must be 2x2")
    d = v[0, 0] * v[1, 1] - v[0, 1] * v[1, 0]
    if abs(d - 1.0) > 1e-6:
        raise ValueError("wavefunction determinant drifted to %r; "
                         "re-integrate with a tighter tolerance" % (d,))
    return v


def _lorentz4(y, lam, shift=0.0):
    """Lorentz 4-vector of (Phi^H Phi - shift I)/lambda, Phi given by its
    row-major entries y: a 4-tuple of complex numbers, or of arrays (one
    wavefunction per element).

    Shift 0 is the Sym-type formula, shift 1 its origin-shifted form.  The
    components are read off the Hermitian matrix as in mcore, whose
    lorentz_from_hermitian the tests keep as the reference.  The entry
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


def sym_immersion(phi, lam=None):
    """Hyperboloid point (1/lambda) Phi^H Phi as a Lorentz 4-vector."""
    lam = phi.lam if lam is None else float(lam)
    if lam == 0.0:
        raise LambdaZero("lambda = 0 has no hyperboloid; use the shifted limit")
    v = _check_wavefunction(phi)
    return np.array(_lorentz4(v.ravel(), lam))


def shifted_immersion(phi, lam=None):
    """Origin-shifted immersion (Phi^H Phi - I)/lambda as a 4-vector.

    With the reduced wavefunction this converges, entrywise at rate
    O(lambda), to the flat-limit surface; X0 -> 0 in the limit.
    """
    lam = phi.lam if lam is None else float(lam)
    if lam == 0.0:
        raise LambdaZero("the shift is evaluated at finite lambda")
    v = _check_wavefunction(phi)
    return np.array(_lorentz4(v.ravel(), lam, 1.0))


def _phi_vector_batch(data):
    """The integrand (1/2 (1 - psi^2), i/2 (1 + psi^2), psi) eta^2 over an
    array of points, one row per point, from the array closures of eta
    and psi; cmul rounds each product as Python's complex type does."""
    eta_a, _, psi_a, _ = data.array_functions()

    def fvals(z):
        ev, pv = eta_a(z), psi_a(z)
        e2 = cmul(ev, ev)
        p2 = cmul(pv, pv)
        return np.stack((cmul(cmul(0.5, 1.0 - p2), e2),
                         cmul(cmul(0.5j, 1.0 + p2), e2), cmul(pv, e2)), axis=1)

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
                                "or error above tol %.3e" % (a, b, tol))
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

def _probe_validity(data, zgrid, need_deta):
    """Samples where eta, psi, psi' (and eta' for the full system) are
    finite and eta is nonzero, by array evaluation over blocks of rows
    (which bounds the temporaries of series such as erf)."""
    eta_a, deta_a, psi_a, dpsi_a = data.array_functions()
    others = (psi_a, dpsi_a) + ((deta_a,) if need_deta else ())
    valid = np.empty(zgrid.shape, dtype=bool)
    for r0 in range(0, zgrid.shape[0], _SWEEP_ROWS):
        z = zgrid[r0:r0 + _SWEEP_ROWS]
        ev = eta_a(z)
        ok = np.isfinite(ev) & (ev != 0.0)
        for f in others:
            ok &= np.isfinite(f(z))
        valid[r0:r0 + _SWEEP_ROWS] = ok
    return valid


def _direct_run(fvals, z_start, acc, zs, tol):
    """Classical integral at the points zs, accumulated hop by hop from
    z_start, where it is acc.

    Every hop between consecutive points is integrated in one batch and
    the running sums are a cumsum seeded by acc.  A hop that fails masks
    its end point; the hop after it is re-planned from the last good
    point in a further batch.  Returns (values, ok), ok False at the
    masked points.
    """
    m = len(zs)
    vals = np.full((m, 3), complex(np.nan, np.nan))
    ok = np.zeros(m, dtype=bool)
    if m == 0:
        return vals, ok
    starts = np.concatenate([[z_start], zs[:-1]])
    hops, failed = adaptive_gl_batch(fvals, starts, zs, tol=tol)
    k = 0
    while k < m:
        bad = np.flatnonzero(failed[k:])
        stop = k + bad[0] if bad.size else m
        if stop > k:
            vals[k:stop] = np.cumsum(np.vstack([acc, hops[k:stop]]),
                                     axis=0)[1:]
            ok[k:stop] = True
            acc = vals[stop - 1]
            z_start = zs[stop - 1]
        k = stop + 1
        if k < m:
            hops[k:k + 1], failed[k:k + 1] = adaptive_gl_batch(
                fvals, [z_start], zs[k:k + 1], tol=tol)
    return vals, ok


def _sample_direct(data, zgrid, valid, tol):
    """Points of the classical integral over the grid, masking valid where
    a hop fails: the seed column from z0 as one batch, then each row as
    one batch from its column-0 value."""
    ny, nx = zgrid.shape
    points = np.full((ny, nx, 3), np.nan)
    fvals = _phi_vector_batch(data)
    rows = np.flatnonzero(valid[:, 0])
    col, ok = _direct_run(fvals, data.z0, np.zeros(3, dtype=complex),
                          zgrid[rows, 0], tol)
    valid[rows[~ok], 0] = False
    valid[~valid[:, 0], 1:] = False
    for i, acc in zip(rows[ok], col[ok]):
        points[i, 0] = acc.real
        cols = 1 + np.flatnonzero(valid[i, 1:])
        vals, ok_row = _direct_run(fvals, zgrid[i, 0], acc, zgrid[i, cols], tol)
        points[i, cols[ok_row]] = vals[ok_row].real
        valid[i, cols[~ok_row]] = False
    return points


def sample_surface(data, domain, target, tol=1e-8, threads=1, system=None):
    """Sample the immersion over a rectangular grid into a SurfacePatch.

    target 'h3' integrates the full system at H = lambda and applies the
    Sym-type formula; 'e3-limit' integrates the reduced system and applies the
    shifted formula; 'e3-direct' accumulates the classical integral.
    Residual records: 'hyperboloid' and 'det_drift' for h3, 'x0_abs' and
    'det_drift' for the limit target.

    system overrides the linear system for the h3 target: 'reduced' uses
    the holomorphic form, whose Sym-type image is the same surface moved
    by one global isometry (the gauge between the systems is unitary).

    The grid is probed first, by array evaluation of the data: points
    where it is not finite, or eta vanishes, are masked, as are points
    whose hop fails.  The ODE targets hop sample by sample down the seed
    column and then along all rows at once, a column at a time, with the
    scalar integrator only for the hops that one full step does not
    settle, and then apply the formula (see _sample_ode); e3-direct
    integrates the seed column and then each row as one batch of
    quadratures (see _direct_run).

    threads is accepted and ignored; rows always run on the calling thread.
    """
    if target not in TARGETS:
        raise ValueError("target must be one of %r" % (TARGETS,))
    lam = data.lam
    if target in ("h3", "e3-limit") and lam == 0.0:
        raise LambdaZero("target %r needs lambda != 0" % (target,))
    if system is None:
        system = "full" if target == "h3" else "reduced"
    elif target != "h3" or system not in ("full", "reduced"):
        raise ValueError("system override applies to the h3 target only")
    zgrid = domain.grid()
    valid = _probe_validity(data, zgrid, need_deta=(system == "full"))
    if target == "e3-direct":
        points, residuals = _sample_direct(data, zgrid, valid, tol), {}
    else:
        points, residuals = _sample_ode(data, zgrid, valid, target, tol,
                                        system)
    return SurfacePatch(data=data, domain=domain, target=target, lam=lam,
                        tol=tol, points=points, valid=valid, residuals=residuals)


def _sample_ode(data, zgrid, valid, target, tol, system):
    """Points and residual records of the ODE targets over the grid,
    masking valid where a hop fails.

    The sweep fills one (4, ny, nx) grid with the wavefunction's entries.
    The seed column hops from z0 down column 0, one scalar propagate per
    sample, since each hop starts where the last ended.  Then the rows
    advance together, one column at a time.  The hop into each sample was
    planned from the probe mask, starting at the row's previous valid
    sample.  For each block of _SWEEP_ROWS columns, one call of the array
    coefficient over the (6, 1) node axis _NODE_AXIS tabulates all
    planned hops at the stage times of one full step, a (6, 4, m) table;
    per column one fancy index gathers its hops' six node tables, and
    every row's step is taken at once (lsp._unit_step_array).  A hop
    whose step _integrate_unit would not accept as it stands, or whose
    planned start failed, goes through the scalar propagate from the
    row's last valid sample, so the adaptive control stays in one place
    and the results are those of hopping sample by sample.  Then one pass
    over the valid samples, _SWEEP_ROWS rows at a time, applies _lorentz4
    and fills the records; masked samples stay NaN.
    """
    lam = data.lam
    ny, nx = zgrid.shape
    hop_errors = (StepUnderflow, DomainError) + EVAL_ERRORS

    def hop(z_from, z_to, y):
        return propagate(data, z_from, z_to, y, tol=tol, system=system)

    # the wavefunction's row-major entries at every valid sample
    phi = np.zeros((4, ny, nx), dtype=complex)
    y = _ID4
    cur_z = data.z0
    for i in np.flatnonzero(valid[:, 0]):
        try:
            y = hop(cur_z, zgrid[i, 0], y)
        except hop_errors:
            valid[i, 0] = False
            continue
        phi[:, i, 0] = y
        cur_z = zgrid[i, 0]
    valid[~valid[:, 0], 1:] = False

    # plan: the hop into (i, j) starts at row i's previous valid column
    cols = np.where(valid, np.arange(nx), -1)
    prev = np.maximum.accumulate(cols, axis=1)[:, :-1]
    coef = _segment_coefs_array(data, system)
    with np.errstate(all="ignore"):
        for j0 in range(1, nx, _SWEEP_ROWS):
            j1 = min(j0 + _SWEEP_ROWS, nx)
            # planned hops of the block, column by column
            jj, ii = np.nonzero(valid[:, j0:j1].T)
            za = zgrid[ii, prev[ii, j0 - 1 + jj]]
            d = zgrid[ii, j0 + jj] - za
            table = coef(za, d, _NODE_AXIS)
            bounds = np.searchsorted(jj, np.arange(j1 - j0 + 1))
            for j in range(j0, j1):
                lo, hi = bounds[j - j0], bounds[j - j0 + 1]
                rows = ii[lo:hi]
                start = prev[rows, j - 1]
                k = np.flatnonzero(valid[rows, start])
                ynew, ok = _unit_step_array(table[:, :, lo + k],
                                            phi[:, rows[k], start[k]], tol)
                phi[:, rows[k[ok]], j] = ynew[:, ok]
                # the rest start at the row's last valid sample
                failed = np.ones(rows.size, dtype=bool)
                failed[k[ok]] = False
                for i in rows[failed]:
                    last = np.flatnonzero(valid[i, :j])[-1]
                    try:
                        phi[:, i, j] = hop(zgrid[i, last], zgrid[i, j],
                                           tuple(phi[:, i, last].tolist()))
                    except hop_errors:
                        valid[i, j] = False

        # immerse the valid samples, a block of rows at a time
        shift = 0.0 if target == "h3" else 1.0
        points = np.full((ny, nx, 4), np.nan)
        drift = np.full((ny, nx), np.nan)
        record = np.full((ny, nx), np.nan)
        for r0 in range(0, ny, _SWEEP_ROWS):
            block = slice(r0, r0 + _SWEEP_ROWS)
            ok = valid[block]
            y = phi[:, block][:, ok]
            x = _lorentz4(y, lam, shift)
            points[block][ok] = np.stack(x, axis=1)
            drift[block][ok] = cabs(cmul(y[0], y[3]) - cmul(y[1], y[2]) - 1.0)
            if target == "h3":
                record[block][ok] = (x[1] * x[1] + x[2] * x[2] + x[3] * x[3]
                                     - x[0] * x[0] + 1.0 / (lam * lam))
            else:
                record[block][ok] = np.abs(x[0])
    name = "hyperboloid" if target == "h3" else "x0_abs"
    return points, {"det_drift": drift, name: record}


# ---------------------------------------------------------------------------
# frame reconstruction

_G_LORENTZ = np.diag([-1.0, 1.0, 1.0, 1.0])

# per-sample outcome codes of the frame reconstruction; FRAME_OK marks an
# evaluated sample, FRAME_EDGE one outside the swept ring
FRAME_OK = 0
FRAME_EDGE = 1
FRAME_MASKED = 2
FRAME_CONFORMAL = 3
FRAME_RANK = 4
FRAME_TIMELIKE = 5
FRAME_COLLINEAR = 6

_FRAME_MESSAGES = {
    FRAME_MASKED: "stencil touches a masked sample at (%d, %d)",
    FRAME_CONFORMAL: "conformal factor nonpositive at (%d, %d)",
    FRAME_RANK: "frame rows rank-deficient at (%d, %d)",
    FRAME_TIMELIKE: "normal direction not spacelike at (%d, %d)",
    FRAME_COLLINEAR: "tangents collinear at (%d, %d)",
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
    """x[k] @ y[k] for each row k, by a stacked matmul.

    Near a pole the Lorentz normal is almost null and (N|N) cancels by
    several digits, so the summation order shows in H and Q; the stacked
    matmul rounds like the 1-D product x[k] @ y[k], which keeps the sweep
    within 1e-9 of the per-point reference in tests/test_frame_sweep.py.
    """
    return (x[:, None, :] @ y[:, :, None])[:, 0, 0]


def _window(patch, r0, r1, c0, c1):
    """Points and mask over rows r0-2 .. r1+1 and columns c0-2 .. c1+1,
    the samples [r0:r1, c0:c1] with a two-sample halo; halo cells that
    fall outside the grid are masked."""
    ny, nx, dim = patch.points.shape
    p = np.full((r1 - r0 + 4, c1 - c0 + 4, dim), np.nan)
    v = np.zeros(p.shape[:2], dtype=bool)
    i0, i1 = max(r0 - 2, 0), min(r1 + 2, ny)
    j0, j1 = max(c0 - 2, 0), min(c1 + 2, nx)
    dst = (slice(i0 - r0 + 2, i1 - r0 + 2), slice(j0 - c0 + 2, j1 - c0 + 2))
    p[dst] = patch.points[i0:i1, j0:j1]
    v[dst] = patch.valid[i0:i1, j0:j1]
    return p, v


def _frame_block(p, valid, dx, dy):
    """Frame and curvature at every inner sample of a window from _window.

    Returns (reason, vals): reason is the FRAME_* code of each inner
    sample, and vals maps F, fx, fy, N, u, H, Q and conf to arrays over
    the samples with code FRAME_OK, in row-major order.
    """
    lorentz = p.shape[-1] == 4
    ny, nx = valid.shape[0] - 4, valid.shape[1] - 4

    def at(di, dj, a=p):
        return a[2 + di:2 + di + ny, 2 + dj:2 + dj + nx]

    near = np.ones((ny, nx), dtype=bool)
    wide = np.ones((ny, nx), dtype=bool)
    for di in range(-2, 3):
        for dj in range(-2, 3):
            wide &= at(di, dj, valid)
            if abs(di) <= 1 and abs(dj) <= 1:
                near &= at(di, dj, valid)

    f = at(0, 0)
    fx = (at(0, 1) - at(0, -1)) / (2.0 * dx)
    fy = (at(1, 0) - at(-1, 0)) / (2.0 * dy)
    fxx = (at(0, 1) - 2.0 * f + at(0, -1)) / (dx * dx)
    fyy = (at(1, 0) - 2.0 * f + at(-1, 0)) / (dy * dy)
    fxy = (at(1, 1) - at(1, -1) - at(-1, 1) + at(-1, -1)) / (4.0 * dx * dy)

    # fourth-order stencils where the whole 5x5 block is valid; exact
    # through quartics, which keeps the conformality residual at
    # truncation level even on coarse grids
    def d1x(di):
        return (-at(di, 2) + 8.0 * at(di, 1)
                - 8.0 * at(di, -1) + at(di, -2)) / (12.0 * dx)

    w = wide[..., None]
    fx = np.where(w, d1x(0), fx)
    fy = np.where(w, (-at(2, 0) + 8.0 * at(1, 0)
                      - 8.0 * at(-1, 0) + at(-2, 0)) / (12.0 * dy), fy)
    fxx = np.where(w, (-at(0, 2) + 16.0 * at(0, 1) - 30.0 * f
                       + 16.0 * at(0, -1) - at(0, -2)) / (12.0 * dx * dx), fxx)
    fyy = np.where(w, (-at(2, 0) + 16.0 * at(1, 0) - 30.0 * f
                       + 16.0 * at(-1, 0) - at(-2, 0)) / (12.0 * dy * dy), fyy)
    fxy = np.where(w, (-d1x(2) + 8.0 * d1x(1)
                       - 8.0 * d1x(-1) + d1x(-2)) / (12.0 * dy), fxy)

    # e^u = 2 (F_z|F_zbar) with F_z = a - i c, F_zbar = a + i c
    a = 0.5 * fx
    c = 0.5 * fy
    eu = 2.0 * _form(a * a + c * c, lorentz)
    conformal = near & (eu > 0.0) & np.isfinite(eu)
    reason = np.where(near, np.where(conformal, FRAME_OK, FRAME_CONFORMAL),
                      FRAME_MASKED).astype(np.int8)

    # from here on, only the samples that passed, as (K, dim) arrays
    sel = np.flatnonzero(conformal)

    def pick(x):
        return x.reshape(ny * nx, -1)[sel]

    f, fx, fy, a, c, fxx, fyy, fxy = map(pick, (f, fx, fy, a, c,
                                                fxx, fyy, fxy))
    eu = eu.reshape(-1)[sel]
    f_zzbar = 0.25 * (fxx + fyy)
    zz_re = 0.25 * (fxx - fyy)
    zz_im = -(0.5 * fxy)
    if lorentz:
        rows = np.stack([f, fx, fy], axis=1)
        _, sv, vt = np.linalg.svd(rows @ _G_LORENTZ)
        # rank < 3 means the nullspace is not one-dimensional and the
        # normal direction is ambiguous
        bad = (sv[:, 0] == 0.0) | (sv[:, 2] <= 1e-8 * sv[:, 0])
        n_vec = vt[:, -1]
        nn = _rowdot(n_vec @ _G_LORENTZ, n_vec)
        timelike = ~bad & (nn <= 1e-12)
        codes = np.where(bad, FRAME_RANK, FRAME_TIMELIKE)
        bad |= timelike
        n_vec = n_vec / np.sqrt(np.where(bad, 1.0, nn))[:, None]
        flip = _rowdot(f_zzbar @ _G_LORENTZ, n_vec) < 0.0
        n_vec = np.where(flip[:, None], -n_vec, n_vec)
    else:
        n_vec = np.cross(fx, fy)
        norm = np.sqrt(_rowdot(n_vec, n_vec))
        bad = norm <= 1e-14
        codes = np.full(bad.shape, FRAME_COLLINEAR)
        n_vec = n_vec / np.where(bad, 1.0, norm)[:, None]
    reason.reshape(-1)[sel[bad]] = codes[bad]

    keep = ~bad
    eu = eu[keep]
    n_vec = n_vec[keep]
    a = a[keep]
    c = c[keep]
    # (F_z|F_z) = sum (a_k - i c_k)^2 with the target's signature
    ip_re = _form(a * a - c * c, lorentz)
    ip_im = 2.0 * _form(a * c, lorentz)
    q = np.empty(eu.shape, dtype=complex)
    q.real = _form(zz_re[keep] * n_vec, lorentz)
    q.imag = _form(zz_im[keep] * n_vec, lorentz)
    vals = {"F": f[keep], "fx": fx[keep], "fy": fy[keep], "N": n_vec,
            "u": np.log(eu),
            "H": 2.0 * _form(f_zzbar[keep] * n_vec, lorentz) / eu,
            "Q": q, "conf": np.hypot(ip_re, ip_im) / eu}
    return reason, vals


def frame_sweep(patch, ring=1):
    """Frame and curvature estimates at every sample at least ring samples
    from the grid edge, as arrays; the grid-wide form of
    frame_and_curvature, with identical values and skip rules.

    Each sample takes the fourth-order stencils when it lies two or more
    samples from every edge and its whole 5x5 block is valid, else the
    second-order ones, which need the 3x3 block valid.  A sample is
    skipped, with the FRAME_* code of the reason, when its stencil touches
    a masked sample, e^u is not positive and finite, the Lorentz frame
    rows are rank-deficient or the Lorentz normal is not spacelike, or the
    Euclidean tangents are collinear.  The grid is processed in blocks of
    output rows, which bounds the temporaries.
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
    c0, c1 = ring, nx - ring
    if c1 > c0:
        for r0 in range(ring, ny - ring, _SWEEP_ROWS):
            r1 = min(r0 + _SWEEP_ROWS, ny - ring)
            p, v = _window(patch, r0, r1, c0, c1)
            code, vals = _frame_block(p, v, patch.domain.dx, patch.domain.dy)
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

    F_z, F_zbar are Wirtinger central differences of the stored points;
    the normal N solves (F|N) = (F_z|N) = (F_zbar|N) = 0 with (N|N) = 1
    for Lorentz targets (sign such that (F_zzbar|N) >= 0, the choice that
    is continuous across the grid for patches with H > 0), and is the
    normalized cross product of the tangents for Euclidean targets.  The
    estimates follow the defining relations

        e^u = 2 (F_z|F_zbar),  H = 2 e^{-u} (F_zzbar|N),  Q = (F_zz|N).

    Stencils and skip rules are those of frame_sweep, evaluated on the 5x5
    window around the index; a skipped sample raises DegenerateFrame.
    """
    i, j = index
    ny, nx, _ = patch.points.shape
    if not (1 <= i <= ny - 2 and 1 <= j <= nx - 2):
        raise ValueError("interior grid point required, got (%d, %d)" % (i, j))
    p, v = _window(patch, i, i + 1, j, j + 1)
    code, vals = _frame_block(p, v, patch.domain.dx, patch.domain.dy)
    if code[0, 0] != FRAME_OK:
        raise DegenerateFrame(_FRAME_MESSAGES[int(code[0, 0])] % (i, j))
    fx = vals["fx"][0]
    fy = vals["fy"][0]
    return FrameSample(F=vals["F"][0], F_z=0.5 * (fx - 1j * fy),
                       F_zbar=0.5 * (fx + 1j * fy), N=vals["N"][0],
                       u=float(vals["u"][0]), H_est=float(vals["H"][0]),
                       Q_est=complex(vals["Q"][0]))
