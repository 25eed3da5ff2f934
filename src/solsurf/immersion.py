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
classical integral and the loop period share one segment loop.

Grid sampling integrates one seed column and then reuses the wavefunction
at the previous point of each row as the initial value for the next
(one integration sweep per row), so that the cost is O(grid) short
integrations.  Rows run one after another on the calling thread: the hops
are Python code, so a thread pool only contends for the interpreter lock.

frame_sweep reconstructs the frame and curvature estimates over the whole
grid with array stencils; frame_and_curvature is the same computation at
one sample.
"""

from dataclasses import dataclass, field

import numpy as np

from ._quad import QuadratureFailure, adaptive_gl
from .geom import EVAL_ERRORS, DomainError, WeierstrassData
from .lsp import StepUnderflow, _det4, _ID4, propagate

__all__ = [
    "DomainRect", "SurfacePatch", "FrameSample", "FrameSweep", "LambdaZero",
    "DegenerateFrame", "sym_immersion", "shifted_immersion",
    "enneper_weierstrass", "loop_period", "sample_surface", "frame_sweep",
    "frame_and_curvature",
]

TARGETS = ("h3", "e3-limit", "e3-direct")


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
    """Lorentz 4-vector of (Phi^H Phi - shift I)/lambda, Phi given as the
    row-major 4-tuple y of its entries.

    Shift 0 is the Sym-type formula, shift 1 its origin-shifted form.  The
    components are read off the Hermitian matrix as in mcore, whose
    lorentz_from_hermitian the tests keep as the reference.
    """
    a, b, c, d = y
    q11 = (a.conjugate() * a + c.conjugate() * c).real - shift
    q22 = (b.conjugate() * b + d.conjugate() * d).real - shift
    p12 = a.conjugate() * b + c.conjugate() * d
    return (0.5 * (q11 + q22) / lam, p12.real / lam,
            -p12.imag / lam, 0.5 * (q11 - q22) / lam)


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


def _phi_vector_fn(data):
    eta_f, _, psi_f, _ = data.functions()

    def fvec(z):
        ev = eta_f(z)
        pv = psi_f(z)
        e2 = ev * ev
        p2 = pv * pv
        return np.array([0.5 * (1.0 - p2) * e2,
                         0.5j * (1.0 + p2) * e2,
                         pv * e2])

    return fvec


def _path_integral(data, path, tol):
    """Complex integral of the integrand vector along the validated path,
    segment by segment."""
    path.validate()
    fvec = _phi_vector_fn(data)
    total = np.zeros(3, dtype=complex)
    for a, b in path.segments():
        total = total + adaptive_gl(fvec, a, b, tol=tol)
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
    eta_f, deta_f, psi_f, dpsi_f = data.functions()
    ny, nx = zgrid.shape
    valid = np.zeros((ny, nx), dtype=bool)
    for i in range(ny):
        for j in range(nx):
            z = zgrid[i, j]
            try:
                ev = eta_f(z)
                psi_f(z)
                dpsi_f(z)
                if need_deta:
                    deta_f(z)
                ok = ev != 0.0
            except EVAL_ERRORS:
                ok = False
            valid[i, j] = ok
    return valid


def sample_surface(data, domain, target, tol=1e-8, H=None, threads=1,
                   system=None):
    """Sample the immersion over a rectangular grid into a SurfacePatch.

    target 'h3' integrates the full system and applies the Sym-type
    formula; 'e3-limit' integrates the reduced system and applies the
    shifted formula; 'e3-direct' accumulates the classical integral.
    Residual records: 'hyperboloid' and 'det_drift' for h3, 'x0_abs' and
    'det_drift' for the limit target.

    system overrides the linear system for the h3 target: 'reduced' uses
    the holomorphic form, whose Sym-type image is the same surface moved
    by one global isometry (the gauge between the systems is unitary).

    The grid is probed first; points where the data fails to evaluate are
    masked, as are points whose row integration fails.

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
    ny, nx = zgrid.shape
    valid = _probe_validity(data, zgrid, need_deta=(system == "full"))
    if target == "e3-direct":
        points = np.full((ny, nx, 3), np.nan)
        residuals = {}
    else:
        points = np.full((ny, nx, 4), np.nan)
        residuals = {"det_drift": np.full((ny, nx), np.nan)}
        if target == "h3":
            residuals["hyperboloid"] = np.full((ny, nx), np.nan)
        else:
            residuals["x0_abs"] = np.full((ny, nx), np.nan)

    hval = lam if H is None else float(H)

    if target == "e3-direct":
        fvec = _phi_vector_fn(data)

        def hop(z_from, z_to, acc):
            return acc + adaptive_gl(fvec, z_from, z_to, tol=tol)

        start_acc = np.zeros(3, dtype=complex)
        hop_errors = (QuadratureFailure,) + EVAL_ERRORS

        def emit(i, j, acc):
            points[i, j, :] = acc.real
    else:
        def hop(z_from, z_to, y):
            return propagate(data, z_from, z_to, y, tol=tol, system=system, H=hval)

        start_acc = _ID4
        hop_errors = (StepUnderflow, DomainError) + EVAL_ERRORS
        shift = 0.0 if target == "h3" else 1.0

        def emit(i, j, y):
            drift = abs(_det4(y) - 1.0)
            residuals["det_drift"][i, j] = drift
            x = _lorentz4(y, lam, shift)
            if target == "h3":
                residuals["hyperboloid"][i, j] = (x[1] * x[1] + x[2] * x[2]
                                                  + x[3] * x[3] - x[0] * x[0]
                                                  + 1.0 / (lam * lam))
            else:
                residuals["x0_abs"][i, j] = abs(x[0])
            points[i, j, :] = x

    # seed: base point to the first valid point of column 0, then down it
    col_vals = [None] * ny
    cur = None
    cur_z = data.z0
    for i in range(ny):
        if not valid[i, 0]:
            continue
        z = zgrid[i, 0]
        try:
            nxt = hop(cur_z, z, start_acc if cur is None else cur)
        except hop_errors:
            valid[i, 0] = False
            continue
        col_vals[i] = nxt
        cur = nxt
        cur_z = z

    def run_row(i):
        y = col_vals[i]
        if y is None:
            valid[i, 1:] = False
            return
        emit(i, 0, y)
        cur = y
        cur_z = zgrid[i, 0]
        for j in range(1, nx):
            if not valid[i, j]:
                continue
            z = zgrid[i, j]
            try:
                nxt = hop(cur_z, z, cur)
            except hop_errors:
                valid[i, j] = False
                continue
            emit(i, j, nxt)
            cur = nxt
            cur_z = z

    for i in range(ny):
        run_row(i)

    return SurfacePatch(data=data, domain=domain, target=target, lam=lam,
                        tol=tol, points=points, valid=valid, residuals=residuals)


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

# output rows per block of frame_sweep; each block also reads a two-row
# halo, so the temporaries stay a few grid rows deep instead of grid-sized
_SWEEP_ROWS = 8


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


def frame_and_curvature(patch, index, lam=None):
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
