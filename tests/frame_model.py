"""The frame block as it was before it formed one stencil per sample,
the reference that tests hold immersion._frame_block to bit for bit.

This _frame_block forms the second- and fourth-order stencils at every
sample of the window and selects one with np.where, takes the validity
of the 3x3 and 5x5 blocks from 25 shifted ANDs, gathers the conformal
samples and the samples with a frame, and signs the Lorentz forms by a
product with G = diag(-1, 1, 1, 1).  It is copied unchanged, with the
helpers it reads; a test swaps it in for immersion._frame_block to
make frame_sweep's reference output.
"""

import numpy as np

from solsurf.immersion import (FRAME_COLLINEAR, FRAME_CONFORMAL, FRAME_MASKED,
                               FRAME_OK, FRAME_RANK, FRAME_TIMELIKE)

_G_LORENTZ = np.diag([-1.0, 1.0, 1.0, 1.0])


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
    frame_and_curvature bit for bit.
    """
    return sum((x * y).T)



@np.errstate(all="ignore")
def _frame_block(p, valid, dx, dy, scale):
    """Frame and curvature at every inner sample of a window of _padded.

    Returns (reason, vals): reason is the FRAME_* code of each inner
    sample, and vals maps F, fx, fy, N, u, H, Q and conf to arrays over
    the samples with code FRAME_OK, in row-major order.

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
