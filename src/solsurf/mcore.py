"""Hermitian-matrix model of the Lorentz space R^{3,1}.

A real 4-vector X = (X0, X1, X2, X3) with inner product

    (X|Y) = X1*Y1 + X2*Y2 + X3*Y3 - X0*Y0

is identified with the 2x2 Hermitian matrix

    X^s = X0*I + X1*s1 + X2*s2 + X3*s3
        = [[X0 + X3, X1 - i*X2],
           [X1 + i*X2, X0 - X3]]

(s_k the Pauli matrices).  Under this identification (X|X) = -det X^s,
and SL(2,C) acts isometrically by a . X = a^H X^s a.

Matrices are 2x2 complex numpy arrays, Lorentz vectors length-4 float
arrays, throughout.  All functions are pure.
"""

import numpy as np

SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
ID2 = np.eye(2, dtype=complex)

# Spinor metric eps = i*s2; for any 2x2 A, eps A^T eps^T = adj(A), which
# is what makes the polarized form of (X|Y) below work.
EPS = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)


class NotHermitian(ValueError):
    """Matrix handed to a Hermitian-only routine has a skew part above tolerance."""


class NotUnimodular(ValueError):
    """Group element handed to the SL(2,C) action has det away from 1."""


def dagger(m):
    """Conjugate transpose."""
    return np.conj(np.asarray(m)).T


def det2(m):
    """Determinant of a 2x2 matrix, straight from the entries."""
    m = np.asarray(m)
    return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]


def hermitian_from_lorentz(x):
    """Map a real 4-vector (X0, X1, X2, X3) to its Hermitian matrix X^s."""
    x = np.asarray(x, dtype=float)
    if x.shape != (4,):
        raise ValueError("expected a length-4 real vector, got shape %r" % (x.shape,))
    x0, x1, x2, x3 = x
    return np.array([[x0 + x3, x1 - 1j * x2],
                     [x1 + 1j * x2, x0 - x3]], dtype=complex)


def lorentz_from_hermitian(m, tol=1e-10):
    """Invert hermitian_from_lorentz.

    The input is symmetrized before the components are read off, so
    integration jitter of order tol does not leak into the vector.  A skew
    part with any entry above tol raises NotHermitian.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape != (2, 2):
        raise ValueError("expected a 2x2 matrix, got shape %r" % (m.shape,))
    skew = 0.5 * (m - dagger(m))
    if np.max(np.abs(skew)) > tol:
        raise NotHermitian("skew part has magnitude %.3e > tol %.3e"
                           % (float(np.max(np.abs(skew))), tol))
    h = 0.5 * (m + dagger(m))
    x0 = 0.5 * (h[0, 0] + h[1, 1]).real
    x3 = 0.5 * (h[0, 0] - h[1, 1]).real
    x1 = h[1, 0].real
    x2 = h[1, 0].imag
    return np.array([x0, x1, x2, x3])


def lorentz_inner(x, y):
    """Minkowski product X1*Y1 + X2*Y2 + X3*Y3 - X0*Y0 of real 4-vectors."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return float(x[1] * y[1] + x[2] * y[2] + x[3] * y[3] - x[0] * y[0])


def lorentz_inner_c(x, y):
    """Bilinear extension of lorentz_inner to complex 4-vectors (no conjugation)."""
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    return complex(x[1] * y[1] + x[2] * y[2] + x[3] * y[3] - x[0] * y[0])


def inner_from_matrices(mx, my):
    """Polarized Minkowski product, computed on the matrix side.

    (X|Y) = (1/2) tr(X^s eps (Y^s)^T eps).  Equals -det X^s when Y = X.
    """
    mx = np.asarray(mx, dtype=complex)
    my = np.asarray(my, dtype=complex)
    return complex(0.5 * np.trace(mx @ EPS @ my.T @ EPS))


def rho_action(a, x):
    """Lorentz transformation of the 4-vector x by a in SL(2,C).

    Computes a^H X^s a and reads the components back off, allowing a skew
    part up to 1e-8.  Raises NotUnimodular if |det a - 1| > 1e-10.
    """
    a = np.asarray(a, dtype=complex)
    if a.shape != (2, 2):
        raise ValueError("expected a 2x2 matrix, got shape %r" % (a.shape,))
    d = det2(a)
    if abs(d - 1.0) > 1e-10:
        raise NotUnimodular("det = %r is not 1 within 1e-10" % (d,))
    m = dagger(a) @ hermitian_from_lorentz(x) @ a
    return lorentz_from_hermitian(m, tol=1e-8)
