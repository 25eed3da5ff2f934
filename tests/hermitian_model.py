"""Hermitian-matrix model of the Lorentz space R^{3,1}, the oracle that
tests hold the immersion formulas to.

A real 4-vector X = (X0, X1, X2, X3) with inner product

    (X|Y) = X1*Y1 + X2*Y2 + X3*Y3 - X0*Y0

is identified with the 2x2 Hermitian matrix

    X^s = X0*I + X1*s1 + X2*s2 + X3*s3
        = [[X0 + X3, X1 - i*X2],
           [X1 + i*X2, X0 - X3]]

(s_k the Pauli matrices).  Under this identification (X|X) = -det X^s,
and SL(2,C) acts isometrically by a . X = a^H X^s a.  The library reads
the same components off Phi^H Phi in immersion._lorentz4, on the entries
directly; this model goes through the matrices.
"""

import numpy as np


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
    part with any entry above tol raises ValueError.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape != (2, 2):
        raise ValueError("expected a 2x2 matrix, got shape %r" % (m.shape,))
    skew = 0.5 * (m - m.conj().T)
    if np.max(np.abs(skew)) > tol:
        raise ValueError("skew part has magnitude %.3e > tol %.3e"
                         % (float(np.max(np.abs(skew))), tol))
    h = 0.5 * (m + m.conj().T)
    x0 = 0.5 * (h[0, 0] + h[1, 1]).real
    x3 = 0.5 * (h[0, 0] - h[1, 1]).real
    x1 = h[1, 0].real
    x2 = h[1, 0].imag
    return np.array([x0, x1, x2, x3])


def lorentz_inner(x, y):
    """Minkowski product X1*Y1 + X2*Y2 + X3*Y3 - X0*Y0 of real 4-vectors."""
    return float(x[1] * y[1] + x[2] * y[2] + x[3] * y[3] - x[0] * y[0])


def det2(m):
    """Determinant of a 2x2 matrix, straight from the entries."""
    return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]


def rho_action(a, x):
    """Lorentz transformation of the 4-vector x by a in SL(2,C).

    Computes a^H X^s a and reads the components back off, allowing a skew
    part up to 1e-8.  Raises ValueError if |det a - 1| > 1e-10.
    """
    a = np.asarray(a, dtype=complex)
    if a.shape != (2, 2):
        raise ValueError("expected a 2x2 matrix, got shape %r" % (a.shape,))
    d = det2(a)
    if abs(d - 1.0) > 1e-10:
        raise ValueError("det = %r is not 1 within 1e-10" % (d,))
    return lorentz_from_hermitian(a.conj().T @ hermitian_from_lorentz(x) @ a,
                                  tol=1e-8)
