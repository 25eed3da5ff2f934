"""Tests for the CPython-rounded complex arithmetic on arrays."""

import cmath
import random
import unittest

import numpy as np

from solsurf._carith import cabs, cdiv, cmul, cpowi, csqrt


def bits(v):
    return np.asarray(v, dtype=complex).reshape(-1).view(np.uint64).tolist()


def python_values(fn, *columns):
    out = []
    for args in zip(*columns):
        try:
            out.append(fn(*args))
        except ZeroDivisionError:
            out.append(complex(np.nan, np.nan))
    return out


class TestCarith(unittest.TestCase):
    # as in the array closures, which evaluate under errstate(all="ignore")
    def setUp(self):
        errstate = np.errstate(all="ignore")
        errstate.__enter__()
        self.addCleanup(errstate.__exit__, None, None, None)

    def numbers(self, seed, count=2000):
        rng = random.Random(seed)
        vals = [complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
                for _ in range(count)]
        # signed zeros, real and imaginary axes, a zero
        vals[:6] = [0j, complex(-0.0, -0.0), 2.5 + 0j, complex(-1.5, -0.0),
                    0.75j, complex(-0.0, -2.0)]
        return vals

    def check(self, got, want):
        got = np.asarray(got).reshape(-1)
        for k, w in enumerate(want):
            if w != w:
                self.assertTrue(bool(np.isnan(got[k])), "index %d" % k)
            else:
                self.assertEqual(bits(got[k]), bits(w), "index %d" % k)

    def test_product(self):
        x, y = self.numbers(1), self.numbers(2)
        self.check(cmul(np.array(x), np.array(y)),
                   python_values(lambda a, b: a * b, x, y))
        self.check(cmul(0.5, np.array(y)), [0.5 * b for b in y])
        self.check(cmul(0.5j, np.array(y)), [0.5j * b for b in y])

    def test_quotient(self):
        x, y = self.numbers(3), self.numbers(4)
        self.check(cdiv(np.array(x), np.array(y)),
                   python_values(lambda a, b: a / b, x, y))
        for d in (3, 0.7 - 2.5j, -0.0 + 1e-3j, 0j):
            self.check(cdiv(np.array(x), d),
                       python_values(lambda a: a / d, x))

    def test_integer_powers(self):
        x = self.numbers(5)
        for n in (0, 1, 2, 3, 5, 8, 13, 100, -1, -2, -7):
            self.check(cpowi(np.array(x), n),
                       python_values(lambda a: a ** n, x))

    def edge_numbers(self, seed):
        """Tiny, huge, signed-zero, axis and near-unit values."""
        rng = random.Random(seed)
        vals = []
        for scale in (1e-310, 1e-200, 1e-10, 1.0, 1e10, 1e200, 1e307):
            vals += [complex(rng.uniform(-3, 3) * scale,
                             rng.uniform(-3, 3) * scale) for _ in range(200)]
        # near 1 in modulus, where np.abs rounds differently from Python
        for _ in range(2000):
            t = rng.uniform(-np.pi, np.pi)
            r = 1.0 + rng.uniform(-1e-8, 1e-8)
            vals.append(complex(r * np.cos(t), r * np.sin(t)))
        # both axes, with both signed zeros
        for v in (0.0, -0.0):
            vals += [complex(v, rng.uniform(-3, 3)) for _ in range(200)]
            vals += [complex(rng.uniform(-3, 3), v) for _ in range(200)]
            vals += [complex(v, 0.0), complex(v, -0.0), complex(v, 5e-324)]
        return vals

    def test_modulus(self):
        x = self.edge_numbers(6)
        self.assertEqual(bits(cabs(np.array(x)).astype(complex)),
                         bits(np.array([abs(v) for v in x], dtype=complex)))
        # where Python's abs raises OverflowError the modulus is inf
        self.assertEqual(float(cabs(complex(1.5e308, 1.5e308))), np.inf)

    def test_square_root(self):
        x = self.edge_numbers(7) + self.numbers(8)
        self.check(csqrt(np.array(x)), [cmath.sqrt(v) for v in x])


if __name__ == "__main__":
    unittest.main()
