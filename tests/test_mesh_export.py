"""The mesh writers' text: the array row formatter against Python's %
operator, value by value, and write_obj / write_ply against the
%-template writers they replaced, file byte for file byte."""

import dataclasses
import decimal
import os
import tempfile
import unittest
from unittest import mock

import numpy as np

import solsurf
from solsurf import cli
from solsurf.cli import _format_rows, write_obj, write_ply


def formatted(template, arr):
    return b"".join(_format_rows(template, arr))


def reference_rows(fh, template, arr):
    # one % of the template per row, as the writers did before the array
    # formatter
    for row in arr.tolist():
        fh.write(template % tuple(row))


def reference_write_obj(patch, path):
    index, count = cli._vertex_index_map(patch.valid)
    tris = cli._quad_triangles(patch.valid, index + 1)
    ny, nx = patch.valid.shape
    vertex = "v %.17g %.17g %.17g\n"
    if patch.points.shape[-1] == 4:
        vertex = "# x0 %.17g\n" + vertex
    with open(path, "w", newline="\n") as fh:
        fh.write("# surface mesh, target %s, %d x %d grid\n"
                 % (patch.target, ny, nx))
        reference_rows(fh, vertex, patch.points[patch.valid])
        reference_rows(fh, "f %d %d %d\n", tris)
    return count, len(tris)


def reference_write_ply(patch, path):
    index, count = cli._vertex_index_map(patch.valid)
    tris = cli._quad_triangles(patch.valid, index)
    verts = patch.points[patch.valid]
    lorentz = verts.shape[-1] == 4
    if lorentz:
        verts = verts[:, [1, 2, 3, 0]]
    vertex = " ".join(["%.17g"] * verts.shape[-1]) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write("ply\nformat ascii 1.0\n")
        fh.write("comment surface mesh, target %s\n" % patch.target)
        fh.write("element vertex %d\n" % count)
        fh.write("property double x\nproperty double y\nproperty double z\n")
        if lorentz:
            fh.write("property double x0\n")
        fh.write("element face %d\n" % len(tris))
        fh.write("property list uchar int vertex_indices\nend_header\n")
        reference_rows(fh, vertex, verts)
        reference_rows(fh, "3 %d %d %d\n", tris)
    return count, len(tris)


def exact_ties():
    """Doubles N 2**-p, N odd, whose exact decimal value has 18
    significant digits, the last a 5: %.17g must round each half to
    even.  1 + 2**-17 prints as 1.0000076293945312."""
    rng = np.random.default_rng(17)
    ties = [1.0 + 2.0 ** -17]
    for p in range(2, 22):
        lo, hi = -(-10 ** 17 // 5 ** p), min(10 ** 18 // 5 ** p, 2 ** 53)
        for n in rng.integers(lo, hi, 8).tolist():
            ties.append(float(n | 1) * 2.0 ** -p)
    return np.array(ties)


class TestRowFormatter(unittest.TestCase):
    """_format_rows writes each value as '%.17g' % x or '%d' % n, n >= 0."""

    def assert_like_percent(self, values, conversion="%.17g"):
        values = np.asarray(values)
        got = formatted(conversion + "\n", values[:, None]).split(b"\n")
        want = [(conversion % v).encode() for v in values.tolist()]
        self.assertEqual(got, want + [b""])

    def test_powers_of_ten_and_their_neighbours(self):
        # next to a power of ten log10 can round across it; below one the
        # 17 digits are nines, the closest any double comes to rounding
        # up into the next decade (none does)
        values = []
        for k in range(-6, 18):
            p = float("1e%d" % k)
            values += [np.nextafter(p, 0.0), p, np.nextafter(p, np.inf)]
        values += [2.0 ** 53, 2.0 ** 53 + 2.0, 2.0 ** 54]
        values = np.array(values)
        self.assert_like_percent(np.concatenate([values, -values]))

    def test_edges_of_the_array_path(self):
        # 1e-4 <= |x| < 1e16 is summed in the array; the rest goes
        # through %
        values = []
        for edge in (1e-4, 1e16):
            v = edge
            for _ in range(3):
                v = np.nextafter(v, 0.0)
            for _ in range(6):
                values.append(v)
                v = np.nextafter(v, np.inf)
        values = np.array(values)
        self.assert_like_percent(np.concatenate([values, -values]))

    def test_zeros_subnormals_and_non_finite(self):
        self.assert_like_percent([0.0, -0.0, 5e-324, -5e-324,
                                  2.2250738585072009e-308,
                                  2.2250738585072014e-308, 1e300, -1e300,
                                  1.7976931348623157e308, np.inf, -np.inf,
                                  np.nan])

    def test_exact_ties_round_half_to_even(self):
        ties = exact_ties()
        for x in ties.tolist():
            digits = decimal.Decimal(x).normalize().as_tuple().digits
            self.assertEqual((len(digits), digits[-1]), (18, 5), repr(x))
        self.assertEqual(formatted("%.17g", ties[:1, None]),
                         b"1.0000076293945312")
        self.assert_like_percent(np.concatenate([ties, -ties]))

    def test_random_magnitudes(self):
        rng = np.random.default_rng(27)
        values = 10.0 ** rng.uniform(-8.0, 20.0, 20000)
        values *= rng.choice([-1.0, 1.0], values.size)
        self.assert_like_percent(values)

    def test_integers(self):
        # the writers' vertex numbers, which are never negative
        values = [0, 9, 10, 99, 100, 9999, 10000, 123456789, 2 ** 31 - 1,
                  10 ** 18 - 1, 10 ** 18, 2 ** 63 - 1]
        self.assert_like_percent(np.array(values, dtype=np.int64), "%d")
        self.assertEqual(formatted("%d\n", np.zeros((0, 1), np.int64)), b"")

    def test_rows_and_chunks(self):
        # literals between the columns, and rows that span chunks
        rng = np.random.default_rng(3)
        points = rng.normal(size=(50, 4))
        tris = rng.integers(0, 10 ** 6, (50, 3))
        for template, arr in (("# x0 %.17g\nv %.17g %.17g %.17g\n", points),
                              ("f %d %d %d\n", tris)):
            want = ((template * len(arr)) % tuple(arr.ravel().tolist()))
            with mock.patch.object(cli, "_CHUNK_ROWS", 7):
                self.assertEqual(formatted(template, arr), want.encode())


class TestWritersAgainstReference(unittest.TestCase):
    """write_obj and write_ply write the bytes of the %-template writers."""

    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def assert_same_files(self, patch, label):
        """Both writers against their references; returns the vertex and
        face counts."""
        for writer, reference, suffix in ((write_obj, reference_write_obj,
                                           "obj"),
                                          (write_ply, reference_write_ply,
                                           "ply")):
            got = os.path.join(self.tmp.name, "got." + suffix)
            want = os.path.join(self.tmp.name, "want." + suffix)
            counts = writer(patch, got)
            self.assertEqual(counts, reference(patch, want))
            with open(got, "rb") as a, open(want, "rb") as b:
                self.assertEqual(a.read(), b.read(), (label, suffix))
        return counts

    def sample(self, eta, psi, z0, res, target):
        data = solsurf.WeierstrassData(eta=solsurf.parse(eta),
                                       psi=solsurf.parse(psi), z0=z0,
                                       lam=0.8)
        domain = solsurf.DomainRect(-1.0, 1.0, -1.0, 1.0, res, res)
        return solsurf.sample_surface(data, domain, target)

    def test_clean_patches(self):
        for target in ("h3", "e3-direct"):
            patch = self.sample("1+0.2*z", "z^2", 0j, 17, target)
            self.assertTrue(patch.valid.all())
            self.assert_same_files(patch, target)

    def test_pole_patch_with_masked_samples(self):
        for target in ("h3", "e3-direct"):
            patch = self.sample("1/z", "z", 0.9 + 0.9j, 33, target)
            self.assertFalse(patch.valid.all(), target)
            self.assert_same_files(patch, target)

    def test_no_complete_cell_and_no_valid_sample(self):
        patch = self.sample("1", "z", 0j, 9, "h3")
        checker = (np.add.outer(np.arange(9), np.arange(9)) % 2).astype(bool)
        sparse = dataclasses.replace(patch, valid=checker)
        self.assertEqual(self.assert_same_files(sparse, "no cell"), (40, 0))
        empty = dataclasses.replace(patch, valid=np.zeros_like(checker))
        self.assertEqual(self.assert_same_files(empty, "no sample"), (0, 0))


if __name__ == "__main__":
    unittest.main()
