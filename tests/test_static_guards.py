"""Static guards on the source of solsurf.immersion.

A BLAS product may round a row by its batch or by its memory alignment
(OpenBLAS's Prescott kernel does).  In the sampler's sweep a value
decides a hop's route, and the frame block must equal the one-sample
frame bit for bit, so these functions write their sums elementwise and
hold no matrix product."""

import ast
import unittest

import solsurf.immersion

GUARDED = ("_sample_ode", "_sweep_lines", "_frame_block")


class TestNoMatrixProduct(unittest.TestCase):

    def test_no_matmul_in_the_sweep_and_the_frame_block(self):
        with open(solsurf.immersion.__file__, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        found = {}
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name in GUARDED:
                # nested functions included: _sample_ode's coef is one
                found[node.name] = [
                    n.lineno for n in ast.walk(node)
                    if isinstance(n, (ast.BinOp, ast.AugAssign))
                    and isinstance(n.op, ast.MatMult)]
        self.assertEqual(found, {name: [] for name in GUARDED})


if __name__ == "__main__":
    unittest.main()
