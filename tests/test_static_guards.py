"""Static guards on the source of solsurf.immersion.

A BLAS product may round a row by its batch or by its memory alignment
(OpenBLAS's Prescott kernel does).  In the sampler's sweep a value
decides a hop's route, and the frame block must equal the one-sample
frame bit for bit, so these functions write their sums elementwise and
hold no matrix product.

Only lsp knows the layout of the lock-step lanes' coefficient table and
the nodes of their first call: the sweep reads the first table's
quadrature from lsp._integrate_lanes."""

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
                # nested functions included: _sample_ode's lanes is one
                found[node.name] = [
                    n.lineno for n in ast.walk(node)
                    if isinstance(n, (ast.BinOp, ast.AugAssign))
                    and isinstance(n.op, ast.MatMult)]
        self.assertEqual(found, {name: [] for name in GUARDED})


class TestLaneTableStaysInLsp(unittest.TestCase):

    def test_immersion_names_no_first_step_constant(self):
        with open(solsurf.immersion.__file__, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        names = set()
        for n in ast.walk(tree):
            if isinstance(n, ast.Name):
                names.add(n.id)
            elif isinstance(n, ast.Attribute):
                names.add(n.attr)
            elif isinstance(n, ast.alias):
                names.add(n.name)
        self.assertEqual(
            names & {"_UNIT_WEIGHTS", "_UNIT_NODES", "_NODE_AXIS"}, set())


if __name__ == "__main__":
    unittest.main()
