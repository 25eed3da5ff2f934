"""Each script under demos/ runs to completion against the package."""

import os
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = os.path.join(ROOT, "demos")


class TestDemos(unittest.TestCase):
    def test_demos_exit_zero(self):
        scripts = sorted(n for n in os.listdir(DEMOS) if n.endswith(".py"))
        self.assertTrue(scripts)
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        for name in scripts:
            with self.subTest(demo=name), \
                    tempfile.TemporaryDirectory() as cwd:
                # run from a scratch directory: demos write their meshes
                # into the working directory; a numpy warning is an error
                proc = subprocess.run(
                    [sys.executable, "-W", "error", os.path.join(DEMOS, name)],
                    cwd=cwd, env=env, stdout=subprocess.PIPE,
                    stderr=subprocess.PIPE, text=True, timeout=300)
                self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])


if __name__ == "__main__":
    unittest.main()
