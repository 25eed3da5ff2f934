"""End-to-end tests of the command line, run in process through main()."""

import contextlib
import io
import json
import os
import tempfile
import unittest

import numpy as np

from solsurf.cli import _quad_triangles, _vertex_index_map, main
from solsurf.cli import _COMMAND_FLAGS, _build_parser, _merge_config

SMALL = ["--domain", "-0.5:0.5:-0.5:0.5", "--res", "17"]
# fine enough for the frame-stencil truncation of generic (non-flat) data
FINE = ["--domain", "-0.5:0.5:-0.5:0.5", "--res", "33"]


def run_cli(*argv):
    out = io.StringIO()
    with contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv), stream=out)
    return code, out.getvalue()


class CliCase(unittest.TestCase):
    def setUp(self):
        self._td = tempfile.TemporaryDirectory()
        self.dir = self._td.name
        self.addCleanup(self._td.cleanup)

    def path(self, name):
        return os.path.join(self.dir, name)

    def report(self, name="report.json"):
        with open(self.path(name)) as fh:
            return json.load(fh)


class TestUsage(CliCase):
    def test_command_required(self):
        self.assertEqual(run_cli()[0], 1)

    def test_unknown_command(self):
        self.assertEqual(run_cli("polish")[0], 1)

    def test_ode_needs_subcommand(self):
        self.assertEqual(run_cli("ode")[0], 1)

    def test_missing_data(self):
        self.assertEqual(run_cli("generate", "--psi", "z")[0], 1)

    def test_tolerance_range(self):
        code, _ = run_cli("generate", "--eta", "1", "--psi", "z", "--tol", "0.5")
        self.assertEqual(code, 1)

    def test_resolution_floor(self):
        code, _ = run_cli("generate", "--eta", "1", "--psi", "z", "--res", "1")
        self.assertEqual(code, 1)

    def test_bad_mesh_extension(self):
        code, _ = run_cli("generate", "--eta", "1", "--psi", "z",
                          "--out", self.path("mesh.stl"), *SMALL)
        self.assertEqual(code, 1)

    def test_unbound_parameter(self):
        code, _ = run_cli("generate", "--eta", "1+a*z", "--psi", "z", *SMALL)
        self.assertEqual(code, 1)

    def test_param_binding(self):
        code, _ = run_cli("generate", "--eta", "1+a*z", "--psi", "z",
                          "--param", "a=0.1", *FINE,
                          "--report", self.path("report.json"))
        self.assertEqual(code, 0)
        echo = self.report()["config_echo"]
        self.assertEqual(echo["params"], {"a": [0.1, 0.0]})


class TestNonFinite(CliCase):
    """nan and inf parse as floats; every number the CLI takes must be
    finite, or the command stops with a usage error before sampling."""

    def run_stderr(self, *argv):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(list(argv), stream=io.StringIO())
        return code, err.getvalue()

    def test_generate_rejects_non_finite(self):
        mesh = self.path("mesh.obj")
        for extra in (["--lambda", "nan"], ["--lambda", "inf"],
                      ["--z0", "nan"], ["--domain=-inf:1:-1:1"],
                      ["--param", "a=nan"]):
            code, err = self.run_stderr(
                "generate", "--eta", "1+a*z", "--psi", "z", "--param", "a=0.1",
                *SMALL, *extra, "--out", mesh,
                "--report", self.path("report.json"))
            self.assertEqual(code, 1, extra)
            self.assertIn("finite", err, extra)
            self.assertNotIn("Warning", err, extra)
            self.assertFalse(os.path.exists(mesh), extra)

    def test_limit_rejects_infinite_lambda(self):
        code, err = self.run_stderr("limit", "--eta", "1", "--psi", "z",
                                    "--lambdas", "inf,1,0.1")
        self.assertEqual(code, 1)
        self.assertIn("--lambdas", err)
        self.assertNotIn("StepUnderflow", err)

    def test_config_file_rejects_non_finite(self):
        with open(self.path("run.cfg"), "w") as fh:
            fh.write("eta = 1\npsi = z\nlambda = inf\n")
        code, err = self.run_stderr("generate", "--config", self.path("run.cfg"),
                                    *SMALL, "--report", self.path("report.json"))
        self.assertEqual(code, 1)
        self.assertIn("finite", err)
        self.assertFalse(os.path.exists(self.path("report.json")))


class TestGenerate(CliCase):
    def test_obj_and_report(self):
        code, text = run_cli("generate", "--eta", "1", "--psi", "z", *SMALL,
                             "--out", self.path("mesh.obj"),
                             "--report", self.path("report.json"))
        self.assertEqual(code, 0)
        self.assertIn("mesh written", text)
        rep = self.report()
        self.assertEqual(rep["command"], "generate")
        for key in ("config_echo", "checks", "wall_ms"):
            self.assertIn(key, rep)
        for name in ("hyperboloid", "det_drift", "gmc", "zero_curvature",
                     "gauge_equivalence", "gauge_unitarity", "gauge_invariants",
                     "conformality", "mean_curvature", "loop_period"):
            self.assertTrue(rep["checks"][name]["pass"], name)
        with open(self.path("mesh.obj")) as fh:
            lines = fh.read().splitlines()
        nv = sum(1 for l in lines if l.startswith("v "))
        nf = sum(1 for l in lines if l.startswith("f "))
        self.assertEqual(nv, 17 * 17)
        self.assertEqual(nf, 2 * 16 * 16)
        # hyperbolic target: time component rides along as comments
        self.assertEqual(sum(1 for l in lines if l.startswith("# x0")), nv)

    def test_ply_export(self):
        code, _ = run_cli("generate", "--eta", "1", "--psi", "z", *SMALL,
                          "--out", self.path("mesh.ply"))
        self.assertEqual(code, 0)
        with open(self.path("mesh.ply")) as fh:
            head = fh.read()
        self.assertTrue(head.startswith("ply\nformat ascii 1.0\n"))
        self.assertIn("element vertex %d" % (17 * 17), head)
        self.assertIn("property float x0", head)

    def test_euclidean_targets(self):
        code, _ = run_cli("generate", "--eta", "1", "--psi", "z",
                          "--target", "e3-direct", *SMALL,
                          "--report", self.path("report.json"))
        self.assertEqual(code, 0)
        checks = self.report()["checks"]
        self.assertNotIn("hyperboloid", checks)
        self.assertLess(checks["mean_curvature"]["max"], 1e-4)

        code, _ = run_cli("generate", "--eta", "1", "--psi", "z",
                          "--target", "e3-limit", "--lambda", "0.001", *SMALL,
                          "--report", self.path("report.json"))
        self.assertEqual(code, 0)
        self.assertIn("x0_limit", self.report()["checks"])


class TestVerify(CliCase):
    ARGS = ["verify", "--eta", "1", "--psi", "z", "--res", "17",
            "--domain", "-0.32:0.32:-0.32:0.32"]

    def test_clean_data_passes(self):
        code, _ = run_cli(*self.ARGS, "--report", self.path("report.json"))
        self.assertEqual(code, 0)

    def test_perturbation_detected(self):
        code, _ = run_cli(*self.ARGS, "--perturb",
                          "--report", self.path("report.json"))
        self.assertEqual(code, 2)
        checks = self.report()["checks"]
        self.assertFalse(checks["gmc"]["pass"])
        self.assertGreater(checks["gmc"]["max"], 1e-2)
        self.assertGreater(checks["zero_curvature"]["max"], 1e-2)


class TestLimit(CliCase):
    def test_flat_limit_study(self):
        code, text = run_cli("limit", "--eta", "1", "--psi", "z",
                             "--report", self.path("report.json"))
        self.assertEqual(code, 0)
        self.assertIn("fitted order", text)
        rep = self.report()
        self.assertGreaterEqual(rep["fitted_order"], 0.9)
        self.assertEqual(len(rep["limit_table"]), 3)
        self.assertTrue(rep["checks"]["limit_abs_error"]["pass"])
        self.assertTrue(rep["checks"]["limit_order_shortfall"]["pass"])


class TestOdeBridgeCommands(CliCase):
    def test_to_ode(self):
        code, text = run_cli("ode", "to-ode", "--eta", "exp(0.5*z^2)",
                             "--psi", "sqrt(pi)*erf(z)")
        self.assertEqual(code, 0)
        self.assertIn("p = -2*z", text)
        self.assertIn("q = -2", text)

    def test_from_ode_negative_values(self):
        # flag values starting with '-' must survive argv preprocessing
        code, text = run_cli("ode", "from-ode", "--p", "-2*z", "--q", "-2")
        self.assertEqual(code, 0)
        self.assertIn("eta = exp(0.5*z^2)", text)
        self.assertIn("psi = sqrt(pi)*erf(z)", text)

    def test_erf_example(self):
        code, text = run_cli("ode", "erf-example", "--n", "1", "--res", "17",
                             "--domain", "0.8:1.2:-0.2:0.2",
                             "--report", self.path("report.json"))
        self.assertEqual(code, 0)
        self.assertIn("advisory", text)
        rep = self.report()
        self.assertTrue(rep["checks"]["ode_constancy"]["pass"])
        self.assertTrue(rep["checks"]["hyperboloid"]["pass"])
        kc = rep["kummer_crosscheck"]
        self.assertIn("max_deviation", kc)
        # advisory comparison may fail without affecting the exit code
        self.assertIsInstance(kc["pass"], bool)


class TestConfigFile(CliCase):
    def write_config(self, text, name="run.cfg"):
        with open(self.path(name), "w") as fh:
            fh.write(text)
        return self.path(name)

    def test_precedence_defaults_file_flags(self):
        cfg = self.write_config(
            "eta = 1\npsi = z\nres = 9\nlambda = 0.5\n"
            "domain = -0.5:0.5:-0.5:0.5\n# comment line\n")
        code, _ = run_cli("generate", "--config", cfg, "--res", "17",
                          "--report", self.path("report.json"))
        self.assertEqual(code, 0)
        echo = self.report()["config_echo"]
        self.assertEqual(echo["res"], 17)            # flag beats file
        self.assertEqual(echo["lambda"], 0.5)        # file beats default
        self.assertEqual(echo["target"], "h3")       # untouched default

    def test_config_param_binding(self):
        cfg = self.write_config("eta = 1+a*z\npsi = z\nparam.a = 0.2\nres = 33\n")
        code, _ = run_cli("verify", "--config", cfg,
                          "--report", self.path("report.json"))
        self.assertEqual(code, 0)

    def test_unknown_key_rejected(self):
        cfg = self.write_config("eta = 1\npsi = z\nshininess = 3\n")
        self.assertEqual(run_cli("generate", "--config", cfg)[0], 1)

    def test_key_of_another_command_rejected(self):
        # flags that exist, but not on this command
        for command, line in ((["generate"], "lambdas = 1,0.5,0.1"),
                              (["generate"], "n = 4"),
                              (["generate"], "perturb = true"),
                              (["limit"], "lambda = 0.5"),
                              (["ode", "from-ode"], "param.a = 0.2"),
                              (["ode", "erf-example"], "eta = 1")):
            cfg = self.write_config("eta = 1\npsi = z\n%s\n" % line)
            self.assertEqual(run_cli(*command, "--config", cfg)[0], 1,
                             "%s %s" % (command, line))

    # a legal value for every flag a config file may set
    OWN_VALUES = {
        "eta": "1", "psi": "z", "p": "-2*z", "q": "-4", "lambda": "0.5",
        "z0": "0", "c": "1", "c1": "0", "z": "1.5", "n": "2", "res": "9",
        "tol": "1e-8", "threads": "1", "target": "h3",
        "domain": "-0.5:0.5:-0.5:0.5", "lambdas": "0.1,0.01,0.001",
        "out": "mesh.obj", "report": "report.json", "config": "other.cfg",
        "perturb": "true",
    }

    def test_every_own_key_accepted(self):
        parser = _build_parser()
        for command, flags in _COMMAND_FLAGS.items():
            lines = ["%s = %s" % (k, self.OWN_VALUES[k]) if k != "param"
                     else "param.a = 0.2" for k in flags]
            cfg = self.write_config("\n".join(lines) + "\n")
            ns = parser.parse_args(command.split() + ["--config", cfg])
            merged = _merge_config(command, ns)
            for key in flags:
                if key == "param":
                    self.assertEqual(merged["params"], {"a": 0.2 + 0j}, command)
                else:
                    self.assertIn(key, merged, "%s %s" % (command, key))
            # and each is a flag of the command's own parser
            for key in flags:
                argv = command.split()
                if key == "perturb":
                    argv.append("--perturb")
                else:
                    value = "a=0.2" if key == "param" else self.OWN_VALUES[key]
                    argv.append("--%s=%s" % (key, value))
                parser.parse_args(argv)

    def test_config_perturb_matches_flag(self):
        args = ["verify", "--eta", "1", "--psi", "z", "--res", "17",
                "--domain", "-0.32:0.32:-0.32:0.32"]
        for value in ("true", "1"):
            cfg = self.write_config("perturb = %s\n" % value)
            code, text = run_cli(*args, "--config", cfg,
                                 "--report", self.path("file.json"))
            self.assertEqual(code, 2)
            flag_code, flag_text = run_cli(*args, "--perturb",
                                           "--report", self.path("flag.json"))
            self.assertEqual(flag_code, 2)
            self.assertEqual(text.replace("file.json", "flag.json"), flag_text)
            reports = [self.report(name) for name in ("file.json", "flag.json")]
            for rep in reports:
                rep.pop("wall_ms")
                rep["config_echo"].pop("report")
            self.assertEqual(reports[0], reports[1])
        for value in ("false", "0"):
            cfg = self.write_config("perturb = %s\n" % value)
            self.assertEqual(run_cli(*args, "--config", cfg)[0], 0)

    def test_config_perturb_bad_value(self):
        for value in ("yes", "2", ""):
            cfg = self.write_config("eta = 1\npsi = z\nperturb = %s\n" % value)
            self.assertEqual(run_cli("verify", "--config", cfg)[0], 1)


class TestDeterminism(CliCase):
    ARGS = ["generate", "--eta", "1+0.2*z", "--psi", "z^2", *FINE]

    def test_reports_identical_modulo_timing(self):
        for name in ("a.json", "b.json"):
            code, _ = run_cli(*self.ARGS, "--report", self.path(name))
            self.assertEqual(code, 0)
        a, b = self.report("a.json"), self.report("b.json")
        for rep in (a, b):
            rep.pop("wall_ms")
            rep["config_echo"].pop("report")
        self.assertEqual(a, b)

    def test_thread_cap_keeps_requested_echo(self):
        old = os.environ.get("SOLSURF_THREADS")
        os.environ["SOLSURF_THREADS"] = "1"
        try:
            code, _ = run_cli(*self.ARGS, "--threads", "8",
                              "--report", self.path("report.json"))
        finally:
            if old is None:
                del os.environ["SOLSURF_THREADS"]
            else:
                os.environ["SOLSURF_THREADS"] = old
        self.assertEqual(code, 0)
        # the echo reflects the request, not the environment cap, so the
        # report stays byte-stable across differently capped machines
        self.assertEqual(self.report()["config_echo"]["threads"], 8)


class TestMeshIndex(unittest.TestCase):
    def test_masked_grid_faces(self):
        # 4 x 5 grid with samples (1, 2) and (3, 0) masked; vertices are
        # numbered row-major over the valid samples
        valid = np.ones((4, 5), dtype=bool)
        valid[1, 2] = False
        valid[3, 0] = False
        index, count = _vertex_index_map(valid)
        self.assertEqual(count, 18)
        self.assertEqual(index.tolist(), [[0, 1, 2, 3, 4],
                                          [5, 6, -1, 7, 8],
                                          [9, 10, 11, 12, 13],
                                          [-1, 14, 15, 16, 17]])
        faces = [[0, 1, 6], [0, 6, 5], [3, 4, 8], [3, 8, 7],
                 [5, 6, 10], [5, 10, 9], [7, 8, 13], [7, 13, 12],
                 [10, 11, 15], [10, 15, 14], [11, 12, 16], [11, 16, 15],
                 [12, 13, 17], [12, 17, 16]]
        self.assertEqual(_quad_triangles(valid, index).tolist(), faces)

    def test_no_valid_quad(self):
        valid = np.zeros((3, 3), dtype=bool)
        valid[1, 1] = True
        index, count = _vertex_index_map(valid)
        self.assertEqual(count, 1)
        self.assertEqual(_quad_triangles(valid, index).shape, (0, 3))


if __name__ == "__main__":
    unittest.main()
