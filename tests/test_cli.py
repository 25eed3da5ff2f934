"""End-to-end tests of the command line, run in process through main(),
and through python -m in a subprocess."""

import contextlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
import unittest
from unittest import mock

import numpy as np
import pytest

import solsurf
import solsurf.geom
from solsurf.checks import _check, _grid_check
from solsurf.cli import _quad_triangles, _vertex_index_map, main
from solsurf.cli import _COMMANDS, _REQUIRED, _merge_config, _split_argv

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
        # above 1e-2, and below machine epsilon, where no integrator meets
        # the tolerance
        for tol in ("0.5", "1e-17"):
            code, _ = run_cli("generate", "--eta", "1", "--psi", "z",
                              "--tol", tol)
            self.assertEqual(code, 1, tol)

    def test_resolution_floor(self):
        code, _ = run_cli("generate", "--eta", "1", "--psi", "z", "--res", "1")
        self.assertEqual(code, 1)

    def test_bad_mesh_extension(self):
        # refused from the flag and from a config file before any sampling
        cfg = self.path("run.cfg")
        with open(cfg, "w") as fh:
            fh.write("out = %s\n" % self.path("mesh.stl"))
        for argv in (["--out", self.path("mesh.stl")], ["--config", cfg]):
            err = io.StringIO()
            with mock.patch("solsurf.cli.sample_surface") as sample, \
                    contextlib.redirect_stderr(err):
                code = main(["generate", "--eta", "1", "--psi", "z", *SMALL,
                             *argv], stream=io.StringIO())
            self.assertEqual(code, 1, argv)
            self.assertEqual(err.getvalue(),
                             "error: --out must end in .obj or .ply\n")
            sample.assert_not_called()

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

    def test_h3_rejects_lambda_whose_square_underflows(self):
        code, err = self.run_stderr("verify", "--eta", "1", "--psi", "z",
                                    "--res", "9", "--lambda", "1e-300")
        self.assertEqual(code, 1)
        self.assertIn("--lambda", err)
        self.assertNotIn("ZeroDivisionError", err)

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


# one lambda each construction cannot use: zero, a square that underflows
# (h3, and the h3 patch of erf-example) or a reciprocal that overflows
# (the ODE bridge)
REFUSED_LAMBDAS = [
    ["generate", "--eta", "1", "--psi", "z", "--res", "9",
     "--target", "e3-limit", "--lambda", "0"],
    ["verify", "--eta", "1", "--psi", "z", "--res", "9", "--lambda", "1e-300"],
    ["ode", "erf-example", "--n", "2", "--res", "9", "--lambda", "1e-300"],
    ["ode", "from-ode", "--p", "0", "--q", "1", "--lambda", "0"],
    ["ode", "from-ode", "--p", "0", "--q", "1", "--lambda", "1e-320"],
]


@pytest.mark.parametrize("argv", REFUSED_LAMBDAS,
                         ids=[" ".join(a) for a in REFUSED_LAMBDAS])
def test_refused_lambda_names_the_flag(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv, stream=io.StringIO())
    assert code == 1
    assert err.getvalue().startswith("error: --lambda: ")
    assert "OverflowError" not in err.getvalue()
    assert "LambdaZero:" not in err.getvalue()


# each command run without one of its required flags, and the flag named
MISSING_REQUIRED = [
    (["generate", "--psi", "z"], "eta"),
    (["verify", "--eta", "1"], "psi"),
    (["limit", "--psi", "z"], "eta"),
    (["ode", "to-ode", "--eta", "1"], "psi"),
    (["ode", "from-ode", "--q", "1"], "p"),
    (["ode", "erf-example"], "n"),
]


@pytest.mark.parametrize("argv,name", MISSING_REQUIRED,
                         ids=[" ".join(a) for a, _ in MISSING_REQUIRED])
def test_missing_required_flag(argv, name):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv, stream=io.StringIO())
    assert code == 1
    assert err.getvalue() == "error: missing required flag --%s\n" % name


class TestFlags(CliCase):
    """argv splits by the command table: flags match by their full names,
    and --name value is --name=value whatever the value's first
    character."""
    BASE = ["generate", "--eta", "1", "--psi", "z", "--res", "9"]
    NEGATIVE = {"domain": "-0.5:-0.1:-0.4:-0.2", "z0": "-0.3-0.3i",
                "lambda": "-0.8"}

    def test_negative_values_in_both_spellings(self):
        spaced = [t for k, v in self.NEGATIVE.items() for t in ("--" + k, v)]
        joined = ["--%s=%s" % kv for kv in self.NEGATIVE.items()]
        merged = [_merge_config(*_split_argv(self.BASE + argv))
                  for argv in (spaced, joined)]
        self.assertEqual(merged[0], merged[1])
        self.assertEqual(merged[0]["domain"], (-0.5, -0.1, -0.4, -0.2))
        self.assertEqual(merged[0]["z0"], -0.3 - 0.3j)
        self.assertEqual(merged[0]["lambda"], -0.8)
        # and through main, to the same report
        for name, argv in (("spaced.json", spaced), ("joined.json", joined)):
            code, _ = run_cli(*self.BASE, *argv, "--report", self.path(name))
            self.assertNotEqual(code, 1, argv)
        reports = [self.report(n) for n in ("spaced.json", "joined.json")]
        for rep in reports:
            rep.pop("wall_ms")
            rep["config_echo"].pop("report")
        self.assertEqual(reports[0], reports[1])
        self.assertEqual(reports[0]["config_echo"]["domain"],
                         [-0.5, -0.1, -0.4, -0.2])

    # argv past BASE that is refused, and the token the message names
    REFUSED = [
        (["--lam", "0.5"], "'--lam'"),                  # abbreviated
        (["--dom", "-0.5:0.5:-0.5:0.5"], "'--dom'"),    # abbreviated
        (["--lambda"], "--lambda needs a value"),       # at the end
        (["--lambda", "--tol", "1e-8"], "--lambda needs a value"),
        (["--tol=1e-8", "--z0", "--target", "h3"], "--z0 needs a value"),
        (["stray"], "'stray'"),                         # a positional
        (["--param", "a"], "'a'"),
    ]

    def test_refusals_name_the_token(self):
        for extra, named in self.REFUSED:
            err = io.StringIO()
            with mock.patch("solsurf.cli.sample_surface") as sample, \
                    contextlib.redirect_stderr(err):
                code = main(self.BASE + extra, stream=io.StringIO())
            self.assertEqual(code, 1, extra)
            self.assertTrue(err.getvalue().startswith("error: "), extra)
            self.assertIn(named, err.getvalue(), extra)
            sample.assert_not_called()

    def test_perturb_takes_the_config_spellings(self):
        argv = ["verify", "--eta", "1", "--psi", "z"]
        for text, value in (("true", True), ("1", True), ("false", False),
                            ("0", False)):
            cfg = _merge_config(*_split_argv(argv + ["--perturb=" + text]))
            self.assertIs(cfg["perturb"], value, text)
        self.assertIs(_merge_config(*_split_argv(argv))["perturb"], False)

    def test_last_of_a_repeated_flag_wins(self):
        # as the last line of a key does in a config file; the earlier
        # text is never converted
        cfg = _merge_config(*_split_argv(self.BASE + ["--res", "x",
                                                      "--res", "17"]))
        self.assertEqual(cfg["res"], 17)


# the words of each command, of the top level and of ode
HELP_WORDS = [c.split() for c in _COMMANDS] + [[], ["ode"]]


@pytest.mark.parametrize("words", HELP_WORDS,
                         ids=[" ".join(w) or "solsurf" for w in HELP_WORDS])
def test_help_lists_the_table(words):
    prefix = " ".join(words)
    for flag in ("-h", "--help"):
        out = io.StringIO()
        assert main(words + [flag], stream=out) == 0
        lines = out.getvalue().splitlines()
        if prefix in _COMMANDS:
            flags = _COMMANDS[prefix][1]
            listed = {}
            for line in lines:
                if line.startswith("  --"):
                    listed[line.split()[0][2:].split("[")[0]] = line
            assert sorted(listed) == sorted(flags)
            for name, default in flags.items():
                if default is _REQUIRED:
                    assert listed[name].endswith(" required"), name
                elif isinstance(default, str):
                    assert listed[name].endswith(" default " + default), name
        else:
            below = [c.split()[len(words)] for c in _COMMANDS
                     if c.split()[:len(words)] == words]
            shown = [line for line in lines if line.startswith("commands: ")]
            assert shown == ["commands: " + ", ".join(dict.fromkeys(below))]


class TestImportsNoArgparse(unittest.TestCase):
    """The command line splits argv by its own table: importing solsurf,
    and asking a command for help, loads no argparse (nor the gettext
    it imports)."""

    def test_import_loads_no_argparse(self):
        code = ("import io, sys\n"
                "import solsurf\n"
                "solsurf.cli.main(['generate', '-h'], stream=io.StringIO())\n"
                "sys.exit('argparse' in sys.modules)\n")
        proc = subprocess.run([sys.executable, "-c", code],
                              env=dict(os.environ,
                                       PYTHONPATH=TestModuleEntry.SRC),
                              capture_output=True, text=True, timeout=300)
        self.assertEqual(proc.returncode, 0, proc.stderr)


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
        # the frame checks read every sample two rings in
        for name in ("conformality", "mean_curvature"):
            self.assertEqual(rep["checks"][name]["evaluated"], 13 * 13)
            self.assertEqual(rep["checks"][name]["skipped"], {})
        # the pointwise checks read their 10 x 10 points, the gauge checks
        # their three paths
        for name, count in (("gmc", 100), ("zero_curvature", 100),
                            ("gauge_equivalence", 3), ("gauge_unitarity", 3),
                            ("gauge_invariants", 3)):
            self.assertEqual(rep["checks"][name]["evaluated"], count, name)
            self.assertEqual(rep["checks"][name]["skipped"], {}, name)
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
        self.assertIn("property double x0", head)

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
        self.assertIn("worst", self.report()["checks"]["x0_limit"])


class TestPlyReadback(CliCase):
    """A reader that takes each vertex property at the type its header
    declares gets every valid sample back exactly."""

    def read_vertices(self, path):
        """The vertex properties' names and types, and the vertex rows,
        each value parsed at its declared type."""
        with open(path) as fh:
            lines = fh.read().splitlines()
        end = lines.index("end_header")
        props, element, count = [], None, 0
        for line in lines[:end]:
            words = line.split()
            if words[0] == "element":
                element = words[1]
                if element == "vertex":
                    count = int(words[2])
            elif words[0] == "property" and element == "vertex":
                props.append((words[2], words[1]))
        cast = {"double": np.float64, "float": np.float32}
        rows = [[float(cast[kind](word)) for (_, kind), word
                 in zip(props, line.split(), strict=True)]
                for line in lines[end + 1:end + 1 + count]]
        return props, np.array(rows)

    def test_vertices_read_back_exactly(self):
        # a pole on the centre sample masks it (and, under h3, more)
        data = solsurf.WeierstrassData(eta=solsurf.parse("1/z"),
                                       psi=solsurf.parse("z"),
                                       z0=0.9 + 0.9j, lam=0.8)
        domain = solsurf.DomainRect(-1.0, 1.0, -1.0, 1.0, 9, 9)
        for target in ("h3", "e3-direct"):
            patch = solsurf.sample_surface(data, domain, target)
            self.assertFalse(patch.valid.all(), target)
            path = self.path("%s.ply" % target)
            solsurf.cli.write_ply(patch, path)
            props, verts = self.read_vertices(path)
            self.assertEqual({kind for _, kind in props}, {"double"}, target)
            if props[-1][0] == "x0":
                verts = verts[:, [3, 0, 1, 2]]
            np.testing.assert_array_equal(verts, patch.points[patch.valid],
                                          target)


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

    def test_perturbed_fields_keep_the_analytic_u_z(self):
        # the perturbation changes only Q, so zero_curvature takes u_z as
        # on clean data and never differences u
        with mock.patch("solsurf.geom.wirtinger_dz",
                        wraps=solsurf.geom.wirtinger_dz) as dz:
            code, _ = run_cli(*self.ARGS, "--perturb",
                              "--report", self.path("report.json"))
        self.assertEqual(code, 2)
        self.assertEqual(dz.call_count, 0)

    def test_mean_curvature_expects_abs_lambda(self):
        # H_est >= 0 by the frame's orientation, and the Lorentz targets
        # have H = |lambda| for either sign of lambda
        code, _ = run_cli(*self.ARGS, "--lambda", "-1")
        self.assertEqual(code, 0)
        # at 33^2 the stencils' truncation is 1.3e-7
        code, _ = run_cli("verify", "--eta", "1", "--psi", "z", "--res", "33",
                          "--domain", "-0.32:0.32:-0.32:0.32",
                          "--target", "e3-limit", "--lambda", "0.8",
                          "--report", self.path("report.json"))
        self.assertEqual(code, 0)
        check = self.report()["checks"]["mean_curvature"]
        self.assertEqual(check["threshold"], 5e-3)
        self.assertLess(check["max"], 1e-6)

    def test_frame_check_coverage(self):
        # a pole on the centre sample is masked, and the frames whose
        # stencils touch a masked sample are skipped and counted
        code, _ = run_cli("verify", "--eta", "1/z", "--psi", "z",
                          "--z0", "0.9+0.9i", "--domain", "-1:1:-1:1",
                          "--res", "17", "--report", self.path("report.json"))
        self.assertEqual(code, 2)
        checks = self.report()["checks"]
        for name in ("conformality", "mean_curvature"):
            c = checks[name]
            self.assertGreater(c["skipped"]["masked"], 0)
            self.assertEqual(c["evaluated"] + sum(c["skipped"].values()),
                             13 * 13)
        self.assertEqual(checks["conformality"]["evaluated"],
                         checks["mean_curvature"]["evaluated"])

    def test_pointwise_and_gauge_coverage(self):
        # on 9 x 9 points over [-1, 1]^2 the pole at 0 is one of them; each
        # check skips it with the error its call raised there
        run_cli("verify", "--eta", "1/z", "--psi", "z", "--z0", "0.9+0.9i",
                "--domain", "-1:1:-1:1", "--res", "9",
                "--report", self.path("report.json"))
        checks = self.report()["checks"]
        for name, error in (("gmc", "StencilOutOfDomain"),
                            ("zero_curvature", "DomainError")):
            self.assertEqual(checks[name]["evaluated"], 80, name)
            self.assertEqual(checks[name]["skipped"], {error: 1}, name)
        # eta vanishes at z0, where the gauge is undefined: no path
        # evaluates, and the gauge checks fail
        code, _ = run_cli("verify", "--eta", "z", "--psi", "z", "--z0", "0",
                          "--domain", "-0.5:0.5:-0.5:0.5", "--res", "9",
                          "--report", self.path("report.json"))
        self.assertEqual(code, 2)
        checks = self.report()["checks"]
        for name in ("gauge_equivalence", "gauge_unitarity",
                     "gauge_invariants"):
            self.assertEqual(checks[name]["evaluated"], 0, name)
            self.assertEqual(checks[name]["skipped"], {"BranchAmbiguity": 3},
                             name)
            self.assertFalse(checks[name]["pass"], name)

    def test_pole_on_a_stencil_point_only(self):
        # the pole at 0.251 lies 1e-3 from the point 0.25 (index [4, 5]):
        # on gmc's stencil (step 1e-3), which skips the point, and beside
        # zero_curvature's (step 1e-4), whose residual there is huge but
        # finite, a value and not a skip
        code, _ = run_cli("verify", "--eta", "1/(z-0.251)", "--psi", "z",
                          "--z0", "0.9+0.9i", "--domain", "-1:1:-1:1",
                          "--res", "9", "--report", self.path("report.json"))
        self.assertEqual(code, 2)
        checks = self.report()["checks"]
        gmc, zc = checks["gmc"], checks["zero_curvature"]
        self.assertEqual(gmc["evaluated"], 80)
        self.assertEqual(gmc["skipped"], {"StencilOutOfDomain": 1})
        self.assertTrue(gmc["pass"])
        self.assertEqual(zc["evaluated"], 81)
        self.assertEqual(zc["skipped"], {})
        self.assertFalse(zc["pass"])
        self.assertGreater(zc["max"], 1e4)
        self.assertEqual(zc["worst"], {"index": [4, 5], "z": [0.25, 0.0]})
        # worst locates the checks computed per point or per sample; the
        # gauge checks and loop_period run on paths
        per_point = {"gmc", "zero_curvature", "conformality",
                     "mean_curvature", "hyperboloid", "det_drift"}
        self.assertEqual({k for k, c in checks.items() if "worst" in c},
                         per_point)

    def test_one_array_call_per_pointwise_check(self):
        # the 10 x 10 points of gmc and zero_curvature go in one call each
        with mock.patch("solsurf.checks.gmc_residual",
                        wraps=solsurf.geom.gmc_residual) as gmc, \
                mock.patch("solsurf.checks.zero_curvature_residual",
                           wraps=solsurf.geom.zero_curvature_residual) as zc:
            code, _ = run_cli(*TestVerify.ARGS,
                              "--report", self.path("report.json"))
        self.assertEqual(code, 0)
        self.assertEqual(gmc.call_count, 1)
        self.assertEqual(zc.call_count, 1)
        for name in ("gmc", "zero_curvature"):
            self.assertEqual(self.report()["checks"][name]["evaluated"], 100)

    def test_low_coverage_fails(self):
        # eta vanishes at the midpoints of two of the three gauge paths,
        # which the gauge check visits: one path evaluates, and its small
        # residuals do not make the checks pass
        code, _ = run_cli("verify", "--eta", "(z-0.125)*(z-0.125*i)",
                          "--psi", "z", "--domain", "-0.5:0.5:-0.5:0.5",
                          "--res", "9", "--report", self.path("report.json"))
        self.assertEqual(code, 2)
        checks = self.report()["checks"]
        for name in ("gauge_equivalence", "gauge_unitarity",
                     "gauge_invariants"):
            c = checks[name]
            self.assertEqual(c["evaluated"], 1, name)
            self.assertEqual(c["skipped"], {"StepUnderflow": 2}, name)
            self.assertLess(c["max"], c["threshold"], name)
            self.assertFalse(c["pass"], name)


class TestCheckRule(unittest.TestCase):

    def test_non_finite_value_fails(self):
        self.assertTrue(_check([1e-9, 2e-9], 1e-4)["pass"])
        for bad in (float("inf"), float("nan"), float("-inf")):
            self.assertFalse(_check([1e-9, bad], 1e-4)["pass"], bad)
        self.assertFalse(_check([], 1e-4)["pass"])

    def test_fewer_values_than_needed_fail(self):
        self.assertTrue(_check([1e-9] * 50, 1e-4, 50)["pass"])
        self.assertFalse(_check([1e-9] * 49, 1e-4, 50)["pass"])


    def test_worst_locates_the_max(self):
        z = np.arange(12.0).reshape(3, 4) * (1 + 0.5j)
        values = np.array([[1.0, 9.0, 2.0, 3.0],
                           [4.0, 5.0, 8.0, 6.0],
                           [7.0, 0.0, 1.0, np.nan]])
        mask = np.isfinite(values) & (values != 9.0)
        check = _grid_check(values, mask, z, 10.0, evaluated=10, skipped={})
        self.assertEqual(check["max"], 8.0)
        self.assertEqual(check["worst"], {"index": [1, 2], "z": [6.0, 3.0]})
        self.assertIsNone(_grid_check(values, np.zeros_like(mask), z,
                                      10.0)["worst"])
        # a non-finite max sits where the first one does
        mask[2, 3] = True
        self.assertEqual(_grid_check(values, mask, z, 10.0)["worst"]["index"],
                         [2, 3])


class TestModuleEntry(CliCase):
    """python -m solsurf, and python -m solsurf.cli, run the command line
    as the solsurf script does."""
    SRC = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    ARGS = ["verify", "--eta", "1", "--psi", "z", "--res", "17"]

    def run_module(self, module, *argv):
        env = dict(os.environ, PYTHONPATH=self.SRC)
        return subprocess.run([sys.executable, "-m", module, *argv],
                              cwd=self.dir, env=env, capture_output=True,
                              timeout=300).returncode

    def test_package_runs_the_command_line(self):
        self.assertEqual(self.run_module("solsurf", *self.ARGS), 0)
        self.assertEqual(self.run_module("solsurf", *self.ARGS, "--perturb"), 2)

    def test_cli_module_runs_the_command_line(self):
        self.assertEqual(self.run_module("solsurf.cli", *self.ARGS,
                                         "--perturb"), 2)


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

    def test_masked_sample_is_an_error(self):
        # the pole sits on the sample 0.4+0.8i of the 5 x 2 set; the hop
        # from 0.8i to 0.8+0.8i crosses it, so that sample is masked too
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["limit", "--eta", "1/(z-0.4-0.8*i)", "--psi", "z",
                         "--report", self.path("report.json")],
                        stream=io.StringIO())
        self.assertEqual(code, 1)
        text = err.getvalue()
        self.assertIn("2 of 10 limit samples masked", text)
        self.assertIn("(0.40000000000000013+0.8j), (0.8+0.8j)", text)
        self.assertFalse(os.path.exists(self.path("report.json")))


class TestOdeBridgeCommands(CliCase):
    def test_to_ode(self):
        code, text = run_cli("ode", "to-ode", "--eta", "exp(0.5*z^2)",
                             "--psi", "sqrt(pi)*erf(z)")
        self.assertEqual(code, 0)
        self.assertIn("p = -2*z", text)
        self.assertIn("q = -2", text)

    def test_to_ode_refuses_zero_eta(self):
        # -2 eta'/eta has no value when eta vanishes identically
        for eta in ("0", "0*z"):
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(["ode", "to-ode", "--eta", eta, "--psi", "z"],
                            stream=io.StringIO())
            self.assertEqual(code, 1, eta)
            self.assertIn("eta = %s is identically zero" % eta,
                          err.getvalue())
        code, text = run_cli("ode", "to-ode", "--eta", "z", "--psi", "z")
        self.assertEqual(code, 0)
        self.assertEqual(text, "p = -2/z\nq = -z^2\nQ = -(1/z^2)-1/z^2-z^2\n")

    def test_from_ode_negative_values(self):
        # a value flag takes the next token though it begins with '-'
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

    def test_erf_example_where_eta_squared_overflows(self):
        # at |z| ~ 40, e^{z^2} overflows: every sample is masked, and
        # ode_constancy skips each of its points under the error's name
        code, _ = run_cli("ode", "erf-example", "--n", "2",
                          "--domain", "40:41:-0.5:0.5", "--res", "5",
                          "--report", self.path("report.json"))
        self.assertEqual(code, 2)
        check = self.report()["checks"]["ode_constancy"]
        self.assertEqual(check["evaluated"], 0)
        self.assertEqual(check["skipped"], {"OverflowError": 25})
        self.assertIsNone(check["worst"])
        self.assertFalse(check["pass"])


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
        for command, (_, flags) in _COMMANDS.items():
            lines = ["%s = %s" % (k, self.OWN_VALUES[k]) if k != "param"
                     else "param.a = 0.2" for k in flags]
            cfg = self.write_config("\n".join(lines) + "\n")
            split = _split_argv(command.split() + ["--config", cfg])
            self.assertEqual(split, (command, [("config", cfg)]))
            merged = _merge_config(*split)
            for key in flags:
                if key == "param":
                    self.assertEqual(merged["params"], {"a": 0.2 + 0j}, command)
                else:
                    self.assertIn(key, merged, "%s %s" % (command, key))
            # and each is a flag of the command, which gives the pair of
            # the file's line
            for key in flags:
                argv = command.split()
                if key == "perturb":
                    argv.append("--perturb")
                    pair = ("perturb", "true")
                elif key == "param":
                    argv.append("--param=a=0.2")
                    pair = ("param.a", "0.2")
                else:
                    argv.append("--%s=%s" % (key, self.OWN_VALUES[key]))
                    pair = (key, self.OWN_VALUES[key])
                self.assertEqual(_split_argv(argv), (command, [pair]))

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


def test_benchmark_wrap_points_resolve():
    # the benchmark tracer rebinds these module names for one operation;
    # a name missing from its module makes every traced run fail
    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "solbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("solbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.WRAP_POINTS
    for module, attr, _ in tracer.WRAP_POINTS:
        assert callable(getattr(getattr(solsurf, module), attr)), (module, attr)


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
