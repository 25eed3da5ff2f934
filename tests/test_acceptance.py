"""Acceptance battery: one test per shipped guarantee.

Each test prints one ACCEPTANCE line (PASS or FAIL with the measured
numbers), then asserts the stated tolerances.  The project pytest options
tee captured output through to the terminal, so a test log always carries
the full scoreboard.
"""

import io
import json
import math
import time
import unittest

import numpy as np

from solsurf.cli import main as cli_main
from solsurf.expr import Num, Param, Var, add, const_expr, mul, parse, pow_
from solsurf.geom import (SurfaceFields, WeierstrassData,
                          fields_from_weierstrass, gmc_residual,
                          zero_curvature_residual)
from solsurf.immersion import (DomainRect, enneper_weierstrass,
                               frame_and_curvature, sample_surface,
                               shifted_immersion)
from solsurf.lsp import (PathSpec, gauge_equivalence_residual,
                         integrate_reduced, picard_series)
from solsurf.odebridge import (erf_example_data, erf_example_surface,
                               kummer_crosscheck, ode_coefficients)
from solsurf.specfun import erf_c, hermite_h, kummer_c

ENNEPER = {"eta": parse("1"), "psi": parse("z"), "z0": 0j}


def announce(num, slug, ok, detail):
    print("ACCEPTANCE C%d %s: %s (%s)" % (num, slug, "PASS" if ok else "FAIL",
                                          detail), flush=True)


def d1(f, z, h=1e-2):
    """Fourth-order first derivative, tolerant of series evaluation noise."""
    return (-f(z + 2 * h) + 8 * f(z + h) - 8 * f(z - h) + f(z - 2 * h)) / (12 * h)


def d2(f, z, h=1e-2):
    return (-f(z + 2 * h) + 16 * f(z + h) - 30 * f(z)
            + 16 * f(z - h) - f(z - 2 * h)) / (12 * h * h)


def frame_sweep(patch, expected_h):
    """Worst |H_est - expected| and normalized conformality residual over
    every interior point that affords the wide stencil."""
    lorentz = patch.points.shape[-1] == 4
    worst_h = 0.0
    worst_conf = 0.0
    ny, nx = patch.valid.shape
    for i in range(2, ny - 2):
        for j in range(2, nx - 2):
            fr = frame_and_curvature(patch, (i, j))
            fz = fr.F_z
            if lorentz:
                ip = fz[1] ** 2 + fz[2] ** 2 + fz[3] ** 2 - fz[0] ** 2
            else:
                ip = fz[0] ** 2 + fz[1] ** 2 + fz[2] ** 2
            worst_conf = max(worst_conf, abs(ip) / math.exp(fr.u))
            worst_h = max(worst_h, abs(fr.H_est - expected_h))
    return worst_h, worst_conf


def random_polynomial_data(rng):
    """Holomorphic data with eta bounded away from zero on the unit box."""
    def cnum(scale):
        return complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale))

    eta = add(Num(1.0), add(mul(const_expr(cnum(0.3)), Var()),
                            mul(const_expr(cnum(0.3)), pow_(Var(), Num(2.0)))))
    psi = add(const_expr(cnum(0.6)),
              add(mul(const_expr(cnum(0.6)), Var()),
                  mul(const_expr(cnum(0.6)), pow_(Var(), Num(2.0)))))
    lam = rng.uniform(0.5, 1.5)
    return WeierstrassData(eta=eta, psi=psi, z0=0j, lam=lam)


class TestAcceptance(unittest.TestCase):
    def test_c01_hyperboloid_law(self):
        t0 = time.perf_counter()
        worst = 0.0
        dom = DomainRect(-1.0, 1.0, -1.0, 1.0, 64, 64)
        for lam in (0.5, 1.0, 2.0):
            patch = sample_surface(WeierstrassData(lam=lam, **ENNEPER), dom,
                                   "h3", tol=1e-8)
            self.assertTrue(bool(np.all(patch.valid)))
            worst = max(worst, float(np.max(np.abs(
                patch.residuals["hyperboloid"]))))
        dt = time.perf_counter() - t0
        ok = worst < 1e-6 and dt < 30.0
        announce(1, "hyperboloid-law", ok,
                 "max |(F|F)+1/lambda^2| = %.3e over 64x64, %.1f s" % (worst, dt))
        self.assertLess(worst, 1e-6)
        self.assertLess(dt, 30.0)

    def test_c02_flat_limit_order(self):
        t0 = time.perf_counter()
        data0 = WeierstrassData(lam=1.0, **ENNEPER)
        xs = np.linspace(-0.8, 0.8, 5)
        ys = np.linspace(-0.8, 0.8, 2)
        zs = [complex(x, y) for y in ys for x in xs]
        targets = []
        for z in zs:
            f = enneper_weierstrass(data0, PathSpec.line(0j, z), tol=1e-10)
            targets.append(np.array([0.0, -2 * f[0], -2 * f[1], 2 * f[2]]))
        lams = [1e-1, 1e-2, 1e-3]
        errs = []
        for lam in lams:
            data = WeierstrassData(lam=lam, **ENNEPER)
            worst = 0.0
            for z, tgt in zip(zs, targets):
                wf = integrate_reduced(data, PathSpec.line(0j, z), tol=1e-10)
                worst = max(worst, float(np.max(np.abs(
                    shifted_immersion(wf) - tgt))))
            errs.append(worst)
        order = float(np.polyfit(np.log(lams), np.log(errs), 1)[0])
        dt = time.perf_counter() - t0
        ok = order >= 0.9 and errs[-1] < 1e-2 and dt < 10.0
        announce(2, "flat-limit-order", ok,
                 "order %.3f, error at 1e-3 = %.3e, %.1f s" % (order, errs[-1], dt))
        self.assertGreaterEqual(order, 0.9)
        self.assertLess(errs[-1], 1e-2)
        self.assertLess(dt, 10.0)

    def test_c03_closed_form_anchor(self):
        data = WeierstrassData(lam=1.0, **ENNEPER)
        f1 = enneper_weierstrass(data, PathSpec.line(0j, 1.0), tol=1e-12)
        fi = enneper_weierstrass(data, PathSpec.line(0j, 1j), tol=1e-12)
        e1 = float(np.max(np.abs(f1 - np.array([1.0 / 3.0, 0.0, 0.5]))))
        ei = float(np.max(np.abs(fi - np.array([0.0, -1.0 / 3.0, -0.5]))))
        ok = e1 < 1e-8 and ei < 1e-8
        announce(3, "closed-form-anchor", ok,
                 "deviation %.3e at z=1, %.3e at z=i" % (e1, ei))
        self.assertLess(e1, 1e-8)
        self.assertLess(ei, 1e-8)

    def test_c04_picard_oracle(self):
        # order 1 against the hand-integrated first iterated integral
        lam = 0.1
        data = WeierstrassData(lam=lam, **ENNEPER)
        got = picard_series(data, 1.0, 1)
        want = np.eye(2) + lam * np.array([[0.5, -1.0], [1.0 / 3.0, -0.5]])
        e_closed = float(np.max(np.abs(got - want)))

        # order 6 against the integrator under lambda-halving
        errs = []
        lams = [0.1, 0.05, 0.025]
        for lv in lams:
            d = WeierstrassData(eta=parse("1+0.2*z"), psi=parse("z^2"),
                                z0=0j, lam=lv)
            ref = integrate_reduced(d, PathSpec.line(0j, 3.0), tol=1e-13).value
            errs.append(float(np.max(np.abs(picard_series(d, 3.0, 6) - ref))))
        slope = float(np.polyfit(np.log(lams), np.log(errs), 1)[0])
        ok = e_closed < 1e-8 * lam and errs[0] < 1e-4 and slope >= 6.5
        announce(4, "picard-oracle", ok,
                 "order-1 deviation %.3e, order-6 error %.3e at 0.1, "
                 "slope %.2f" % (e_closed, errs[0], slope))
        self.assertLess(e_closed, 1e-8 * lam)
        self.assertLess(errs[0], 1e-4)
        self.assertGreaterEqual(slope, 6.5)

    def test_c05_gmc_zero_curvature(self):
        rng = np.random.default_rng(20240815)
        xs = np.linspace(-0.5, 0.5, 20)
        grid = [complex(x, y) for x in xs for y in xs]
        worst_valid = 0.0
        worst_perturbed = float("inf")
        for _ in range(5):
            data = random_polynomial_data(rng)
            fields = fields_from_weierstrass(data)
            bq = fields.Q
            broken = SurfaceFields(
                u=fields.u, Q=lambda z, bq=bq: bq(z) + 0.1 * z.conjugate(),
                H=data.lam, lam=data.lam)
            v_gmc = v_zc = 0.0
            p_gmc = p_zc = 0.0
            for z in grid:
                r1, r2 = gmc_residual(fields, z)
                v_gmc = max(v_gmc, abs(r1), abs(r2))
                v_zc = max(v_zc, float(np.max(np.abs(
                    zero_curvature_residual(data, z)))))
                r1, r2 = gmc_residual(broken, z)
                p_gmc = max(p_gmc, abs(r1), abs(r2))
                p_zc = max(p_zc, float(np.max(np.abs(
                    zero_curvature_residual(broken, z)))))
            worst_valid = max(worst_valid, v_gmc, v_zc)
            worst_perturbed = min(worst_perturbed, p_gmc, p_zc)
        ok = worst_valid < 1e-4 and worst_perturbed > 1e-2
        announce(5, "gmc-zero-curvature", ok,
                 "valid max %.3e, perturbed min %.3e over 5+5 data sets"
                 % (worst_valid, worst_perturbed))
        self.assertLess(worst_valid, 1e-4)
        self.assertGreater(worst_perturbed, 1e-2)

    def test_c06_gauge_equivalence(self):
        data = WeierstrassData(eta=parse("1+0.2*z"), psi=parse("z^2"),
                               z0=0j, lam=0.7)
        end = 0.5 + 0.4j
        paths = [PathSpec.line(0j, end),
                 PathSpec(points=(0j, 0.5, end)),
                 PathSpec(points=(0j, -0.2j, end))]
        worst_res = worst_uni = worst_inv = 0.0
        for path in paths:
            r = gauge_equivalence_residual(data, path)
            worst_res = max(worst_res, r["dz_residual"], r["dzbar_residual"])
            worst_uni = max(worst_uni, r["m_unitarity"])
            worst_inv = max(worst_inv, r["trdet_drift"])
        ok = worst_res < 1e-4 and worst_uni < 1e-12 and worst_inv < 1e-8
        announce(6, "gauge-equivalence", ok,
                 "residual %.3e, unitarity %.3e, invariants %.3e over 3 paths"
                 % (worst_res, worst_uni, worst_inv))
        self.assertLess(worst_res, 1e-4)
        self.assertLess(worst_uni, 1e-12)
        self.assertLess(worst_inv, 1e-8)

    def test_c07_curvature_estimates(self):
        dom = DomainRect(-0.32, 0.32, -0.32, 0.32, 65, 65)   # h = 1e-2
        details = []
        worst_conf = 0.0
        ok = True
        for lam in (0.5, 1.0):
            patch = sample_surface(WeierstrassData(lam=lam, **ENNEPER), dom,
                                   "h3", tol=1e-8)
            dh, conf = frame_sweep(patch, lam)
            details.append("|H-%g| %.1e" % (lam, dh))
            worst_conf = max(worst_conf, conf)
            ok = ok and dh < 5e-3
            self.assertLess(dh, 5e-3)
        patch = sample_surface(WeierstrassData(lam=1.0, **ENNEPER), dom,
                               "e3-direct", tol=1e-8)
        dh, conf = frame_sweep(patch, 0.0)
        details.append("|H-0| %.1e" % dh)
        worst_conf = max(worst_conf, conf)
        ok = ok and dh < 5e-3 and worst_conf < 1e-5
        announce(7, "curvature-estimates", ok,
                 "%s, conformality %.1e" % (", ".join(details), worst_conf))
        self.assertLess(dh, 5e-3)
        self.assertLess(worst_conf, 1e-5)

    def test_c08_error_function_example(self):
        n = 1
        data = erf_example_data(n)
        eta_f, _, _, dpsi_f = data.functions()
        dev = 0.0
        for x in np.linspace(0.68, 1.32, 13):
            for y in np.linspace(-0.32, 0.32, 13):
                z = complex(x, y)
                dev = max(dev, abs(data.lam * eta_f(z) ** 2 * dpsi_f(z) - 2 * n))

        spec_num = ode_coefficients(data)
        spec_sym = ode_coefficients(erf_example_data(Param("n")))
        exact = (str(spec_num.p) == "-2*z" and str(spec_num.q) == "-2"
                 and str(spec_sym.p) == "-2*z" and str(spec_sym.q) == "-2*n")

        patch = erf_example_surface(n, tol=1e-8)
        hyp = float(np.max(np.abs(patch.residuals["hyperboloid"])))
        dh, conf = frame_sweep(patch, data.lam)

        report = kummer_crosscheck(n)
        generated = all(k in report for k in
                        ("column_deviation", "scalar_residual", "pass", "notes"))

        ok = (dev < 1e-10 and exact and hyp < 1e-6 and dh < 5e-3
              and conf < 1e-5 and generated)
        announce(8, "error-function-example", ok,
                 "constancy %.1e, coefficients %s, hyperboloid %.1e, "
                 "|H-1| %.1e, crosscheck %s (advisory)"
                 % (dev, "exact" if exact else "WRONG", hyp, dh,
                    "PASS" if report["pass"] else "FAIL"))
        self.assertLess(dev, 1e-10)
        self.assertTrue(exact)
        self.assertLess(hyp, 1e-6)
        self.assertLess(dh, 5e-3)
        self.assertLess(conf, 1e-5)
        self.assertTrue(generated)

    def test_c09_special_functions(self):
        e_erf = abs(erf_c(1.0) - 0.842700792949715)
        e_kum = abs(kummer_c(0.5, 1.5, -1.0)
                    - 0.5 * math.sqrt(math.pi) * erf_c(1.0))
        worst_ode = 0.0
        for nu in (-2, -1, 0, 1, 2):
            f = lambda z, nu=nu: hermite_h(nu, z)
            for z in (0.3, 1.1, -0.7):
                r = d2(f, z) - 2 * z * d1(f, z) + 2 * nu * f(z)
                worst_ode = max(worst_ode, abs(r))
        ok = e_erf < 1e-12 and e_kum < 1e-10 and worst_ode < 1e-6
        announce(9, "special-functions", ok,
                 "erf(1) off %.1e, Kummer relation off %.1e, "
                 "Hermite residual %.1e" % (e_erf, e_kum, worst_ode))
        self.assertLess(e_erf, 1e-12)
        self.assertLess(e_kum, 1e-10)
        self.assertLess(worst_ode, 1e-6)

    def test_c10_determinism_performance(self):
        import tempfile, os
        with tempfile.TemporaryDirectory() as td:
            reports = []
            walls = []
            for name in ("a.json", "b.json"):
                path = os.path.join(td, name)
                code = cli_main(["generate", "--eta", "1", "--psi", "z",
                                 "--res", "64", "--report", path],
                                stream=io.StringIO())
                self.assertEqual(code, 0)
                with open(path) as fh:
                    rep = json.load(fh)
                walls.append(rep.pop("wall_ms"))
                rep["config_echo"]["report"] = None
                reports.append(json.dumps(rep, sort_keys=True))
        identical = reports[0] == reports[1]
        wall = max(walls)
        ok = identical and wall < 10000.0
        announce(10, "determinism-performance", ok,
                 "reports %s, 64x64 run %.0f ms"
                 % ("identical" if identical else "DIFFER", wall))
        self.assertTrue(identical)
        self.assertLess(wall, 10000.0)


if __name__ == "__main__":
    unittest.main()
