"""Command-line frontend: mesh generation, residual verification, limit
studies, and the ODE bridge.

Commands

    generate      sample a surface patch, write a mesh and a report
    verify        run the residual battery over a grid, write a report
    limit         convergence study of the shifted immersion as lambda -> 0
    ode to-ode    print the scalar-equation coefficients of given data
    ode from-ode  rebuild Weierstrass data from (p, q)
    ode erf-example   the error-function surface with its report

Exit codes: 0 all checks pass, 2 at least one check failed, 1 usage or
runtime error.  Reports are JSON with top-level keys command, config_echo,
checks, wall_ms; each check is {max, mean, threshold, pass} with
pass <=> max < threshold.  Identical configurations yield byte-identical
reports apart from wall_ms.

A configuration file (--config, plain key=value lines, '#' comments) may
supply any long flag of its command by name, an on/off flag as true,
false, 1 or 0, a --param binding as param.NAME; a key the command has no
flag for is a usage error, and explicit flags win over the file.  A
number that is nan or infinite is a usage error too.  Domain syntax is
re_min:re_max:im_min:im_max.  --threads and the environment
variable SOLSURF_THREADS are accepted for compatibility and have no
effect: sampling runs on one thread.
"""

import argparse
import cmath
import json
import math
import sys
import time
from functools import partial

import numpy as np

from .expr import parse
from .geom import (SurfaceFields, WeierstrassData, fields_from_weierstrass,
                   gmc_residual, zero_curvature_residual)
# frame_and_curvature is not called here; it stays a module name because
# the benchmark tracer in solbench/ wraps cli.frame_and_curvature
from .immersion import (FRAME_OK, DomainRect, frame_and_curvature,  # noqa: F401
                        frame_sweep, loop_period, sample_surface,
                        enneper_weierstrass)
from .lsp import PathSpec, propagate, gauge_equivalence_residual, _ID4
# the tuple form of the shifted immersion: shifted_immersion's 1e-6
# determinant check would reject runs at a legal --tol up to 1e-2
from .immersion import _lorentz4
from .odebridge import (erf_example_surface, kummer_crosscheck,
                        ode_coefficients, standard_potential,
                        weierstrass_from_ode, OdeSpec, free_params)

__all__ = ["main", "main_entry"]


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# the number parsers, for flags, --param and config files alike, refuse
# nan and inf, which float() and complex() accept
def _parse_complex(text):
    try:
        value = complex(str(text).strip().replace("i", "j"))
    except ValueError:
        raise UsageError("not a complex number: %r" % (text,))
    if not cmath.isfinite(value):
        raise UsageError("not a finite number: %r" % (text,))
    return value


def _parse_domain(text):
    parts = str(text).split(":")
    if len(parts) != 4:
        raise UsageError("domain must be re_min:re_max:im_min:im_max, got %r"
                         % (text,))
    try:
        a, b, c, d = (_parse_float(p) for p in parts)
    except UsageError:
        raise UsageError("domain bounds must be finite numbers: %r" % (text,))
    if not (b > a and d > c):
        raise UsageError("empty domain %r" % (text,))
    return (a, b, c, d)


def _parse_lambdas(text):
    try:
        vals = [_parse_float(p) for p in str(text).split(",") if p.strip()]
    except UsageError:
        raise UsageError("bad --lambdas list %r" % (text,))
    if len(vals) < 3:
        raise UsageError("--lambdas needs at least 3 values")
    if any(v <= 0 for v in vals) or any(b >= a for a, b in zip(vals, vals[1:])):
        raise UsageError("--lambdas must be positive and strictly decreasing")
    return vals


def _parse_float(text):
    try:
        value = float(text)
    except ValueError:
        raise UsageError("not a number: %r" % (text,))
    if not math.isfinite(value):
        raise UsageError("not a finite number: %r" % (text,))
    return value


def _parse_int(text):
    try:
        return int(text)
    except ValueError:
        raise UsageError("not an integer: %r" % (text,))


def _parse_switch(text):
    # a config file's value of an on/off flag such as --perturb
    if text in ("true", "1"):
        return True
    if text in ("false", "0"):
        return False
    raise UsageError("not true, false, 1 or 0: %r" % (text,))


# converters for every value-taking flag, shared by CLI and config files
_CONVERTERS = {
    "eta": str, "psi": str, "p": str, "q": str,
    "lambda": _parse_float, "tol": _parse_float,
    "c": _parse_complex, "c1": _parse_complex, "z0": _parse_complex,
    "z": _parse_complex,
    "n": _parse_int, "res": _parse_int, "threads": _parse_int,
    "domain": _parse_domain, "lambdas": _parse_lambdas,
    "target": str, "out": str, "report": str, "config": str,
}

_FLAG_NAMES = sorted("--" + k for k in _CONVERTERS)


# the flags of each command, for its parser and for the keys its config
# file may set; "param" is the repeatable --param name=value, which a
# config file writes as param.NAME = value
_COMMAND_FLAGS = {
    "generate": ("eta", "psi", "lambda", "z0", "target", "domain", "res",
                 "tol", "out", "report", "threads", "config", "param"),
    "verify": ("eta", "psi", "lambda", "z0", "target", "domain", "res",
               "tol", "report", "threads", "config", "perturb", "param"),
    "limit": ("eta", "psi", "z0", "lambdas", "domain", "tol", "report",
              "config", "param"),
    "ode to-ode": ("eta", "psi", "lambda", "z0", "report", "config",
                   "param"),
    "ode from-ode": ("p", "q", "lambda", "c", "c1", "z0", "report",
                     "config"),
    "ode erf-example": ("n", "c", "c1", "lambda", "domain", "res", "tol",
                        "out", "report", "threads", "config", "z"),
}


def _add_flags(p, command):
    for name in _COMMAND_FLAGS[command]:
        kwargs = {"default": argparse.SUPPRESS}
        if name == "perturb":
            p.add_argument("--perturb", action="store_true", **kwargs)
        elif name == "param":
            p.add_argument("--param", action="append", **kwargs)
        else:
            p.add_argument("--" + name, type=str, **kwargs)


def _build_parser():
    top = _Parser(prog="solsurf", add_help=True)
    sub = top.add_subparsers(dest="command")
    _add_flags(sub.add_parser("generate",
                              help="sample a surface patch and export"),
               "generate")
    _add_flags(sub.add_parser("verify", help="run the residual battery"),
               "verify")
    _add_flags(sub.add_parser("limit", help="flat-limit convergence study"),
               "limit")
    ode = sub.add_parser("ode", help="scalar-equation bridge")
    odesub = ode.add_subparsers(dest="subcommand")
    for name in ("to-ode", "from-ode", "erf-example"):
        _add_flags(odesub.add_parser(name), "ode " + name)
    return top


_DEFAULTS = {
    "generate": {"lambda": 1.0, "z0": 0j, "target": "h3", "res": 33,
                 "tol": 1e-8, "domain": (-1.0, 1.0, -1.0, 1.0), "threads": 1},
    "verify": {"lambda": 1.0, "z0": 0j, "target": "h3", "res": 65,
               "tol": 1e-8, "domain": (-0.32, 0.32, -0.32, 0.32),
               "threads": 1, "perturb": False},
    "limit": {"z0": 0j, "tol": 1e-10, "domain": (-1.0, 1.0, -1.0, 1.0),
              "lambdas": [1e-1, 1e-2, 1e-3]},
    "ode to-ode": {"lambda": 1.0, "z0": 0j},
    "ode from-ode": {"lambda": 1.0, "c": 1 + 0j, "c1": 0j, "z0": 0j},
    "ode erf-example": {"c": 1 + 0j, "c1": 0j, "lambda": 1.0, "res": 65,
                        "tol": 1e-8, "domain": (0.68, 1.32, -0.32, 0.32),
                        "threads": 1, "z": 1.5 + 0j},
}


def _read_config_file(path):
    pairs = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError("%s:%d: expected key=value" % (path, lineno))
                key, value = line.split("=", 1)
                pairs[key.strip()] = value.strip()
    except OSError as exc:
        raise UsageError("cannot read config file: %s" % exc)
    return pairs


def _merge_config(command, ns):
    """defaults < config file < explicit flags; returns a plain dict.

    A config file may set only the command's own flags (_COMMAND_FLAGS)."""
    flags = _COMMAND_FLAGS[command]
    cfg = dict(_DEFAULTS[command])
    given = dict(vars(ns))
    given.pop("command", None)
    given.pop("subcommand", None)
    params = {}
    file_path = given.pop("config", None)
    if file_path is not None:
        for key, value in _read_config_file(file_path).items():
            if key.startswith("param.") and "param" in flags:
                params[key[6:]] = _parse_complex(value)
                continue
            if key not in flags or key == "param":
                raise UsageError("unknown config key %r for %s"
                                 % (key, command))
            if key == "perturb":
                cfg[key] = _parse_switch(value)
                continue
            cfg[key] = _CONVERTERS[key](value)
    for key, value in given.items():
        if key == "param":
            for item in value:
                if "=" not in item:
                    raise UsageError("--param needs name=value, got %r" % (item,))
                name, val = item.split("=", 1)
                params[name.strip()] = _parse_complex(val)
            continue
        if key == "perturb":
            cfg["perturb"] = bool(value)
            continue
        cfg[key] = _CONVERTERS[key](value)
    cfg["params"] = params
    return cfg


def _require(cfg, *names):
    for name in names:
        if name not in cfg or cfg[name] is None:
            raise UsageError("missing required flag --%s" % name)


def _load_data(cfg):
    _require(cfg, "eta", "psi")
    eta = parse(cfg["eta"])
    psi = parse(cfg["psi"])
    unbound = (free_params(eta) | free_params(psi)) - set(cfg["params"])
    if unbound:
        raise UsageError("unbound parameter %r; bind it with --param name=value"
                         % sorted(unbound)[0])
    lam = float(cfg.get("lambda", 1.0))
    return WeierstrassData(eta=eta, psi=psi, z0=complex(cfg["z0"]),
                           lam=lam, params=dict(cfg["params"]))


def _domain_rect(cfg):
    a, b, c, d = cfg["domain"]
    res = int(cfg["res"])
    if res < 2:
        raise UsageError("--res must be at least 2")
    return DomainRect(a, b, c, d, res, res)


def _tol(cfg):
    tol = float(cfg["tol"])
    if not (0.0 < tol <= 1e-2):
        raise UsageError("--tol must lie in (0, 1e-2]")
    return tol


def _validate_run(cfg):
    _tol(cfg)
    target = cfg.get("target", "h3")
    if target not in ("h3", "e3-limit", "e3-direct"):
        raise UsageError("--target must be h3, e3-limit or e3-direct")
    if target in ("h3", "e3-limit") and float(cfg.get("lambda", 1.0)) == 0.0:
        raise UsageError("--lambda must be nonzero for target %s" % target)


# ---------------------------------------------------------------------------
# report assembly

def _check(values, threshold):
    arr = np.ravel(np.asarray(values, dtype=float))
    arr = arr[np.isfinite(arr)]
    if arr.size == 0:
        return {"max": float("nan"), "mean": float("nan"),
                "threshold": float(threshold), "pass": False}
    mx = float(np.max(arr))
    return {"max": mx, "mean": float(np.mean(arr)),
            "threshold": float(threshold), "pass": bool(mx < threshold)}


def _echo_value(v):
    if isinstance(v, complex):
        return [v.real, v.imag]
    if isinstance(v, tuple):
        return list(v)
    if isinstance(v, dict):
        return {k: _echo_value(x) for k, x in sorted(v.items())}
    return v


def _finish_report(report, cfg, command, start, checks, extra=None):
    report["command"] = command
    report["config_echo"] = {k: _echo_value(v) for k, v in sorted(cfg.items())
                             if k not in ("config",)}
    report["checks"] = checks
    if extra:
        report.update(extra)
    report["wall_ms"] = round((time.perf_counter() - start) * 1000.0, 3)
    return report


def _write_report(report, cfg, stream):
    text = json.dumps(report, indent=2, sort_keys=True)
    path = cfg.get("report")
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
        print("report written to %s" % path, file=stream)
    else:
        print(text, file=stream)


def _print_checks(checks, stream):
    for name in sorted(checks):
        c = checks[name]
        print("%-20s %s  (max %.3e, threshold %.1e)"
              % (name, "PASS" if c["pass"] else "FAIL", c["max"],
                 c["threshold"]), file=stream)


def _exit_code(checks):
    return 0 if all(c["pass"] for c in checks.values()) else 2


# ---------------------------------------------------------------------------
# residual battery

def _sample_points(domain, per_axis):
    xs = np.linspace(domain.re_min, domain.re_max, per_axis)
    ys = np.linspace(domain.im_min, domain.im_max, per_axis)
    return [complex(x, y) for y in ys for x in xs]


def _battery(patch, perturb=False):
    """The named residual checks for a sampled patch."""
    data, domain, target = patch.data, patch.domain, patch.target
    lam = data.lam
    checks = {}

    fields = fields_from_weierstrass(data)
    if perturb:
        bq = fields.Q
        fields = SurfaceFields(
            u=fields.u, Q=lambda z: bq(z) + 0.1 * z.conjugate(), H=lam,
            lam=lam)

    pts = _sample_points(domain, min(domain.nx, 10))
    gmc_vals = []
    zc_vals = []
    for z in pts:
        try:
            r1, r2 = gmc_residual(fields, z)
            gmc_vals.append(max(abs(r1), abs(r2)))
            rz = zero_curvature_residual(fields, z)
            zc_vals.append(float(np.max(np.abs(rz))))
        except Exception:
            continue
    checks["gmc"] = _check(gmc_vals, 1e-4)
    checks["zero_curvature"] = _check(zc_vals, 1e-4)

    # gauge equivalence along three fixed paths into the domain
    mids = [complex(domain.re_min + 0.75 * (domain.re_max - domain.re_min),
                    domain.im_min + 0.5 * (domain.im_max - domain.im_min)),
            complex(domain.re_min + 0.5 * (domain.re_max - domain.re_min),
                    domain.im_min + 0.75 * (domain.im_max - domain.im_min)),
            complex(domain.re_min + 0.3 * (domain.re_max - domain.re_min),
                    domain.im_min + 0.3 * (domain.im_max - domain.im_min))]
    g_res, g_uni, g_inv = [], [], []
    for w in mids:
        try:
            r = gauge_equivalence_residual(data, PathSpec.line(data.z0, w),
                                           tol=min(patch.tol, 1e-10))
            g_res.append(max(r["dz_residual"], r["dzbar_residual"]))
            g_uni.append(r["m_unitarity"])
            g_inv.append(r["trdet_drift"])
        except Exception:
            continue
    checks["gauge_equivalence"] = _check(g_res, 1e-4)
    checks["gauge_unitarity"] = _check(g_uni, 1e-12)
    checks["gauge_invariants"] = _check(g_inv, 1e-8)

    # frame sweep: conformality and mean curvature at interior samples,
    # two rings in when the grid affords the wide fourth-order stencils
    expected_h = lam if target == "h3" else 0.0
    ny, nx = patch.valid.shape
    sweep = frame_sweep(patch, 2 if (ny >= 5 and nx >= 5) else 1)
    ok = sweep.reason == FRAME_OK
    checks["conformality"] = _check(sweep.conformality[ok], 1e-5)
    h_thresh = 5e-3 + (abs(lam) if target == "e3-limit" else 0.0)
    checks["mean_curvature"] = _check(np.abs(sweep.H_est[ok] - expected_h),
                                      h_thresh)

    if "hyperboloid" in patch.residuals:
        vals = patch.residuals["hyperboloid"][patch.valid]
        checks["hyperboloid"] = _check(np.abs(vals), 1e-6)
    if "det_drift" in patch.residuals:
        vals = patch.residuals["det_drift"][patch.valid]
        checks["det_drift"] = _check(vals, max(1e-6, 100.0 * patch.tol))
    if "x0_abs" in patch.residuals:
        vals = patch.residuals["x0_abs"][patch.valid]
        checks["x0_limit"] = _check(vals, 10.0 * abs(lam) + 1e-8)

    # loop period around the domain boundary (single-valuedness)
    corners = [complex(domain.re_min, domain.im_min),
               complex(domain.re_max, domain.im_min),
               complex(domain.re_max, domain.im_max),
               complex(domain.re_min, domain.im_max)]
    try:
        per = loop_period(data, PathSpec(corners + corners[:1]), tol=1e-10)
        checks["loop_period"] = _check([float(np.max(np.abs(per.real)))], 1e-6)
    except Exception:
        checks["loop_period"] = _check([], 1e-6)
    return checks


# ---------------------------------------------------------------------------
# mesh export

def _vertex_index_map(valid):
    """Row-major vertex number of each valid sample, -1 elsewhere."""
    index = np.where(valid, np.cumsum(valid).reshape(valid.shape) - 1, -1)
    return index, int(np.count_nonzero(valid))


def _quad_triangles(valid, index):
    """(n, 3) vertex numbers: each grid cell with four valid corners
    a, b, c, d (counterclockwise from its lower-left sample), in
    row-major cell order, split into (a, b, c) and (a, c, d)."""
    quad = valid[:-1, :-1] & valid[:-1, 1:] & valid[1:, 1:] & valid[1:, :-1]
    a = index[:-1, :-1][quad]
    b = index[:-1, 1:][quad]
    c = index[1:, 1:][quad]
    d = index[1:, :-1][quad]
    tris = np.empty((2 * a.size, 3), dtype=index.dtype)
    tris[0::2] = np.stack([a, b, c], axis=1)
    tris[1::2] = np.stack([a, c, d], axis=1)
    return tris


_CHUNK_ROWS = 4096


def _write_rows(fh, template, arr):
    """Write each row of a 2-D array through the %-template of one row.

    Each chunk of _CHUNK_ROWS rows is formatted by one % of the template
    repeated, so that the writers never hold every vertex or face as
    Python objects at once.
    """
    for k in range(0, len(arr), _CHUNK_ROWS):
        block = arr[k:k + _CHUNK_ROWS]
        fh.write((template * len(block)) % tuple(block.ravel().tolist()))


def write_obj(patch, path):
    """ASCII OBJ, row-major vertices, quads split into two triangles.

    For Lorentz targets the written coordinates are (X1, X2, X3); the X0
    component precedes each vertex as a comment line.
    """
    index, count = _vertex_index_map(patch.valid)
    tris = _quad_triangles(patch.valid, index + 1)      # OBJ counts from 1
    ny, nx = patch.valid.shape
    vertex = "v %.17g %.17g %.17g\n"
    if patch.points.shape[-1] == 4:
        # Lorentz points are (X0, X1, X2, X3)
        vertex = "# x0 %.17g\n" + vertex
    with open(path, "w") as fh:
        fh.write("# surface mesh, target %s, %d x %d grid\n"
                 % (patch.target, ny, nx))
        _write_rows(fh, vertex, patch.points[patch.valid])
        _write_rows(fh, "f %d %d %d\n", tris)
    return count, len(tris)


def write_ply(patch, path):
    """ASCII PLY mirroring the OBJ layout, with x0 as an extra property."""
    index, count = _vertex_index_map(patch.valid)
    tris = _quad_triangles(patch.valid, index)
    verts = patch.points[patch.valid]
    lorentz = verts.shape[-1] == 4
    if lorentz:
        verts = verts[:, [1, 2, 3, 0]]      # x y z x0
    vertex = " ".join(["%.17g"] * verts.shape[-1]) + "\n"
    with open(path, "w") as fh:
        fh.write("ply\nformat ascii 1.0\n")
        fh.write("comment surface mesh, target %s\n" % patch.target)
        fh.write("element vertex %d\n" % count)
        fh.write("property float x\nproperty float y\nproperty float z\n")
        if lorentz:
            fh.write("property float x0\n")
        fh.write("element face %d\n" % len(tris))
        fh.write("property list uchar int vertex_indices\nend_header\n")
        _write_rows(fh, vertex, verts)
        _write_rows(fh, "3 %d %d %d\n", tris)
    return count, len(tris)


def _write_mesh(patch, path, stream):
    if path.endswith(".ply"):
        nv, nf = write_ply(patch, path)
    elif path.endswith(".obj"):
        nv, nf = write_obj(patch, path)
    else:
        raise UsageError("--out must end in .obj or .ply")
    print("mesh written to %s (%d vertices, %d faces)" % (path, nv, nf),
          file=stream)


# ---------------------------------------------------------------------------
# commands

def cmd_sample(cfg, stream, start, command):
    """generate and verify: sample the patch, run the battery, report.
    Only generate writes the mesh, only verify injects the perturbation."""
    _validate_run(cfg)
    data = _load_data(cfg)
    domain = _domain_rect(cfg)
    patch = sample_surface(data, domain, cfg["target"], tol=float(cfg["tol"]))
    checks = _battery(patch,
                      perturb=command == "verify" and bool(cfg.get("perturb")))
    if command == "generate" and cfg.get("out"):
        _write_mesh(patch, cfg["out"], stream)
    report = _finish_report({}, cfg, command, start, checks)
    _print_checks(checks, stream)
    _write_report(report, cfg, stream)
    return _exit_code(checks)


def cmd_limit(cfg, stream, start):
    data0 = _load_data(dict(cfg, **{"lambda": 1.0}))
    lams = cfg["lambdas"]
    a, b, c, d = cfg["domain"]
    tol = _tol(cfg)
    xs = np.linspace(a + 0.1 * (b - a), b - 0.1 * (b - a), 5)
    ys = np.linspace(c + 0.1 * (d - c), d - 0.1 * (d - c), 2)
    zs = [complex(x, y) for y in ys for x in xs]

    targets = []
    for z in zs:
        f = enneper_weierstrass(data0, PathSpec.line(data0.z0, z), tol=tol)
        targets.append(np.array([0.0, -2 * f[0], -2 * f[1], 2 * f[2]]))

    table = []
    errs = []
    for lam in lams:
        data = WeierstrassData(eta=data0.eta, psi=data0.psi, z0=data0.z0,
                               lam=lam, params=data0.params)
        worst = 0.0
        for z, tgt in zip(zs, targets):
            y = propagate(data, data.z0, z, _ID4, tol=tol, system="reduced")
            x = np.array(_lorentz4(y, lam, 1.0))
            worst = max(worst, float(np.max(np.abs(x - tgt))))
        table.append([lam, worst])
        errs.append(worst)

    order = float(np.polyfit(np.log(lams), np.log(errs), 1)[0])
    checks = {
        "limit_order_shortfall": _check([0.9 - order], 0.0),
        "limit_abs_error": _check([errs[-1]], 1e-2),
    }
    extra = {"limit_table": table, "fitted_order": order}
    report = _finish_report({}, cfg, "limit", start, checks, extra)
    print("fitted order %.3f over %d lambda values" % (order, len(lams)),
          file=stream)
    _print_checks(checks, stream)
    _write_report(report, cfg, stream)
    return _exit_code(checks)


def cmd_ode_to(cfg, stream, start):
    data = _load_data(cfg)
    spec = ode_coefficients(data)
    pot = standard_potential(data)
    print("p = %s" % spec.p, file=stream)
    print("q = %s" % spec.q, file=stream)
    print("Q = %s" % pot, file=stream)
    if cfg.get("report"):
        report = _finish_report(
            {"p": str(spec.p), "q": str(spec.q), "potential": str(pot)},
            cfg, "ode to-ode", start, {})
        _write_report(report, cfg, stream)
    return 0


def cmd_ode_from(cfg, stream, start):
    _require(cfg, "p", "q")
    lam = float(cfg.get("lambda", 1.0))
    if lam == 0.0:
        raise UsageError("--lambda must be nonzero")
    spec = OdeSpec(p=parse(cfg["p"]), q=parse(cfg["q"]), lam=lam)
    data = weierstrass_from_ode(spec, c=cfg["c"], c1=cfg["c1"], z0=cfg["z0"])
    print("eta = %s" % data.eta, file=stream)
    print("psi = %s" % data.psi, file=stream)
    print("z0 = %s, lambda = %s" % (data.z0, data.lam), file=stream)
    if cfg.get("report"):
        report = _finish_report(
            {"eta": str(data.eta), "psi": str(data.psi)},
            cfg, "ode from-ode", start, {})
        _write_report(report, cfg, stream)
    return 0


def cmd_ode_erf(cfg, stream, start):
    _require(cfg, "n")
    lam = float(cfg["lambda"])
    if lam == 0.0:
        raise UsageError("--lambda must be nonzero")
    tol = _tol(cfg)
    n = int(cfg["n"])
    domain = _domain_rect(cfg)
    patch = erf_example_surface(n, c=cfg["c"], c1=cfg["c1"], lam=lam,
                                domain=domain, tol=tol)
    data = patch.data
    checks = _battery(patch)

    # the defining cancellation: lambda eta^2 psi' is the constant 2n
    eta_f, _, _, dpsi_f = data.functions()
    dev = []
    for z in _sample_points(domain, min(int(cfg["res"]), 12)):
        dev.append(abs(lam * eta_f(z) ** 2 * dpsi_f(z) - 2.0 * n))
    checks["ode_constancy"] = _check(dev, 1e-10)

    # advisory: closed-form comparison, excluded from the exit code
    kc = kummer_crosscheck(n, c=cfg["c"], c1=cfg["c1"], lam=lam, z=cfg["z"])

    if cfg.get("out"):
        _write_mesh(patch, cfg["out"], stream)
    report = _finish_report({}, cfg, "ode erf-example", start, checks,
                            {"kummer_crosscheck": kc})
    _print_checks(checks, stream)
    print("kummer crosscheck: %s (max deviation %.3e, advisory)"
          % ("PASS" if kc["pass"] else "FAIL", kc["max_deviation"]),
          file=stream)
    _write_report(report, cfg, stream)
    return _exit_code(checks)


# ---------------------------------------------------------------------------

def _preprocess_argv(argv):
    """Join value flags with values that begin with '-' (negative bounds)."""
    out = []
    k = 0
    while k < len(argv):
        tok = argv[k]
        if tok in _FLAG_NAMES and k + 1 < len(argv) \
                and argv[k + 1].startswith("-") \
                and argv[k + 1] not in _FLAG_NAMES:
            out.append(tok + "=" + argv[k + 1])
            k += 2
            continue
        out.append(tok)
        k += 1
    return out


def main(argv=None, stream=None):
    """Entry point; returns the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    stream = stream or sys.stdout
    start = time.perf_counter()
    parser = _build_parser()
    try:
        ns = parser.parse_args(_preprocess_argv(list(argv)))
        command = getattr(ns, "command", None)
        if command is None:
            raise UsageError("a command is required (generate, verify, "
                             "limit, ode)")
        if command == "ode":
            subcommand = getattr(ns, "subcommand", None)
            if subcommand is None:
                raise UsageError("ode needs a subcommand: to-ode, from-ode "
                                 "or erf-example")
            command = "ode " + subcommand
        cfg = _merge_config(command, ns)
        handler = {
            "generate": partial(cmd_sample, command="generate"),
            "verify": partial(cmd_sample, command="verify"),
            "limit": cmd_limit,
            "ode to-ode": cmd_ode_to,
            "ode from-ode": cmd_ode_from,
            "ode erf-example": cmd_ode_erf,
        }[command]
        return handler(cfg, stream, start)
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except Exception as exc:
        print("error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 1


def main_entry():
    raise SystemExit(main())
