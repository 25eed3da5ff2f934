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
checks, wall_ms; checks holds the checks of solsurf.checks, whose table
CHECKS gives each check's threshold and coverage need.  Identical
configurations yield byte-identical reports apart from wall_ms.  An --out
suffix other than .obj or .ply is a usage error before any work.

A lambda that the chosen construction cannot use (LambdaZero) is an
error (exit 1) that names --lambda: zero, or for h3 a square that
underflows, or for ode from-ode and ode erf-example a reciprocal that
overflows.

limit samples 5 x 2 points, inset 10% from the domain edges, through the
grid sampler: e3-direct once, mapped to (0, -2 F1, -2 F2, 2 F3), and
e3-limit at each lambda.  Its table holds the largest entrywise deviation
per lambda; a masked sample is a runtime error (exit 1), since the fit
needs every point.

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

from .checks import battery, limit_checks, ode_constancy
from .expr import parse
from .geom import DomainError, WeierstrassData
from .immersion import TARGETS, DomainRect, LambdaZero, sample_surface
from .odebridge import (erf_example_surface, kummer_crosscheck,
                        ode_coefficients, standard_potential,
                        weierstrass_from_ode, OdeSpec, free_params)
# nothing here calls these: the benchmark tracer in solbench/ wraps them
# by their names in this module, and its install fails on a missing name
from .geom import gmc_residual, zero_curvature_residual  # noqa: F401
from .immersion import frame_and_curvature, loop_period  # noqa: F401
from .lsp import gauge_equivalence_residual  # noqa: F401

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


def _parse_tol(text):
    # below machine epsilon no integrator can meet the tolerance, and the
    # targets disagree on which samples to mask
    tol = _parse_float(text)
    if not (sys.float_info.epsilon <= tol <= 1e-2):
        raise UsageError("--tol must lie in [%.3g, 1e-2]"
                         % sys.float_info.epsilon)
    return tol


def _parse_target(text):
    if text not in TARGETS:
        raise UsageError("--target must be %s or %s"
                         % (", ".join(TARGETS[:-1]), TARGETS[-1]))
    return text


def _parse_out(text):
    if text and not text.endswith((".obj", ".ply")):
        raise UsageError("--out must end in .obj or .ply")
    return text


def _parse_switch(text):
    # an on/off flag's value: "true" from the flag, any of these from a file
    if text in ("true", "1"):
        return True
    if text in ("false", "0"):
        return False
    raise UsageError("not true, false, 1 or 0: %r" % (text,))


# converters for the value of every flag, shared by CLI and config files
_CONVERTERS = {
    "eta": str, "psi": str, "p": str, "q": str,
    "lambda": _parse_float, "tol": _parse_tol,
    "c": _parse_complex, "c1": _parse_complex, "z0": _parse_complex,
    "z": _parse_complex,
    "n": _parse_int, "res": _parse_int, "threads": _parse_int,
    "domain": _parse_domain, "lambdas": _parse_lambdas,
    "target": _parse_target, "out": _parse_out, "report": str, "config": str,
    "perturb": _parse_switch,
}

# the flags that take a value on the command line
_FLAG_NAMES = sorted("--" + k for k in _CONVERTERS if k != "perturb")


# the flags of each command, for its parser and for the keys its config
# file may set, each mapped to its default: _REQUIRED marks a flag the
# command cannot run without, None one with no default, which stays out
# of the merged configuration until given.  "param" is the repeatable
# --param name=value, which a config file writes as param.NAME = value
_REQUIRED = object()
_COMMAND_FLAGS = {
    "generate": {"eta": _REQUIRED, "psi": _REQUIRED, "lambda": 1.0, "z0": 0j,
                 "target": "h3", "domain": (-1.0, 1.0, -1.0, 1.0),
                 "res": 33, "tol": 1e-8, "out": None, "report": None,
                 "threads": 1, "config": None, "param": None},
    "verify": {"eta": _REQUIRED, "psi": _REQUIRED, "lambda": 1.0, "z0": 0j,
               "target": "h3", "domain": (-0.32, 0.32, -0.32, 0.32),
               "res": 65, "tol": 1e-8, "report": None, "threads": 1,
               "config": None, "perturb": False, "param": None},
    "limit": {"eta": _REQUIRED, "psi": _REQUIRED, "z0": 0j,
              "lambdas": [1e-1, 1e-2, 1e-3],
              "domain": (-1.0, 1.0, -1.0, 1.0), "tol": 1e-10,
              "report": None, "config": None, "param": None},
    "ode to-ode": {"eta": _REQUIRED, "psi": _REQUIRED, "lambda": 1.0,
                   "z0": 0j, "report": None, "config": None, "param": None},
    "ode from-ode": {"p": _REQUIRED, "q": _REQUIRED, "lambda": 1.0,
                     "c": 1 + 0j, "c1": 0j, "z0": 0j, "report": None,
                     "config": None},
    "ode erf-example": {"n": _REQUIRED, "c": 1 + 0j, "c1": 0j, "lambda": 1.0,
                        "domain": (0.68, 1.32, -0.32, 0.32), "res": 65,
                        "tol": 1e-8, "out": None, "report": None,
                        "threads": 1, "config": None, "z": 1.5 + 0j},
}


def _add_flags(p, command):
    for name in _COMMAND_FLAGS[command]:
        kwargs = {"default": argparse.SUPPRESS}
        if name == "perturb":
            p.add_argument("--perturb", action="store_const", const="true",
                           **kwargs)
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

    A config file may set only the command's own flags (_COMMAND_FLAGS);
    a missing required flag is refused once every value is converted."""
    flags = _COMMAND_FLAGS[command]
    cfg = {k: v for k, v in flags.items() if v not in (_REQUIRED, None)}
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
            cfg[key] = _CONVERTERS[key](value)
    for key, value in given.items():
        if key == "param":
            for item in value:
                if "=" not in item:
                    raise UsageError("--param needs name=value, got %r" % (item,))
                name, val = item.split("=", 1)
                params[name.strip()] = _parse_complex(val)
            continue
        cfg[key] = _CONVERTERS[key](value)
    cfg["params"] = params
    for name, default in flags.items():
        if default is _REQUIRED and name not in cfg:
            raise UsageError("missing required flag --%s" % name)
    return cfg


def _load_data(cfg):
    eta = parse(cfg["eta"])
    psi = parse(cfg["psi"])
    unbound = (free_params(eta) | free_params(psi)) - set(cfg["params"])
    if unbound:
        raise UsageError("unbound parameter %r; bind it with --param name=value"
                         % sorted(unbound)[0])
    return WeierstrassData(eta=eta, psi=psi, z0=complex(cfg["z0"]),
                           lam=cfg["lambda"], params=dict(cfg["params"]))


def _domain_rect(cfg):
    a, b, c, d = cfg["domain"]
    res = int(cfg["res"])
    if res < 2:
        raise UsageError("--res must be at least 2")
    return DomainRect(a, b, c, d, res, res)


# ---------------------------------------------------------------------------
# report assembly

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


def _report_checks(cfg, command, start, checks, stream, extra=None):
    """Print the checks, write the report; returns the exit code."""
    report = _finish_report({}, cfg, command, start, checks, extra)
    for name in sorted(checks):
        c = checks[name]
        print("%-20s %s  (max %.3e, threshold %.1e)"
              % (name, "PASS" if c["pass"] else "FAIL", c["max"],
                 c["threshold"]), file=stream)
    _write_report(report, cfg, stream)
    return 0 if all(c["pass"] for c in checks.values()) else 2


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
    # _parse_out admits only the two suffixes
    nv, nf = (write_ply if path.endswith(".ply") else write_obj)(patch, path)
    print("mesh written to %s (%d vertices, %d faces)" % (path, nv, nf),
          file=stream)


# ---------------------------------------------------------------------------
# commands

def cmd_sample(cfg, stream, start, command):
    """generate and verify: sample the patch, run the battery, report.
    Only generate writes the mesh, only verify injects the perturbation."""
    data = _load_data(cfg)
    domain = _domain_rect(cfg)
    patch = sample_surface(data, domain, cfg["target"], tol=cfg["tol"])
    checks = battery(patch,
                     perturb=command == "verify" and bool(cfg.get("perturb")))
    if command == "generate" and cfg.get("out"):
        _write_mesh(patch, cfg["out"], stream)
    return _report_checks(cfg, command, start, checks, stream)


def _limit_points(data, rect, target, tol, label):
    """The points of one sampled target of the limit study; DomainError if
    any sample is masked, so that no NaN reaches the fit."""
    patch = sample_surface(data, rect, target, tol=tol)
    if not patch.valid.all():
        masked = rect.grid()[~patch.valid]
        raise DomainError("%d of %d limit samples masked (%s) at z = %s"
                          % (masked.size, patch.valid.size, label,
                             ", ".join(repr(complex(z)) for z in masked)))
    return patch.points


def cmd_limit(cfg, stream, start):
    data0 = _load_data(dict(cfg, **{"lambda": 1.0}))
    lams = cfg["lambdas"]
    a, b, c, d = cfg["domain"]
    tol = cfg["tol"]
    # 5 x 2 samples, inset 10% from the domain edges
    rect = DomainRect(a + 0.1 * (b - a), b - 0.1 * (b - a),
                      c + 0.1 * (d - c), d - 0.1 * (d - c), 5, 2)
    f = _limit_points(data0, rect, "e3-direct", tol, "e3-direct")
    targets = np.stack([np.zeros(f.shape[:2]), -2.0 * f[..., 0],
                        -2.0 * f[..., 1], 2.0 * f[..., 2]], axis=-1)

    table = []
    errs = []
    for lam in lams:
        data = WeierstrassData(eta=data0.eta, psi=data0.psi, z0=data0.z0,
                               lam=lam, params=data0.params)
        x = _limit_points(data, rect, "e3-limit", tol,
                          "e3-limit, lambda %g" % lam)
        worst = float(np.max(np.abs(x - targets)))
        table.append([lam, worst])
        errs.append(worst)

    order = float(np.polyfit(np.log(lams), np.log(errs), 1)[0])
    print("fitted order %.3f over %d lambda values" % (order, len(lams)),
          file=stream)
    return _report_checks(cfg, "limit", start, limit_checks(order, errs[-1]),
                          stream, {"limit_table": table,
                                   "fitted_order": order})


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
    spec = OdeSpec(p=parse(cfg["p"]), q=parse(cfg["q"]), lam=cfg["lambda"])
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
    n = int(cfg["n"])
    patch = erf_example_surface(n, c=cfg["c"], c1=cfg["c1"], lam=cfg["lambda"],
                                domain=_domain_rect(cfg), tol=cfg["tol"])
    checks = dict(battery(patch), ode_constancy=ode_constancy(patch, n))

    # advisory: closed-form comparison, excluded from the exit code
    kc = kummer_crosscheck(n, c=cfg["c"], c1=cfg["c1"], lam=cfg["lambda"],
                           z=cfg["z"])
    print("kummer crosscheck: %s (max deviation %.3e, advisory)"
          % ("PASS" if kc["pass"] else "FAIL", kc["max_deviation"]),
          file=stream)
    if cfg.get("out"):
        _write_mesh(patch, cfg["out"], stream)
    return _report_checks(cfg, "ode erf-example", start, checks, stream,
                          {"kummer_crosscheck": kc})


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
    except LambdaZero as exc:
        print("error: --lambda: %s" % exc, file=sys.stderr)
        return 1
    except Exception as exc:
        print("error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 1


def main_entry():
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
