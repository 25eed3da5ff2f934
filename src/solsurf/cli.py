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

Flags are spelled in full.  --flag value and --flag=value are the same,
and a value may begin with '-' unless it is one of the command's flag
names.  -h after a command lists its flags with their defaults.

A configuration file (--config, plain key=value lines, '#' comments) may
supply any flag of its command by name, an on/off flag as true, false, 1
or 0 (as --perturb=VALUE does), a --param binding as param.NAME; a key
the command has no flag for is a usage error, and explicit flags win
over the file.  A number that is nan or infinite is a usage error too.
Domain syntax is re_min:re_max:im_min:im_max.  --threads and the
environment variable SOLSURF_THREADS are accepted for compatibility and
have no effect: sampling runs on one thread.
"""

import cmath
import json
import math
import re
import sys
import time
from functools import cache
from types import SimpleNamespace

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
    # an on/off flag's value, from a file or --perturb[=VALUE]
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

_HELP = ("-h", "--help")


def _split_argv(argv):
    """The command that argv names, and its flags as the (key, text) pairs
    a config file gives: (name, value) from --name value or --name=value,
    ("perturb", "true") from --perturb, ("param.N", "V") from --param N=V.
    A value flag takes the next token unless that token is one of the
    command's flag names.  pairs is None when -h or --help asks for help,
    and command is then "" or "ode" if argv named no command."""
    words, rest = [], list(argv)
    while " ".join(words) not in _COMMANDS:
        if rest and rest[0] in _HELP:
            return " ".join(words), None
        choices = _subcommands(words)
        if not rest or rest[0] not in choices:
            raise UsageError("%s needs one of the commands %s%s"
                             % (" ".join(["solsurf"] + words),
                                ", ".join(choices),
                                ", not %r" % rest[0] if rest else ""))
        words.append(rest.pop(0))
    command = " ".join(words)
    names = {"--" + name for name in _COMMANDS[command][1]}
    pairs = []
    while rest:
        token = rest.pop(0)
        if token in _HELP:
            return command, None
        name, eq, text = token.partition("=")
        if name not in names:
            raise UsageError("%r is not a flag of %s (-h lists them)"
                             % (token, command))
        if name == "--perturb" and not eq:
            text = "true"
        elif not eq:
            if not rest or rest[0] in names:
                raise UsageError("%s needs a value" % token)
            text = rest.pop(0)
        key = name[2:]
        if key == "param":
            param, eq, text = text.partition("=")
            if not eq:
                raise UsageError("--param needs name=value, got %r" % param)
            key = "param." + param.strip()
        pairs.append((key, text))
    return command, pairs


def _subcommands(words):
    """The words that may follow words ([] or ["ode"]) towards a command."""
    n = len(words)
    return list(dict.fromkeys(c.split()[n] for c in _COMMANDS
                              if c.split()[:n] == words))


def _help_text(prefix):
    """-h: the flags of a command with their defaults, or the commands
    below prefix ("" or "ode")."""
    if prefix not in _COMMANDS:
        return "usage: %s COMMAND [--FLAG VALUE ...]\ncommands: %s" % (
            " ".join(["solsurf", prefix]).strip(),
            ", ".join(_subcommands(prefix.split())))
    lines = ["usage: solsurf %s [--FLAG VALUE | --FLAG=VALUE ...]" % prefix]
    for name, default in _COMMANDS[prefix][1].items():
        note = ("required" if default is _REQUIRED
                else "NAME=VALUE, repeatable" if name == "param"
                else "default " + default if default else "")
        lines.append(("  --%-9s %s" % (name, note)).rstrip())
    return "\n".join(lines)


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


def _merge_config(command, pairs):
    """defaults < config file < explicit flags; returns a plain dict.

    The table's default texts, the file's lines and the flags of
    _split_argv are all (key, text) pairs.  The last text of each key is
    checked against the command's row and converted; a missing required
    flag is refused once every value is converted."""
    flags = _COMMANDS[command][1]
    given = dict(pairs)
    path = given.pop("config", None)
    texts = {k: v for k, v in flags.items() if v not in (_REQUIRED, None)}
    if path is not None:
        texts.update(_read_config_file(path))
    texts.update(given)
    cfg = {}
    params = {}
    for key, text in texts.items():
        if key.startswith("param.") and "param" in flags:
            params[key[6:]] = _parse_complex(text)
        elif key in flags and key != "param":
            cfg[key] = _CONVERTERS[key](text)
        else:
            raise UsageError("unknown config key %r for %s" % (key, command))
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


# rows per block: a block's arrays take about 1 kB per row, and at 4096
# rows they raised the peak RSS of a 128^2 write by 3.8 MB
_CHUNK_ROWS = 1024


def _split(a):
    # Veltkamp: a = hi + lo, each with at most 26 significant bits
    c = a * 134217729.0
    return c - (c - a), a - (c - (c - a))


_POW10 = np.array([float(10 ** p) for p in range(23)])     # exact doubles
_POW10_HI, _POW10_LO = _split(_POW10)


@cache
def _tables():
    """The row formatter's lookup tables, built at its first use.

    group: "%04d" % i for i < 10**4, four ASCII bytes in a uint32;
    spread: the same with a NUL after each digit, in a uint64;
    trailing: the trailing zeros of "%04d" % i;
    shown: shown[s] keeps the last s of the 20 bytes of five groups;
    mask, const: the bytes kept and the bytes set in a 40-byte '%.17g'
    cell in fixed form, five uint64 each, by row (k + 4) 17 + last.  The
    cell is the sign, the "0.000" lead of an exponent k < 0, then digit j
    at byte 6 + 2j with a slot for the point after it.  Digit j shows
    while j <= max(k, last), last the index of the last nonzero digit,
    and the point follows digit k >= 0 when last > k.
    """
    byte = np.uint8
    digits = np.empty((10,) * 4 + (4,), byte)
    for j in range(4):
        digits[..., j] = np.arange(48, 58, dtype=byte).reshape(
            (10,) + (1,) * (3 - j))
    digits = digits.reshape(10000, 4)
    trailing = np.zeros(10000, byte)
    for step in (10, 100, 1000, 10000):
        trailing[::step] += 1
    k, last = np.ogrid[-4:16, :17]
    k, last, b = k[..., None], last[..., None], np.arange(40)
    j = (b - 6) // 2
    lead = (b >= 1) & (b <= 1 - k) & (k < 0)
    point = (b >= 7) & (b % 2 == 1) & (j == k) & (last > k) | lead & (b == 2)
    digit = (b >= 6) & (b % 2 == 0) & (j <= np.maximum(k, last))
    mask, const = [t.view(np.uint64).reshape(-1, 5) for t in (
        np.where(digit, byte(255), byte(0)),
        np.where(point, byte(46), np.where(lead, byte(48), byte(0))))]
    return SimpleNamespace(
        group=digits.view(np.uint32)[:, 0], trailing=trailing,
        spread=np.stack([digits, 0 * digits], axis=2).reshape(-1, 8)
        .view(np.uint64)[:, 0],
        shown=np.where(np.arange(20) >= 20 - np.arange(21)[:, None],
                       byte(255), byte(0)).view(np.uint32),
        mask=mask, const=const)


def _digit_groups(n, count):
    """(len(n), count): the last count four-digit groups of each v >= 0 of
    the integer array n, most significant first."""
    groups = np.empty((len(n), count), n.dtype)
    for j in range(count - 1, -1, -1):
        high = n // 10000
        groups[:, j] = n - high * 10000
        n = high
    return groups


def _float_cells(x):
    """(len(x), 40) uint8: '%.17g' % v for each v of x, NUL-padded.

    For 1e-4 <= |v| < 1e16, %g prints the integer D nearest to
    |v| 10**(16 - k), ties to even, with 10**16 <= D < 10**17, in the
    fixed form of _tables.  hi + lo = |v| 10**(16 - k) exactly
    (Dekker's product); hi >= 10**16 > 2**53 is an even integer, so rint
    rounds lo's ties to even as D must, and no double is near enough
    below a power of ten to round up to it.  Other values go through %.
    """
    ax = np.abs(x)
    fast = (ax >= 1e-4) & (ax < 1e16)
    a = np.where(fast, ax, 1.0)
    ah, al = _split(a)
    k = np.floor(np.log10(a)).astype(np.intp)
    while True:                 # log10 may round across a power of ten
        bh, bl = _POW10_HI[16 - k], _POW10_LO[16 - k]
        hi = a * _POW10[16 - k]
        lo = al * bl - (((hi - ah * bh) - al * bh) - ah * bl)
        step = (((hi > 1e17) | (hi == 1e17) & (lo >= 0)).astype(np.intp)
                - ((hi < 1e16) | (hi == 1e16) & (lo < 0)))
        if not step.any():
            break
        k += step
    groups = _digit_groups(hi.astype(np.int64) + np.rint(lo).astype(np.int64),
                           5)           # the lead digit, then 4 x 4 digits
    tables = _tables()
    last = np.full(len(x), 16)
    tail = np.ones(len(x), bool)        # the digits after group j are 0
    for j in range(4, 0, -1):
        last -= tail * tables.trailing[groups[:, j]]
        tail &= groups[:, j] == 0
    row = (k + 4) * 17 + last
    words = np.take(tables.spread, groups)
    words &= np.take(tables.mask, row, axis=0)
    words |= np.take(tables.const, row, axis=0)
    cells = words.view(np.uint8)
    cells[x < 0, 0] = 45
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = [b"%.17g" % v for v in x[slow].tolist()]
        cells[slow] = np.array(text, "S40").view(np.uint8).reshape(-1, 40)
    return cells


def _int_cells(n):
    """(len(n), 4 m) uint8: '%d' % v for each v >= 0 of the integer array
    n, NUL-padded; m groups of four digits hold max(n)."""
    count = -(-len(str(int(n.max(initial=0)))) // 4)
    shown = np.ones(len(n), np.intp)    # the digits of v
    for p in range(1, 4 * count):
        shown += n >= 10 ** p
    tables = _tables()
    return (np.take(tables.group, _digit_groups(n, count))
            & np.take(tables.shown[:, -count:], shown, axis=0)).view(np.uint8)


def _format_rows(template, arr):
    """Yield the bytes of template % tuple(row) for the rows of the 2-D
    array arr, _CHUNK_ROWS rows at a time, equal to what % gives.

    template holds literal text and a %.17g per column of arr, or a %d per
    column.  A chunk is one uint8 array of the literals and each value's
    NUL-padded cell, a row per array row, whose bytes are yielded without
    the NULs.
    """
    parts = re.split(r"(%\.17g|%d)", template)
    cells = {"%.17g": _float_cells, "%d": _int_cells}[parts[1]]
    assert set(parts[1::2]) == {parts[1]}, template
    literals = [np.frombuffer(p.encode(), np.uint8) for p in parts[::2]]
    for start in range(0, len(arr), _CHUNK_ROWS):
        block = arr[start:start + _CHUNK_ROWS]
        values = cells(block.ravel()).reshape(block.shape + (-1,))
        pieces = [None] * len(parts)
        pieces[::2] = [np.broadcast_to(p, (len(block), p.size))
                       for p in literals]
        pieces[1::2] = values.swapaxes(0, 1)
        yield np.concatenate(pieces, axis=1).tobytes().translate(None, b"\0")


def write_obj(patch, path):
    """ASCII OBJ, row-major vertices, quads split into two triangles.

    For Lorentz targets the written coordinates are (X1, X2, X3); the X0
    component precedes each vertex as a comment line.  Each coordinate is
    written as '%.17g' gives it, which holds the sampled double exactly,
    each index as '%d'; lines end in '\\n' on every platform.
    """
    index, count = _vertex_index_map(patch.valid)
    tris = _quad_triangles(patch.valid, index + 1)      # OBJ counts from 1
    ny, nx = patch.valid.shape
    vertex = "v %.17g %.17g %.17g\n"
    if patch.points.shape[-1] == 4:
        # Lorentz points are (X0, X1, X2, X3)
        vertex = "# x0 %.17g\n" + vertex
    with open(path, "wb") as fh:
        fh.write(b"# surface mesh, target %s, %d x %d grid\n"
                 % (patch.target.encode(), ny, nx))
        fh.writelines(_format_rows(vertex, patch.points[patch.valid]))
        fh.writelines(_format_rows("f %d %d %d\n", tris))
    return count, len(tris)


def write_ply(patch, path):
    """ASCII PLY mirroring the OBJ layout, with x0 as an extra property.
    The vertex properties are declared double: each is written as '%.17g'
    gives it, 17 significant digits, which a float (32-bit) reader would
    round.  Lines end in '\\n' on every platform."""
    index, count = _vertex_index_map(patch.valid)
    tris = _quad_triangles(patch.valid, index)
    verts = patch.points[patch.valid]
    lorentz = verts.shape[-1] == 4
    if lorentz:
        verts = verts[:, [1, 2, 3, 0]]      # x y z x0
    vertex = " ".join(["%.17g"] * verts.shape[-1]) + "\n"
    with open(path, "wb") as fh:
        fh.write(b"ply\nformat ascii 1.0\n")
        fh.write(b"comment surface mesh, target %s\n" % patch.target.encode())
        fh.write(b"element vertex %d\n" % count)
        fh.write(b"property double x\nproperty double y\nproperty double z\n")
        if lorentz:
            fh.write(b"property double x0\n")
        fh.write(b"element face %d\n" % len(tris))
        fh.write(b"property list uchar int vertex_indices\nend_header\n")
        fh.writelines(_format_rows(vertex, verts))
        fh.writelines(_format_rows("3 %d %d %d\n", tris))
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


def cmd_limit(cfg, stream, start, command):
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
    return _report_checks(cfg, command, start, limit_checks(order, errs[-1]),
                          stream, {"limit_table": table,
                                   "fitted_order": order})


def cmd_ode_to(cfg, stream, start, command):
    data = _load_data(cfg)
    spec = ode_coefficients(data)
    pot = standard_potential(data)
    print("p = %s" % spec.p, file=stream)
    print("q = %s" % spec.q, file=stream)
    print("Q = %s" % pot, file=stream)
    if cfg.get("report"):
        report = _finish_report(
            {"p": str(spec.p), "q": str(spec.q), "potential": str(pot)},
            cfg, command, start, {})
        _write_report(report, cfg, stream)
    return 0


def cmd_ode_from(cfg, stream, start, command):
    spec = OdeSpec(p=parse(cfg["p"]), q=parse(cfg["q"]), lam=cfg["lambda"])
    data = weierstrass_from_ode(spec, c=cfg["c"], c1=cfg["c1"], z0=cfg["z0"])
    print("eta = %s" % data.eta, file=stream)
    print("psi = %s" % data.psi, file=stream)
    print("z0 = %s, lambda = %s" % (data.z0, data.lam), file=stream)
    if cfg.get("report"):
        report = _finish_report(
            {"eta": str(data.eta), "psi": str(data.psi)},
            cfg, command, start, {})
        _write_report(report, cfg, stream)
    return 0


def cmd_ode_erf(cfg, stream, start, command):
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
    return _report_checks(cfg, command, start, checks, stream,
                          {"kummer_crosscheck": kc})


# ---------------------------------------------------------------------------
# the command table: each command's handler, and its flags mapped to their
# default texts, converted as a config file's are.  _REQUIRED marks a flag
# the command cannot run without, None one with no default, which stays
# out of the merged configuration until given.  "param" is the repeatable
# --param name=value, which a config file writes as param.NAME = value

_REQUIRED = object()
_COMMANDS = {
    "generate": (cmd_sample, {
        "eta": _REQUIRED, "psi": _REQUIRED, "lambda": "1.0", "z0": "0",
        "target": "h3", "domain": "-1:1:-1:1", "res": "33", "tol": "1e-8",
        "out": None, "report": None, "threads": "1", "config": None,
        "param": None}),
    "verify": (cmd_sample, {
        "eta": _REQUIRED, "psi": _REQUIRED, "lambda": "1.0", "z0": "0",
        "target": "h3", "domain": "-0.32:0.32:-0.32:0.32", "res": "65",
        "tol": "1e-8", "report": None, "threads": "1", "config": None,
        "perturb": "false", "param": None}),
    "limit": (cmd_limit, {
        "eta": _REQUIRED, "psi": _REQUIRED, "z0": "0", "tol": "1e-10",
        "lambdas": "1e-1,1e-2,1e-3", "domain": "-1:1:-1:1", "report": None,
        "config": None, "param": None}),
    "ode to-ode": (cmd_ode_to, {
        "eta": _REQUIRED, "psi": _REQUIRED, "lambda": "1.0", "z0": "0",
        "report": None, "config": None, "param": None}),
    "ode from-ode": (cmd_ode_from, {
        "p": _REQUIRED, "q": _REQUIRED, "lambda": "1.0", "c": "1", "c1": "0",
        "z0": "0", "report": None, "config": None}),
    "ode erf-example": (cmd_ode_erf, {
        "n": _REQUIRED, "c": "1", "c1": "0", "lambda": "1.0", "z": "1.5",
        "domain": "0.68:1.32:-0.32:0.32", "res": "65", "tol": "1e-8",
        "out": None, "report": None, "threads": "1", "config": None}),
}


def main(argv=None, stream=None):
    """Entry point; returns the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    stream = stream or sys.stdout
    start = time.perf_counter()
    try:
        command, pairs = _split_argv(argv)
        if pairs is None:
            print(_help_text(command), file=stream)
            return 0
        cfg = _merge_config(command, pairs)
        return _COMMANDS[command][0](cfg, stream, start, command)
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
