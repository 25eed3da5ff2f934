"""The four benchmark workloads: inputs drawn from a seed, the timed
operation, and the correctness gates applied to its outputs.

Each workload reaches solsurf only through public entry points
(`solsurf.cli.main`, `odebridge.erf_example_surface`, `cli.write_ply`).
The seed draws a small jitter of the data coefficients (about 2%, so the
integrator's work barely moves between seeds) and the probe samples of
the reference gate; the program sees only the generated inputs.

Why these four:

  h3-generate        README example at 128^2: full-system Dormand-Prince
                     hops with cheap polynomial closures, the Lorentz frame
                     sweep and the OBJ writer all carry time.
  e3direct-generate  same data, `--target e3-direct`: sampling runs in
                     `_quad.adaptive_gl` and never calls `lsp.propagate`,
                     so it should not move when only the ODE core changes.
  erf-patch          library quickstart: the reduced system with exp and
                     erf closures, so `expr` and `specfun` dominate; there
                     is no battery and no frame sweep.
  pole-verify        a pole on sample (48, 48) and on the seed path: hops
                     underflow, samples are masked and frames degenerate.
                     `conformality` and `mean_curvature` fail here today
                     (a known defect, recorded and not hidden).
"""

import hashlib
import io
import json
import os
import random
from dataclasses import dataclass, field

import numpy as np

NAMES = ("h3-generate", "e3direct-generate", "erf-patch", "pole-verify")

# relative deviation |dx| / max(1, |x|) allowed between a sampled point and
# an independent straight-path integration at tol 1e-12; the sweep runs at
# tol 1e-8 over up to 255 hops and measures at most a few 1e-9
REF_DEV_LIMIT = 1e-6
REF_TOL = 1e-12
REF_PROBES = 4

# the mesh file each workload writes (pole-verify writes none)
MESH_SUFFIX = {"h3-generate": ".obj", "e3direct-generate": ".ply",
               "erf-patch": ".ply"}

# battery checks allowed to fail: pole-verify's frame checks read stencils
# that straddle the multivalued region around the pole
KNOWN_FAILURES = {"pole-verify": ("conformality", "mean_curvature")}


def _jitter(rng, value, share=0.02):
    return value * (1.0 + rng.uniform(-share, share))


def make_inputs(name, seed, res=None):
    """The workload's inputs for this seed; res overrides the grid size
    (only the benchmark's own tests shrink it)."""
    if name not in NAMES:
        raise ValueError("unknown workload %r" % (name,))
    rng = random.Random("%s/%d" % (name, seed))
    if name in ("h3-generate", "e3direct-generate"):
        inp = {"eta": "1+%.6f*z" % _jitter(rng, 0.2), "psi": "z^2",
               "lambda": round(_jitter(rng, 0.8), 6), "z0": "0",
               "domain": [-0.6, 0.6, -0.6, 0.6], "res": res or 128,
               "target": "h3" if name == "h3-generate" else "e3-direct"}
    elif name == "erf-patch":
        inp = {"n": 2, "lambda": round(_jitter(rng, 0.7), 6),
               "domain": [0.68, 1.32, -0.32, 0.32], "res": res or 128}
    else:
        # the pole stays at 0: an odd res on [-1, 1] puts it on the centre
        # sample, and the seed path from z0 to the corner -1-1i crosses it
        inp = {"eta": "%.6f/z" % _jitter(rng, 1.0), "psi": "z",
               "lambda": round(_jitter(rng, 0.8), 6), "z0": "0.9+0.9i",
               "domain": [-1.0, 1.0, -1.0, 1.0], "res": res or 97,
               "target": "h3"}
    inp["probe_seed"] = rng.randrange(2 ** 31)
    return inp


def setup_data(name, inp):
    """Parse and compile the workload's expressions, as a fresh process
    must before the operation can run."""
    if name == "erf-patch":
        from solsurf.odebridge import erf_example_data
        data = erf_example_data(inp["n"], lam=inp["lambda"])
    else:
        from solsurf import WeierstrassData, parse
        data = WeierstrassData(eta=parse(inp["eta"]), psi=parse(inp["psi"]),
                               z0=complex(inp["z0"].replace("i", "j")),
                               lam=inp["lambda"])
    data.functions()
    return data


def _domain_text(inp):
    return "%r:%r:%r:%r" % tuple(inp["domain"])


def cli_argv(name, inp, out_path, report_path):
    argv = ["verify" if name == "pole-verify" else "generate",
            "--eta", inp["eta"], "--psi", inp["psi"],
            "--lambda", repr(inp["lambda"]), "--z0", inp["z0"],
            "--target", inp["target"], "--domain", _domain_text(inp),
            "--res", str(inp["res"]), "--threads", "1",
            "--report", report_path]
    if out_path:
        argv += ["--out", out_path]
    return argv


@dataclass
class OpResult:
    """What one operation left behind: exit code, patch, report, mesh."""
    exit_code: int
    patch: object = None
    report: dict = field(default_factory=dict)
    mesh_path: str = None


def run_op(name, inp, out_stem):
    """The timed operation.  out_stem is the path prefix of its files."""
    from solsurf import cli
    suffix = MESH_SUFFIX.get(name)
    mesh_path = out_stem + suffix if suffix else None
    if name == "erf-patch":
        from solsurf.immersion import DomainRect
        from solsurf.odebridge import erf_example_surface
        a, b, c, d = inp["domain"]
        patch = erf_example_surface(
            inp["n"], lam=inp["lambda"], threads=1,
            domain=DomainRect(a, b, c, d, inp["res"], inp["res"]))
        cli.write_ply(patch, mesh_path)
        return OpResult(0, patch, {}, mesh_path)
    # the CLI keeps its patch local; a pass-through on the module name it
    # samples through hands it to the gates, adding one call frame
    captured = []
    sample = cli.sample_surface

    def capture(*args, **kwargs):
        patch = sample(*args, **kwargs)
        captured.append(patch)
        return patch

    report_path = out_stem + ".json"
    cli.sample_surface = capture
    try:
        code = cli.main(cli_argv(name, inp, mesh_path, report_path),
                        stream=io.StringIO())
    finally:
        cli.sample_surface = sample
    report = {}
    if code != 1:
        with open(report_path) as fh:
            report = json.load(fh)
    return OpResult(code, captured[-1] if captured else None, report,
                    mesh_path)


# ---------------------------------------------------------------------------
# correctness gates, applied outside the timed interval

def _gate(values, threshold):
    """The battery's check rule: the max of the finite values must lie
    below the threshold, and at least one value must be finite."""
    vals = np.asarray(values, dtype=float).ravel()
    vals = vals[np.isfinite(vals)]
    if vals.size == 0:
        return {"max": None, "threshold": threshold, "pass": False}
    worst = float(np.max(vals))
    return {"max": worst, "threshold": threshold, "pass": worst < threshold}


def mesh_checks(patch):
    """hyperboloid and det_drift over the valid samples, with the battery's
    thresholds: the gates of the workload that runs no battery."""
    valid = patch.valid
    return {"hyperboloid": _gate(np.abs(patch.residuals["hyperboloid"][valid]),
                                 1e-6),
            "det_drift": _gate(patch.residuals["det_drift"][valid],
                               max(1e-6, 100.0 * patch.tol))}


def probe_indices(patch, probe_seed, count=REF_PROBES):
    rng = random.Random(probe_seed)
    ii, jj = np.nonzero(patch.valid)
    picks = rng.sample(range(len(ii)), min(count, len(ii)))
    return [(int(ii[k]), int(jj[k])) for k in picks]


def reference_point(name, inp, z):
    """The surface point at z from one straight path out of z0 at tol
    1e-12, through entry points the grid sweep does not use."""
    from solsurf import (PathSpec, enneper_weierstrass, integrate_full,
                         integrate_reduced, sym_immersion)
    data = setup_data(name, inp)
    path = PathSpec.line(data.z0, z)
    if name == "h3-generate":
        return sym_immersion(integrate_full(data, path, tol=REF_TOL))
    if name == "erf-patch":
        return sym_immersion(integrate_reduced(data, path, tol=REF_TOL))
    if name == "e3direct-generate":
        return enneper_weierstrass(data, path, tol=REF_TOL)
    raise ValueError("no straight-path reference for %r" % (name,))


def ref_dev(name, inp, patch, probes):
    """Largest relative deviation |dx| / max(1, |x|) over the probes.

    pole-verify has none: its loop period around the pole is about 0.31,
    so the surface is multivalued and a straight path from z0 lands on
    another branch than the grid sweep (deviation about 0.55).  Its
    battery, valid_frac and checks_failed check it instead.
    """
    if name == "pole-verify":
        return None
    grid = patch.domain.grid()
    worst = 0.0
    for i, j in probes:
        ref = reference_point(name, inp, complex(grid[i, j]))
        got = patch.points[i, j]
        scale = max(1.0, float(np.max(np.abs(ref))))
        worst = max(worst, float(np.max(np.abs(got - ref))) / scale)
    return worst


def read_mesh(path):
    """Vertex rows of an OBJ or PLY file written by solsurf, as an array
    in the patch's own component order, plus the face count."""
    verts, faces = [], 0
    with open(path) as fh:
        lines = fh.read().splitlines()
    if path.endswith(".obj"):
        x0 = None
        for line in lines:
            if line.startswith("# x0 "):
                x0 = float(line[5:])
            elif line.startswith("v "):
                xyz = [float(t) for t in line[2:].split()]
                verts.append(xyz if x0 is None else [x0] + xyz)
                x0 = None
            elif line.startswith("f "):
                faces += 1
    else:
        nv = int(next(l for l in lines if l.startswith("element vertex"))
                 .split()[-1])
        body = lines[lines.index("end_header") + 1:]
        faces = len(body) - nv
        for line in body[:nv]:
            vals = [float(t) for t in line.split()]
            verts.append(vals if len(vals) == 3 else vals[3:] + vals[:3])
    return np.asarray(verts, dtype=float), faces


def _mesh_gate(patch, mesh_path):
    verts, faces = read_mesh(mesh_path)
    v = patch.valid
    quads = v[:-1, :-1] & v[:-1, 1:] & v[1:, :-1] & v[1:, 1:]
    if verts.shape != patch.points[v].shape:
        return "mesh holds %d vertices, patch %d valid" % (len(verts), v.sum())
    if not np.array_equal(verts, patch.points[v]):
        return "mesh vertices differ from the sampled points"
    if faces != 2 * int(quads.sum()):
        return "mesh holds %d faces, expected %d" % (faces, 2 * quads.sum())
    return None


def digest(result):
    """Hash of everything the operation produced except wall_ms."""
    h = hashlib.sha256()
    h.update(result.patch.points.tobytes())
    h.update(result.patch.valid.tobytes())
    report = {k: v for k, v in result.report.items() if k != "wall_ms"}
    h.update(json.dumps(report, sort_keys=True).encode())
    if result.mesh_path:
        with open(result.mesh_path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def evaluate(name, inp, result):
    """Apply the correctness gates to one operation's outputs.

    Returns the figures the benchmark reports and `gate_failures`, the
    list of reasons the run counts as failed (empty when it passed).
    """
    patch = result.patch
    if result.exit_code == 1 or patch is None:
        return {"gate_failures": ["operation failed (exit %d)"
                                  % result.exit_code]}
    if name == "erf-patch":
        result.report = {"checks": mesh_checks(patch)}
    checks = result.report["checks"]
    allowed = KNOWN_FAILURES.get(name, ())
    failures = ["check %s failed" % k for k, c in sorted(checks.items())
                if not c["pass"] and k not in allowed]
    if not np.all(np.isfinite(patch.points[patch.valid])):
        failures.append("non-finite point at a valid sample")
    if result.mesh_path:
        bad = _mesh_gate(patch, result.mesh_path)
        if bad:
            failures.append(bad)
    dev = ref_dev(name, inp, patch, probe_indices(patch, inp["probe_seed"]))
    if dev is not None and not dev <= REF_DEV_LIMIT:
        failures.append("ref_dev %.3e above %.1e" % (dev, REF_DEV_LIMIT))
    return {"gate_failures": failures,
            "valid": int(patch.valid.sum()),
            "grid": int(patch.valid.size),
            "checks_total": len(checks),
            "checks_failed": sum(not c["pass"] for c in checks.values()),
            "failed_checks": sorted(k for k, c in checks.items()
                                    if not c["pass"]),
            "ref_dev": dev,
            "mesh_bytes": (os.path.getsize(result.mesh_path)
                           if result.mesh_path else 0),
            "digest": digest(result)}
