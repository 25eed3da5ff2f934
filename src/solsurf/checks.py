"""The check battery: the named checks that certify a sampled patch.

battery(patch) certifies a patch by the structure equations of its 2x2
linear problem (gmc, zero_curvature, the gauge checks along three paths,
loop_period) and by the immersion's own geometry (the frame checks
conformality and mean_curvature; the sampler's hyperboloid, det_drift and
x0_limit records).  Each check is {max, mean, threshold, pass}, pass <=>
at least as many values as the check needs, all finite and max <
threshold; CHECKS gives each check's threshold and need.  All but the
records and the limit checks carry evaluated, the number of samples
(points, paths) read, and skipped, the count of each skip reason:
masked, conformal, rank, timelike or collinear for the frame checks
(samples outside the swept ring are not counted), else the class name
of the error raised.
gmc and zero_curvature read the min(res, 10)^2 points of a grid over the
domain, in one array pass each; at a point the pass cannot evaluate,
the scalar call names the error.  A check with worst carries {index:
[i, j], z: [re, im]}, where its max sits (i the row) in its point grid
or the sample grid; null when nothing was evaluated.  ode_constancy and
limit_checks check the error-function example and the flat-limit study.
"""

from dataclasses import replace

import numpy as np

from .geom import (EVAL_ERRORS, DomainError, StencilOutOfDomain,
                   SurfaceFields, fields_from_weierstrass, gmc_residual,
                   zero_curvature_residual)
from .immersion import FRAME_OK, FRAME_REASON_NAMES, frame_sweep, loop_period
from .lsp import (BranchAmbiguity, PathSpec, QuadratureFailure,
                  StepUnderflow, gauge_equivalence_residual)

__all__ = ["CHECKS", "battery", "ode_constancy", "limit_checks"]

# each check's threshold (a number, or a formula in the patch's tol and
# lambda), the values it needs ("half": of its points), and worst or not
CHECKS = {
    "gmc": (1e-4, "half", True),
    "zero_curvature": (1e-4, "half", True),
    "gauge_equivalence": (1e-4, 2, False),
    "gauge_unitarity": (1e-12, 2, False),
    "gauge_invariants": (1e-8, 2, False),
    "conformality": (1e-5, 1, True),
    "mean_curvature": (5e-3, 1, True),
    "hyperboloid": (1e-6, 1, True),
    "det_drift": (lambda tol, lam: max(1e-6, 100.0 * tol), 1, True),
    "x0_limit": (lambda tol, lam: 10.0 * abs(lam) + 1e-8, 1, True),
    "loop_period": (1e-6, 1, False),
    "ode_constancy": (1e-10, "half", True),
    "limit_order_shortfall": (0.0, 1, False),
    "limit_abs_error": (1e-2, 1, False),
}


def _check(values, threshold, need=1, **coverage):
    """{max, mean, threshold, pass} and the coverage fields given (evaluated,
    skipped): pass when there are at least need values, every value is
    finite and the max lies below the threshold."""
    arr = np.ravel(np.asarray(values, dtype=float))
    if arr.size == 0:
        return {"max": float("nan"), "mean": float("nan"),
                "threshold": float(threshold), "pass": False, **coverage}
    mx = float(np.max(arr))
    return {"max": mx, "mean": float(np.mean(arr)),
            "threshold": float(threshold),
            "pass": bool(arr.size >= need and np.isfinite(arr).all()
                         and mx < threshold), **coverage}


def _grid_check(values, mask, z, threshold, need=1, **coverage):
    """_check of a grid's values at the samples of mask, with worst: the
    grid index [i, j] and z [re, im] of the max (None without values)."""
    check = _check(values[mask], threshold, need, **coverage)
    at = np.argwhere(mask)
    check["worst"] = None
    if len(at):
        i, j = at[np.argmax(values[mask])]
        check["worst"] = {"index": [int(i), int(j)],
                          "z": [float(z[i, j].real), float(z[i, j].imag)]}
    return check


def _judge(name, values, at=None, patch=None, **coverage):
    """The check name of values under its row of CHECKS; at is the (mask,
    z) pair of a check with worst, patch the tol and lambda of a formula."""
    threshold, need, worst = CHECKS[name]
    if callable(threshold):
        threshold = threshold(patch.tol, patch.data.lam)
    if need == "half":
        need = (at[0].size + 1) // 2
    if worst:
        return _grid_check(values, *at, threshold, need, **coverage)
    return _check(values, threshold, need, **coverage)


def _evaluate(fn, args, errors):
    """[fn(a) for a in args] without the calls that raise one of errors,
    and {evaluated, skipped}, skipped counting them by class name."""
    values, skipped = [], {}
    for a in args:
        try:
            values.append(fn(a))
        except errors as exc:
            name = type(exc).__name__
            skipped[name] = skipped.get(name, 0) + 1
    return values, {"evaluated": len(values), "skipped": skipped}


def _point_grid(domain, per_axis):
    """The per_axis x per_axis grid of points over the domain."""
    return replace(domain, nx=per_axis, ny=per_axis).grid()


def _pointwise(name, grid, values, at_point):
    """The check name over a grid: values (flat, from one array pass) where
    not NaN, else at_point(z), or the error the point is skipped under."""
    values = values.reshape(grid.shape)
    ok = ~np.isnan(values)
    found, coverage = _evaluate(
        lambda ij: (ij, at_point(complex(grid[ij]))),
        [tuple(ij) for ij in np.argwhere(~ok)],
        (StencilOutOfDomain, DomainError) + EVAL_ERRORS)
    for ij, value in found:
        values[ij], ok[ij] = value, True
    coverage["evaluated"] = int(np.count_nonzero(ok))
    return _judge(name, values, (ok, grid), **coverage)


def battery(patch, perturb=False):
    """The named checks of a sampled patch.  perturb adds 0.1 conj(z) to
    the Hopf differential Q of the fields that gmc and zero_curvature
    read, a defect that they must catch."""
    data, domain, target = patch.data, patch.domain, patch.target
    lam = data.lam
    checks = {}

    fields = fields_from_weierstrass(data)
    if perturb:
        bq = fields.Q
        fields = SurfaceFields(
            u=fields.u, Q=lambda z: bq(z) + 0.1 * z.conjugate(), H=lam,
            lam=lam, u_z=fields.u_z)

    # gmc and zero_curvature over a grid of up to 10 x 10 points, in one
    # array call each
    grid = _point_grid(domain, min(domain.nx, 10))
    r1, r2 = gmc_residual(fields, grid.ravel())
    checks["gmc"] = _pointwise(
        "gmc", grid, np.maximum(np.abs(r1), np.abs(r2)),
        lambda z: max(map(abs, gmc_residual(fields, z))))
    checks["zero_curvature"] = _pointwise(
        "zero_curvature", grid,
        np.max(np.abs(zero_curvature_residual(fields, grid.ravel())),
               axis=(1, 2)),
        lambda z: float(np.max(np.abs(zero_curvature_residual(fields, z)))))

    # gauge equivalence along three fixed paths into the domain
    def inside(s, t):
        return complex(domain.re_min + s * (domain.re_max - domain.re_min),
                       domain.im_min + t * (domain.im_max - domain.im_min))
    mids = [inside(0.75, 0.5), inside(0.5, 0.75), inside(0.3, 0.3)]
    gauge, coverage = _evaluate(
        lambda w: gauge_equivalence_residual(data, PathSpec.line(data.z0, w),
                                             tol=min(patch.tol, 1e-10)),
        mids, (BranchAmbiguity, StepUnderflow, DomainError,
               np.linalg.LinAlgError) + EVAL_ERRORS)
    checks["gauge_equivalence"] = _judge(
        "gauge_equivalence",
        [max(r["dz_residual"], r["dzbar_residual"]) for r in gauge],
        **coverage)
    checks["gauge_unitarity"] = _judge(
        "gauge_unitarity", [r["m_unitarity"] for r in gauge], **coverage)
    checks["gauge_invariants"] = _judge(
        "gauge_invariants", [r["trdet_drift"] for r in gauge], **coverage)

    # frame sweep: conformality and mean curvature at interior samples,
    # two rings in when the grid affords the wide fourth-order stencils;
    # the frame's N makes H_est >= 0, so H = |lambda| off e3-direct
    expected_h = 0.0 if target == "e3-direct" else abs(lam)
    ny, nx = patch.valid.shape
    sweep = frame_sweep(patch, 2 if (ny >= 5 and nx >= 5) else 1)
    ok = sweep.reason == FRAME_OK
    # how many samples the two checks read, and why the others were
    # skipped (the samples outside the ring are not counted)
    skipped = {name: np.count_nonzero(sweep.reason == code)
               for code, (name, _) in FRAME_REASON_NAMES.items()}
    coverage = {"evaluated": int(np.count_nonzero(ok)),
                "skipped": {k: int(n) for k, n in skipped.items() if n}}
    z = domain.grid()
    checks["conformality"] = _judge("conformality", sweep.conformality,
                                    (ok, z), **coverage)
    checks["mean_curvature"] = _judge("mean_curvature",
                                      np.abs(sweep.H_est - expected_h),
                                      (ok, z), **coverage)

    res, at = patch.residuals, (patch.valid, z)
    if "hyperboloid" in res:
        checks["hyperboloid"] = _judge("hyperboloid",
                                       np.abs(res["hyperboloid"]), at)
    if "det_drift" in res:
        checks["det_drift"] = _judge("det_drift", res["det_drift"], at, patch)
    if "x0_abs" in res:
        checks["x0_limit"] = _judge("x0_limit", res["x0_abs"], at, patch)

    # loop period around the domain boundary (single-valuedness)
    corners = [complex(domain.re_min, domain.im_min),
               complex(domain.re_max, domain.im_min),
               complex(domain.re_max, domain.im_max),
               complex(domain.re_min, domain.im_max)]
    per, coverage = _evaluate(
        lambda path: float(np.max(np.abs(loop_period(data, path,
                                                     tol=1e-10).real))),
        [PathSpec(corners + corners[:1])], (QuadratureFailure,))
    checks["loop_period"] = _judge("loop_period", per, **coverage)
    return checks


def ode_constancy(patch, n):
    """The error-function example's defining cancellation: lambda eta^2
    psi' is the constant 2n, checked by the scalar closures at the
    min(res, 12)^2 points of a grid over the patch's domain."""
    grid = _point_grid(patch.domain, min(patch.domain.nx, 12))
    eta_f, _, _, dpsi_f = patch.data.functions()
    return _pointwise(
        "ode_constancy", grid, np.full(grid.size, np.nan),
        lambda z: abs(patch.data.lam * eta_f(z) ** 2 * dpsi_f(z) - 2.0 * n))


def limit_checks(order, error):
    """The flat-limit study's checks: its fitted convergence order falls
    short of 0.9 by no more than 0, and error, its largest deviation at
    the smallest lambda."""
    return {"limit_order_shortfall": _judge("limit_order_shortfall",
                                            [0.9 - order]),
            "limit_abs_error": _judge("limit_abs_error", [error])}
