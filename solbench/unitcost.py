"""Unit-cost loops: one closure call, one erf evaluation, one coefficient
evaluation and one hop across a grid cell, timed on the workload's own
data at its own grid points.  They run with tracing off."""

import statistics
import time

# about this many grid points per loop, and repetitions per loop; the
# median repetition is reported
POINTS = 256
HOP_POINTS = 64
REPS = 15


def _grid_points(patch):
    grid = patch.domain.grid()
    step = max(1, int((grid.size / POINTS) ** 0.5))
    return [complex(z) for z in grid[::step, ::step].ravel()]


def _median_per_call(body, calls, reps=REPS):
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        body()
        times.append((time.perf_counter() - t0) / calls)
    return statistics.median(times)


def unit_costs(solsurf, data, patch, system):
    """expr.closure_ns, specfun.erf_c_us, lsp.coefficient_us, lsp.hop_us.

    Points where the data, the coefficient or the hop raises (a pole) are
    left out of every loop, so each loop times only completed calls.
    system is the linear system the hop integrates ('full' or 'reduced').
    """
    from solsurf.geom import EVAL_ERRORS, DomainError
    from solsurf.lsp import StepUnderflow, propagate, reduced_coefficient
    from solsurf.specfun import erf_c
    errors = EVAL_ERRORS + (DomainError, StepUnderflow)
    eta_f, _, psi_f, _ = data.functions()
    dz = complex(patch.domain.dx)
    ident = (1 + 0j, 0j, 0j, 1 + 0j)
    hval = data.lam if system == "full" else None

    def hop(z):
        return propagate(data, z, z + dz, ident, tol=patch.tol,
                         system=system, H=hval)

    pts = []
    for z in _grid_points(patch):
        try:
            eta_f(z), psi_f(z), erf_c(z), reduced_coefficient(data, z)
        except errors:
            continue
        pts.append(z)
    hop_pts = []
    for z in pts:
        if len(hop_pts) == HOP_POINTS:
            break
        try:
            hop(z)
        except errors:
            continue
        hop_pts.append(z)

    def closures():
        for z in pts:
            eta_f(z)
            psi_f(z)

    def erfs():
        for z in pts:
            erf_c(z)

    def coefficients():
        for z in pts:
            reduced_coefficient(data, z)

    def hops():
        for z in hop_pts:
            hop(z)

    return {
        "expr.closure_ns": 1e9 * _median_per_call(closures, 2 * len(pts)),
        "specfun.erf_c_us": 1e6 * _median_per_call(erfs, len(pts)),
        "lsp.coefficient_us": 1e6 * _median_per_call(coefficients, len(pts)),
        "lsp.hop_us": 1e6 * _median_per_call(hops, len(hop_pts), reps=5),
    }
