"""One benchmark process: set up, optionally run one operation, gate it.

    python3 solbench/worker.py '<job json>'

The job names the workload, its generated inputs and a mode:

    setup   import solsurf and compile the workload's expressions only
    op      also run the operation once, untraced, and gate its outputs
    traced  the same with the layer wrappers installed around the
            operation, then the unit-cost loops with the wrappers removed

The last line of standard output is one JSON object with the figures,
all times raw, and kernel_s, the calibration kernel's time in this
process (see calibrate.py).  Every process starts fresh, so setup_s is
what a user's process pays.
"""

import json
import os
import resource
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")

# the sampling system each workload's hops integrate, for the hop loop
HOP_SYSTEM = {"h3-generate": "full", "pole-verify": "full",
              "erf-patch": "reduced", "e3direct-generate": "reduced"}


def _import_solsurf():
    sys.path.insert(0, SRC_DIR)
    import solsurf
    where = os.path.dirname(os.path.abspath(solsurf.__file__))
    if where != os.path.join(SRC_DIR, "solsurf"):
        raise ImportError("solsurf imported from %s, not from %s"
                          % (where, SRC_DIR))
    return solsurf


def run_job(job):
    t0 = time.perf_counter()
    solsurf = _import_solsurf()
    setup_s = time.perf_counter() - t0
    import workloads  # the benchmark's own imports stay off the clock
    from calibrate import kernel_time
    name, inp = job["workload"], job["inputs"]
    t0 = time.perf_counter()
    data = workloads.setup_data(name, inp)
    out = {"setup_s": setup_s + time.perf_counter() - t0,
           "kernel_s": kernel_time()}
    if job["mode"] == "setup":
        return out

    tracer = None
    op = workloads.run_op
    if job["mode"] == "traced":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(solsurf)
        op = tracer.wrap("op", op)
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        result = op(name, inp, job["out_stem"])
    finally:
        if tracer is not None:
            tracer.remove()
    out["wall_s"] = time.perf_counter() - t0
    out["cpu_s"] = time.process_time() - c0
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # the host's speed over the operation: the kernel before and after it
    out["kernel_s"] = 0.5 * (out["kernel_s"] + kernel_time())
    out["exit_code"] = result.exit_code
    out.update(workloads.evaluate(name, inp, result))
    if tracer is not None:
        from unitcost import unit_costs
        out["layers"] = tracer.summary()
        out["closure_calls"] = tracer.closure_calls
        out["wrapped_left"] = wrapped_names(solsurf)
        tracer.write(job["spans_path"])
        if result.patch is not None:
            out["unit"] = unit_costs(solsurf, data, result.patch,
                                     HOP_SYSTEM[name])
    return out


def wrapped_names(solsurf):
    """Names under solsurf that still hold a wrapper (should be none)."""
    from tracer import WRAP_POINTS
    left = ["%s.%s" % (m, a) for m, a, _ in WRAP_POINTS
            if hasattr(getattr(getattr(solsurf, m), a), "__wrapped__")]
    if getattr(solsurf.geom.WeierstrassData.functions, "__name__", "") \
            != "functions":
        left.append("geom.WeierstrassData.functions")
    return left


def main(argv):
    job = json.loads(argv[1])
    print(json.dumps(run_job(job)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
