"""solsurf benchmark.

    python3 solbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Runs one workload (see workloads.py for the four and why each exists) in
a closed loop: each operation runs in a fresh single-threaded Python
process, and the next starts only when the previous one has ended.  Every
operation's outputs pass the correctness gates in workloads.evaluate.

--trace 0 prints the end-to-end metrics (tracing off): set-up time, the
operation's wall and CPU time, valid samples per second, peak RSS, the
valid fraction of the grid and the number of battery checks that pass.
--trace 1 runs untraced operations for the same time, then one traced
operation whose surface, mask and report must match them exactly, and
prints the per-layer metrics, the unit costs and the tracing overhead.

Times are in reference seconds: each worker times a fixed calibration
kernel next to what it measures, and its times are scaled by
REF_KERNEL_S / kernel time, which takes out the host's speed drift (see
calibrate.py).  The raw medians are printed as well.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the line before it records the
inputs, the environment, the sample counts, the raw timings and the
failure reasons.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import workloads
from calibrate import REF_KERNEL_S

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKER = os.path.join(BENCH_DIR, "worker.py")
TMP_DIR = ".solbench_tmp"
TRACE_DIR = ".solbench_out"
DEFAULT_SEED = 1

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "cpu_s": "s", "samples_per_s": "1/s",
    "peak_rss_mb": "MB", "valid_frac": "ratio", "checks_passed": "count",
}
# What each layer metric should move (from the traced run):
#   lsp.propagate_*, lsp.closure_calls_per_hop  wall_s of h3-generate,
#       erf-patch, pole-verify; no change on e3direct-generate
#   quad.*                 wall_s of e3direct-generate only
#   immersion.sample_*     all; the self time is the probe, emit and
#                          bookkeeping, largest on erf-patch
#   immersion.frame_*      h3-generate, e3direct-generate, pole-verify;
#                          no change on erf-patch
#   geom.*, lsp.gauge_*, immersion.loop_period_s  small shares of the
#                          three CLI workloads; no change on erf-patch
#   cli.write_s, cli.mesh_bytes  h3-generate, e3direct-generate, erf-patch;
#                          no change on pole-verify
#   expr.closure_ns, specfun.erf_c_us  erf-patch most
#   lsp.coefficient_us, lsp.hop_us  the hop-based workloads; no change on
#                          e3direct-generate
PER_LAYER = {
    "lsp.propagate_calls": "count", "lsp.propagate_s": "s",
    "lsp.propagate_us": "us", "lsp.propagate_raised": "count",
    "lsp.closure_calls_per_hop": "calls/hop",
    "quad.adaptive_gl_calls": "count", "quad.adaptive_gl_s": "s",
    "quad.closure_calls_per_call": "calls/call",
    "immersion.sample_surface_s": "s", "immersion.sample_self_s": "s",
    "immersion.frame_calls": "count", "immersion.frame_s": "s",
    "immersion.frame_raised": "count", "immersion.frame_useful_ratio": "ratio",
    "geom.gmc_residual_s": "s", "geom.zero_curvature_s": "s",
    "geom.residual_raised": "count", "lsp.gauge_residual_s": "s",
    "lsp.gauge_raised": "count", "immersion.loop_period_s": "s",
    "cli.write_s": "s", "cli.mesh_bytes": "B", "cli.self_s": "s",
    "cli.checks_failed": "count", "expr.closure_calls": "count",
    "expr.closure_ns": "ns", "specfun.erf_c_us": "us",
    "lsp.coefficient_us": "us", "lsp.hop_us": "us",
    "trace.overhead_frac": "ratio",
}

# every process must end within this many seconds of the run's start
RUN_DEADLINE_S = 170.0


class Runner:
    """Starts worker processes one at a time for one workload."""

    def __init__(self, workload, inputs, tmp):
        self.workload = workload
        self.inputs = inputs
        self.out_stem = os.path.join(tmp, "out")
        self.started = time.perf_counter()
        self.errors = []
        env = dict(os.environ)
        env.pop("SOLSURF_THREADS", None)
        env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                   MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
        self.env = env

    def job(self, mode, spans_path=None):
        """Run one worker; its result dict, or None when it failed."""
        job = {"workload": self.workload, "inputs": self.inputs,
               "mode": mode, "out_stem": self.out_stem,
               "spans_path": spans_path}
        left = RUN_DEADLINE_S - (time.perf_counter() - self.started)
        try:
            proc = subprocess.run([sys.executable, WORKER, json.dumps(job)],
                                  cwd=ROOT, env=self.env, timeout=max(left, 1.0),
                                  stdout=subprocess.PIPE, text=True)
        except subprocess.TimeoutExpired:
            self.errors.append("%s worker passed the run deadline" % mode)
            return None
        if proc.returncode != 0:
            self.errors.append("%s worker exited %d" % (mode, proc.returncode))
            return None
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def ops(self, seconds, setups=None):
        """Untraced operations, closed loop, for at least `seconds`.  With
        a setups list, a set-up-only process follows each operation and
        its result goes there, so the set-up samples spread over the same
        stretch of time."""
        results = []
        t0 = time.perf_counter()
        while not results or time.perf_counter() - t0 < seconds:
            results.append(self.job("op"))
            if setups is not None:
                probe = self.job("setup")
                if probe is not None:
                    setups.append(probe)
        return results


def failed_op(result):
    return result is None or bool(result["gate_failures"])


def timing_summary(values):
    """Median and the highest percentile with ten samples above it (when
    there are enough samples for one), with the sample count."""
    vals = sorted(values)
    out = {"median": statistics.median(vals), "n": len(vals)}
    if len(vals) >= 11:
        k = len(vals) - 11
        out["p%.1f" % (100.0 * (k + 1) / len(vals))] = vals[k]
    return out


def scale(result):
    """Factor from a worker's raw seconds to reference seconds."""
    return REF_KERNEL_S / result["kernel_s"]


def end_to_end(setups, done):
    """The metrics (medians) and, for the detail line, the timing
    summaries and the raw medians."""
    samples = {
        "setup_s": [r["setup_s"] * scale(r) for r in setups + done],
        "wall_s": [r["wall_s"] * scale(r) for r in done],
        "cpu_s": [r["cpu_s"] * scale(r) for r in done],
        "samples_per_s": [r["valid"] / (r["wall_s"] * scale(r)) for r in done],
        "peak_rss_mb": [r["peak_rss_mb"] for r in done],
        "valid_frac": [r["valid"] / r["grid"] for r in done],
        "checks_passed": [r["checks_total"] - r["checks_failed"] for r in done],
    }
    raw = {"setup_s": statistics.median(r["setup_s"] for r in setups + done),
           "wall_s": statistics.median(r["wall_s"] for r in done),
           "cpu_s": statistics.median(r["cpu_s"] for r in done),
           "kernel_s": statistics.median(r["kernel_s"] for r in setups + done)}
    return ({k: statistics.median(v) for k, v in samples.items()},
            {k: timing_summary(samples[k])
             for k in ("setup_s", "wall_s", "cpu_s", "samples_per_s")},
            raw)


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(traced, untraced_wall):
    """Layer metrics of the traced run; its times in reference units.
    untraced_wall is the median of the untraced runs, in reference s."""
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "raised": 0,
             "closure_calls": 0}
    spans = traced["layers"]

    def get(name):
        return spans.get(name, empty)

    prop, quad = get("lsp.propagate"), get("quad.adaptive_gl")
    frame, gmc, zc = (get("immersion.frame"), get("geom.gmc_residual"),
                      get("geom.zero_curvature"))
    gauge, sample = get("lsp.gauge_residual"), get("immersion.sample_surface")
    out = {
        "lsp.propagate_calls": prop["calls"],
        "lsp.propagate_s": prop["total_s"],
        "lsp.propagate_us": 1e6 * _ratio(prop["total_s"], prop["calls"]),
        "lsp.propagate_raised": prop["raised"],
        "lsp.closure_calls_per_hop": _ratio(prop["closure_calls"],
                                            prop["calls"]),
        "quad.adaptive_gl_calls": quad["calls"],
        "quad.adaptive_gl_s": quad["total_s"],
        "quad.closure_calls_per_call": _ratio(quad["closure_calls"],
                                              quad["calls"]),
        "immersion.sample_surface_s": sample["total_s"],
        "immersion.sample_self_s": sample["self_s"],
        "immersion.frame_calls": frame["calls"],
        "immersion.frame_s": frame["total_s"],
        "immersion.frame_raised": frame["raised"],
        "immersion.frame_useful_ratio": _ratio(frame["calls"] - frame["raised"],
                                               frame["calls"]),
        "geom.gmc_residual_s": gmc["total_s"],
        "geom.zero_curvature_s": zc["total_s"],
        "geom.residual_raised": gmc["raised"] + zc["raised"],
        "lsp.gauge_residual_s": gauge["total_s"],
        "lsp.gauge_raised": gauge["raised"],
        "immersion.loop_period_s": get("immersion.loop_period")["total_s"],
        "cli.write_s": get("cli.write")["total_s"],
        "cli.mesh_bytes": traced["mesh_bytes"],
        "cli.self_s": get("op")["self_s"],
        "cli.checks_failed": traced["checks_failed"],
        "expr.closure_calls": traced["closure_calls"],
        "trace.overhead_frac": (traced["wall_s"] * scale(traced)
                                / untraced_wall - 1.0),
    }
    out.update(traced["unit"])
    factor = scale(traced)
    for name in out:
        if PER_LAYER[name] in ("s", "us", "ns"):
            out[name] *= factor
    return out


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment():
    import numpy
    return {"nproc": os.cpu_count(), "cpu_model": _cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "threads": 1, "SOLSURF_THREADS": "unset in every worker",
            "clock": "CPU frequency is not pinned; timings carry the "
                     "host's speed drift"}


def run(workload, seed, seconds, trace):
    inputs = workloads.make_inputs(workload, seed)
    tmp = os.path.join(TMP_DIR, str(os.getpid()))
    os.makedirs(os.path.join(ROOT, tmp), exist_ok=True)
    detail = {"workload": workload, "seed": seed, "trace": trace,
              "inputs": inputs, "env": environment(),
              "loadavg_start": os.getloadavg()}
    runner = Runner(workload, inputs, tmp)
    try:
        runner.job("setup")  # warms the bytecode cache; not a sample
        setups = None if trace else []
        results = runner.ops(seconds, setups)
        traced = None
        if trace:
            os.makedirs(os.path.join(ROOT, TRACE_DIR), exist_ok=True)
            spans_path = os.path.join(
                TRACE_DIR, "spans_%s_seed%d.json" % (workload, seed))
            traced = runner.job("traced", spans_path)
            results.append(traced)
            detail["spans"] = spans_path
    finally:
        shutil.rmtree(os.path.join(ROOT, tmp), ignore_errors=True)

    done = [r for r in results if r is not None and "wall_s" in r]
    untraced = [r for r in done if r is not traced]
    if not untraced:
        print("error: no operation of %s completed: %s"
              % (workload, "; ".join(runner.errors)), file=sys.stderr)
        return None
    reasons = runner.errors + sorted({g for r in done
                                      for g in r["gate_failures"]})
    failed = sum(failed_op(r) for r in results)
    digests = {r["digest"] for r in done if "digest" in r}
    if len(digests) > 1:
        reasons.append("operations on the same inputs produced different "
                       "surfaces or reports")
    untraced_wall = statistics.median(r["wall_s"] * scale(r)
                                      for r in untraced)
    if trace:
        if traced is None or "layers" not in traced:
            print("error: the traced run of %s failed: %s"
                  % (workload, "; ".join(runner.errors)), file=sys.stderr)
            return None
        if traced["wrapped_left"]:
            reasons.append("wrappers left installed: %s"
                           % ", ".join(traced["wrapped_left"]))
        metrics = per_layer(traced, untraced_wall)
        units = PER_LAYER
    else:
        metrics, detail["timings"], detail["raw"] = end_to_end(setups, done)
        units = END_TO_END
    if set(metrics) != set(units):
        raise RuntimeError("metric names drifted from the unit table")
    last = done[-1]
    detail.update({
        "attempted": len(results), "failed": failed,
        "error_rate": failed / len(results),
        "checks_failed": last.get("checks_failed"),
        "failed_checks": last.get("failed_checks"),
        "valid_samples": "%d/%d" % (last.get("valid", 0), last.get("grid", 0)),
        "ref_dev_max": max((r["ref_dev"] for r in done
                            if r.get("ref_dev") is not None), default=None),
        "failure_reasons": reasons,
        "loadavg_end": os.getloadavg(),
    })
    return {"correct": not reasons and failed == 0,
            "attempted": len(results), "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()}}, detail


def main(argv=None):
    # a terminated run unwinds like an interrupted one, so subprocess.run
    # kills and reaps the worker it is waiting for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(prog="solbench/run.py")
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "solsurf", "__init__.py")):
        print("error: no solsurf sources under %s"
              % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    if out is None:
        return 1
    result, detail = out
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
