"""Layer tracing from outside the program.

A Tracer replaces, for the length of one operation, the module-level
names through which one solsurf layer calls the next (for example
`solsurf.immersion.propagate`, the name the sampler hops through) with
wrappers that record a span per call: name, start, end, parent span,
closure calls made inside it, and whether an exception passed through.
The closures that `WeierstrassData.functions()` returns are wrapped to
count calls only, since they run millions of times.  Spans stay in memory
until the run ends; `remove()` puts every original name back.
"""

import json
import time
from collections import defaultdict

# (module under solsurf, attribute, span name).  Each entry is the name a
# caller looks up at call time, so rebinding it reroutes every call.
WRAP_POINTS = (
    ("immersion", "propagate", "lsp.propagate"),
    ("immersion", "adaptive_gl", "quad.adaptive_gl"),
    ("cli", "sample_surface", "immersion.sample_surface"),
    ("odebridge", "sample_surface", "immersion.sample_surface"),
    ("cli", "frame_and_curvature", "immersion.frame"),
    ("cli", "gmc_residual", "geom.gmc_residual"),
    ("cli", "zero_curvature_residual", "geom.zero_curvature"),
    ("cli", "gauge_equivalence_residual", "lsp.gauge_residual"),
    ("cli", "loop_period", "immersion.loop_period"),
    ("cli", "write_obj", "cli.write"),
    ("cli", "write_ply", "cli.write"),
)


class Tracer:
    def __init__(self):
        # one record per span: [name, start, end, parent, closure_calls,
        # raised]; parent is the index of the enclosing span or -1
        self.spans = []
        self.closure_calls = 0
        self._stack = []
        self._saved = []

    def wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            idx = len(tracer.spans)
            record = [name, 0.0, 0.0,
                      tracer._stack[-1] if tracer._stack else -1, 0, False]
            tracer.spans.append(record)
            tracer._stack.append(idx)
            calls0 = tracer.closure_calls
            record[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                record[5] = True
                raise
            finally:
                record[2] = time.perf_counter()
                record[4] = tracer.closure_calls - calls0
                tracer._stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _counted(self, fn):
        tracer = self

        def counted(z):
            tracer.closure_calls += 1
            return fn(z)

        return counted

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, solsurf):
        """Wrap every point in WRAP_POINTS and the data closures."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, attr, name in WRAP_POINTS:
            owner = getattr(solsurf, module)
            self._set(owner, attr, self.wrap(name, getattr(owner, attr)))
        data_cls = solsurf.geom.WeierstrassData
        functions = data_cls.functions
        wrapped = {}

        def counted_functions(data):
            fns = functions(data)
            # keyed by the cached tuple, which the data object keeps alive
            if id(fns) not in wrapped:
                wrapped[id(fns)] = (fns, tuple(self._counted(f) for f in fns))
            return wrapped[id(fns)][1]

        self._set(data_cls, "functions", counted_functions)

    def remove(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def summary(self):
        """Per span name: calls, total and self seconds, raised count and
        closure calls inside.  Self time is a span's duration minus the
        durations of its direct children."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                   "raised": 0, "closure_calls": 0})
        for k, (name, t0, t1, _, calls, raised) in enumerate(self.spans):
            s = out[name]
            s["calls"] += 1
            s["total_s"] += t1 - t0
            s["self_s"] += t1 - t0 - child[k]
            s["raised"] += int(raised)
            s["closure_calls"] += calls
        return dict(out)

    def write(self, path):
        """Write the spans as JSON, times relative to the first span."""
        base = self.spans[0][1] if self.spans else 0.0
        names = sorted({s[0] for s in self.spans})
        index = {n: k for k, n in enumerate(names)}
        rows = [[index[n], round(t0 - base, 9), round(t1 - base, 9), parent,
                 calls, int(raised)]
                for n, t0, t1, parent, calls, raised in self.spans]
        with open(path, "w") as fh:
            json.dump({"names": names,
                       "columns": ["name", "start_s", "end_s", "parent",
                                   "closure_calls", "raised"],
                       "spans": rows}, fh, separators=(",", ":"))
