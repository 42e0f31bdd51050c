"""Per-layer tracing of ndistal, installed from outside the library.

`Tracer.install` replaces every public function of the traced layers with a
wrapper, at every module attribute in the `ndistal` package that is bound to
that function object, so imported aliases such as `proximal.orbit_min_matrix`
are traced as well.  Each call records a span (name, start, end, parent) in
memory.  `Tracer.instrument` wraps the pointwise and array methods of one
system instance; those calls are counted and timed in aggregate rather than
as spans, because the pointwise paths make millions of them.

Every wrapper returns what the wrapped callable returns and lets its
exceptions through unchanged: `arr_state` signals "no array interface" with
`NotImplementedError`, and the kernels rely on seeing it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time

import numpy as np

LAYERS = ("kernels", "proximal", "equicont", "structure", "entropy",
          "ndiameter", "cli")
POINTWISE = ("dist", "step", "step_inv", "iterate")
ARRAY = ("arr_state", "arr_step", "arr_pdist", "arr_cdist", "arr_embed",
         "arr_take", "arr_edist")
FLOOR = 2.0 ** -64  # the shift kernels' numeric floor (kernels.GCAP)

# kernel name -> number of (pair, time step) evaluations of one call,
# from its bound arguments; a window |n| <= H has 2H + 1 time steps
_PAIR_STEPS = {
    "orbit_min_matrix": lambda a: len(a["points"]) ** 2,
    "orbit_max_matrix": lambda a: len(a["points"]) ** 2,
    "orbit_min_rows": lambda a: len(a["base_idx"]) * len(a["points"]),
    "orbit_max_rows": lambda a: len(a["base_idx"]) * len(a["points"]),
    "orbit_visit_matrix": lambda a: len(a["points"]) * len(a["targets"]),
    "orbit_min_pairs": lambda a: len(a["xs"]),
    "min_orbit_distance": lambda a: 1,
    "max_orbit_distance": lambda a: 1,
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "analysis", "child_s",
                 "counts", "pair_steps", "floor_pairs")

    def __init__(self, name, start, parent, analysis, counts):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.analysis = analysis
        self.child_s = 0.0
        self.counts = counts      # system-call counters at open, then deltas
        self.pair_steps = 0
        self.floor_pairs = 0

    @property
    def seconds(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.seconds - self.child_s

    def as_dict(self, index):
        return {"id": index, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent,
                "analysis": self.analysis, "self_s": self.self_s,
                "dist_calls": self.counts[0], "step_calls": self.counts[1],
                "arr_calls": self.counts[2], "pair_steps": self.pair_steps,
                "floor_pairs": self.floor_pairs}


class Tracer:
    """Span recorder plus system-call counters for one traced pass."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.analysis = None
        self.dist_calls = 0
        self.step_calls = 0
        self.arr_calls = 0
        self.pointwise_s = 0.0
        self._in_system = False
        self._restore = []

    # -- spans ---------------------------------------------------------------
    def _counts(self):
        return (self.dist_calls, self.step_calls, self.arr_calls)

    def open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent,
                               self.analysis, self._counts()))
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def close(self, span):
        span.end = time.perf_counter()
        span.counts = tuple(b - a for a, b in zip(span.counts,
                                                  self._counts()))
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_s += span.seconds

    @contextlib.contextmanager
    def analysis_span(self, label):
        """Root span of one benchmark analysis; every span it causes carries
        the label as its `analysis` identifier."""
        self.analysis = label
        span = self.open("bench." + label)
        try:
            yield
        finally:
            self.close(span)
            self.analysis = None

    # -- function wrappers -----------------------------------------------
    def _wrap_function(self, fn, name):
        tracer = self
        layer, short = name.split(".", 1)
        sig = inspect.signature(fn)
        pair_steps = _PAIR_STEPS.get(short) if layer == "kernels" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if pair_steps is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                a = bound.arguments
                span.pair_steps = pair_steps(a) * (2 * int(a["H"]) + 1)
                parent = tracer.spans[span.parent] if span.parent is not None \
                    else None
                if short == "orbit_min_matrix" and parent is not None and \
                        parent.name == "proximal.distality_report":
                    span.floor_pairs = _floor_pairs(result)
            return result

        return traced

    def install(self):
        """Wrap every public function of the traced layers at every
        binding of that function object in any ndistal module."""
        targets = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"ndistal.{layer}")
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ == mod.__name__:
                    targets[id(obj)] = (obj, self._wrap_function(
                        obj, f"{layer}.{attr}"))
        get_system = sys.modules["ndistal.systems"].get_system
        targets[id(get_system)] = (get_system,
                                   self._instrumenting(get_system))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "ndistal" and not mod_name.startswith("ndistal."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = targets.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._restore.append((mod, attr, obj))

    def _instrumenting(self, get_system):
        """get_system that instruments the systems it builds, so the ones a
        scenario file builds inside the CLI are counted too."""
        tracer = self

        @functools.wraps(get_system)
        def build(spec):
            return tracer.instrument(get_system(spec))

        return build

    # -- system instances ------------------------------------------------
    def instrument(self, system):
        """Count and time the pointwise and array calls on one instance.

        Only the outermost system call is counted: a conjugate's `step`
        calls the base system's `step`, and counting both would count one
        user-visible step twice.
        """
        for name in POINTWISE + ARRAY:
            if name in vars(system):
                continue
            bound = getattr(system, name)
            setattr(system, name, self._wrap_method(bound, name))
            self._restore.append((system, name, None))
        return system

    def _wrap_method(self, bound, name):
        tracer = self
        kind = ("dist_calls" if name == "dist" else
                "step_calls" if name in POINTWISE else "arr_calls")
        pointwise = name in POINTWISE

        @functools.wraps(bound)
        def traced(*args, **kwargs):
            if tracer._in_system:
                return bound(*args, **kwargs)
            tracer._in_system = True
            t0 = time.perf_counter()
            try:
                return bound(*args, **kwargs)
            finally:
                if pointwise:
                    tracer.pointwise_s += time.perf_counter() - t0
                setattr(tracer, kind, getattr(tracer, kind) + 1)
                tracer._in_system = False

        return traced

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._restore = []

    # -- metrics -----------------------------------------------------------
    def metrics(self):
        """The per-layer metrics, as {name: (value, unit)}."""
        spans = self.spans

        def under(span, pred):
            p = span.parent
            while p is not None:
                if pred(spans[p]):
                    return True
                p = spans[p].parent
            return False

        def outermost(pred):
            return [s for s in spans if pred(s) and not under(s, pred)]

        def total(name):
            return sum(s.seconds for s in outermost(lambda s: s.name == name))

        def self_s(name):
            return sum(s.self_s for s in spans if s.name == name)

        def layer(prefix):
            return lambda s: s.name.startswith(prefix)

        kernels = outermost(layer("kernels."))
        kernel_s = sum(s.seconds for s in kernels)
        pair_steps = sum(s.pair_steps for s in kernels)
        paths = {"vector": 0.0, "analytic": 0.0, "pointwise": 0.0}
        for s in kernels:
            paths[_kernel_path(s)] += s.seconds
        exact = sum(1 for s in spans
                    if s.name == "ndiameter.diam_n_exact_from_matrix")
        bounds = sum(1 for s in spans
                     if s.name == "ndiameter.diam_n_bounds_from_matrix")
        probe_ids = {i for i, s in enumerate(spans)
                     if s.name == "equicont.n_equicontinuity_probe"}

        m = {}
        for k in ("orbit_min_matrix", "orbit_min_rows", "orbit_max_matrix",
                  "orbit_visit_matrix"):
            m[f"kernels.{k}.s"] = (total(f"kernels.{k}"), "s")
        m["kernels.calls"] = (len(kernels), "count")
        m["kernels.pair_steps"] = (pair_steps, "count")
        m["kernels.pair_steps_per_s"] = (
            pair_steps / kernel_s if kernel_s else 0.0, "1/s")
        m["kernels.bytes_computed"] = (8 * pair_steps, "B")
        for path, secs in paths.items():
            m[f"kernels.path.{path}.s"] = (secs, "s")
        m["systems.dist_calls"] = (self.dist_calls, "count")
        m["systems.step_calls"] = (self.step_calls, "count")
        m["systems.arr_calls"] = (self.arr_calls, "count")
        m["systems.pointwise.s"] = (self.pointwise_s, "s")
        m["proximal.distality_report.self_s"] = (
            self_s("proximal.distality_report"), "s")
        m["proximal.proximal_quotient.s"] = (
            total("proximal.proximal_quotient"), "s")
        m["proximal.floor_pairs"] = (sum(s.floor_pairs for s in spans),
                                     "count")
        m["equicont.n_equicontinuity_probe.self_s"] = (
            self_s("equicont.n_equicontinuity_probe"), "s")
        m["equicont.r_set_equivariance_check.s"] = (
            total("equicont.r_set_equivariance_check"), "s")
        m["equicont.spot_check.calls"] = (
            sum(1 for s in spans
                if s.name == "equicont.r_set_equivariance_check"
                and s.parent in probe_ids), "count")
        m["structure.theorem_3_5_audit.self_s"] = (
            self_s("structure.theorem_3_5_audit"), "s")
        for k in ("minimal_subsystems", "transitive_check",
                  "expansivity_probe"):
            m[f"structure.{k}.s"] = (total(f"structure.{k}"), "s")
        for k in ("word_count_entropy", "metric_entropy_estimate",
                  "step_index_map"):
            m[f"entropy.{k}.s"] = (total(f"entropy.{k}"), "s")
        m["ndiameter.exact.calls"] = (exact, "count")
        m["ndiameter.bounds.calls"] = (bounds, "count")
        m["ndiameter.s"] = (sum(s.seconds for s in
                                outermost(layer("ndiameter."))), "s")
        m["ndiameter.exact_ratio"] = (
            exact / (exact + bounds) if exact + bounds else 0.0, "ratio")
        m["cli.run_scenario.s"] = (total("cli.run_scenario"), "s")
        m["cli.self_s"] = (sum(s.self_s for s in spans
                               if s.name.startswith("cli.")), "s")
        return m

    def span_dicts(self):
        return [s.as_dict(i) for i, s in enumerate(self.spans)]


def _kernel_path(span):
    """Execution path of one kernel call, read off the system calls made
    inside it: pointwise steps or distances mean the pointwise sweep, array
    calls without them the vectorized sweep, and neither the shift's
    analytic kernel."""
    dist_calls, step_calls, arr_calls = span.counts
    if dist_calls or step_calls:
        return "pointwise"
    return "vector" if arr_calls else "analytic"


def _floor_pairs(result):
    """Off-diagonal entries at or below the numeric floor in the horizon-H
    snapshot that `distality_report` classifies (orbit_min_matrix returns
    the 2H matrix and {H: snapshot})."""
    _, snapshots = result
    count = 0
    for snap in snapshots.values():
        floor = snap <= FLOOR
        count += int(floor.sum() - np.trace(floor))
    return count
