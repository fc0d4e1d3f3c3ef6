"""Outside-in span tracing of the cbayes layers.

install() replaces, at run time, every public function of the eight
layer modules and a fixed list of class methods with a wrapper that
records one span per call: name, start, end and parent.  Nothing under
src/ is edited.  Because experiments, posterior and the package root
import functions by name, a wrapper is written into every cbayes module
namespace that holds the original function object.

Spans are aggregated as they close, so memory stays flat on the scalar
path (tens of thousands of spans per second): per span name the call
count, the inclusive time (outermost occurrences only) and the self
time, which is the span's duration minus the time its child spans
cover; per layer the inclusive time of its outermost spans.  The first
SPAN_CAP raw spans are kept for inspection.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = (
    "experiments",
    "config",
    "series_prior",
    "measures1d",
    "streams",
    "forward_models",
    "likelihood",
    "posterior",
)

# Class methods traced besides the module-level public functions.  Every
# Distribution1D subclass's own `sample` is added by install().
METHODS = {
    "forward_models": {"LinearModel": ("apply", "apply_many"), "DeconvolutionModel": ("apply", "apply_many")},
    "likelihood": {
        "GaussianAdditive": ("evaluate", "evaluate_many", "evaluate_with_data"),
        "MultiplicativeUniform": ("evaluate", "evaluate_many", "evaluate_with_data"),
        "CustomPotential": ("evaluate", "evaluate_many"),
    },
    "posterior": {"ProductPrior": ("sample",)},
}

SPAN_CAP = 5000


def _add(counts, key, value):
    counts[key] = counts.get(key, 0) + value


def _count_draws(counts, result):
    _add(counts, "series_prior.draws", int(result.size))
    _add(counts, "series_prior.bytes_computed", int(result.size) * 8)


def _count_rows(key):
    def count(counts, result):
        _add(counts, key, int(result.shape[0]))

    return count


def _count_map_iterations(counts, result):
    _add(counts, "posterior.map_estimate_l1.iterations", int(result.iterations))


def _track_ess(counts, result):
    key = "posterior.normalization.ess_min"
    counts[key] = min(counts.get(key, float("inf")), float(result.ess))


COUNTERS = {
    "series_prior.sample_coefficients": _count_draws,
    "forward_models.LinearModel.apply_many": _count_rows("forward_models.apply_many.rows"),
    "forward_models.DeconvolutionModel.apply_many": _count_rows("forward_models.apply_many.rows"),
    "likelihood.GaussianAdditive.evaluate_many": _count_rows("likelihood.evaluate_many.rows"),
    "posterior.map_estimate_l1": _count_map_iterations,
    "posterior.normalization": _track_ess,
}

# Counters that depend on sampled values rather than on the amount of work,
# so they are left out of the exact-repeat check.
VALUE_COUNTS = ("posterior.normalization.ess_min",)


def _method_label(fn, name):
    """Span name for hellinger/total_variation: quadrature calls get their
    own span, so the quadrature path is timed apart from Monte Carlo."""
    sig = inspect.signature(fn)

    def label(args, kwargs):
        method = sig.bind(*args, **kwargs).arguments.get("method", "prior_mc")
        return f"{name}[{method}]" if method == "quadrature" else name

    return label


class Tracer:
    """Span stack plus per-name and per-layer aggregates for the current
    unit of work.

    A name's record is [calls, inclusive_s, self_s, open_count]; a layer's
    is [inclusive_s, open_count].  A stack frame is [child_s, span_id].
    """

    def __init__(self):
        self._stack = []
        self._names = {}
        self._layers = {}
        self._next_id = 0
        self.counts = {}
        self.spans = []

    def _record(self, name):
        rec = self._names.get(name)
        if rec is None:
            layer = self._layers.setdefault(name.split(".", 1)[0], [0.0, 0])
            rec = self._names[name] = [0, 0.0, 0.0, 0, layer]
        return rec

    def take(self):
        """Return and reset the aggregates of the unit of work just done."""
        stats = {n: r[:3] for n, r in self._names.items() if r[0]}
        layers = {n: r[0] for n, r in self._layers.items() if r[0]}
        for r in self._names.values():
            r[0], r[1], r[2] = 0, 0.0, 0.0
        for r in self._layers.values():
            r[0] = 0.0
        unit = {"stats": stats, "layers": layers, "counts": self.counts}
        self.counts = {}
        return unit

    def wrap(self, fn, name):
        labelled = name in ("posterior.hellinger", "posterior.total_variation")
        label = _method_label(fn, name) if labelled else None
        fixed = self._record(name)
        records = {n: self._record(n) for n in (name, f"{name}[quadrature]")} if labelled else None
        count = COUNTERS.get(name)
        stack, spans, clock = self._stack, self.spans, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = label(args, kwargs) if labelled else name
            rec = records[span] if labelled else fixed
            layer = rec[4]
            rec[3] += 1
            layer[1] += 1
            tracer._next_id += 1
            span_id = tracer._next_id
            parent = stack[-1][1] if stack else 0
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                rec[0] += 1
                rec[2] += dur - frame[0]
                rec[3] -= 1
                if rec[3] == 0:
                    rec[1] += dur
                layer[1] -= 1
                if layer[1] == 0:
                    layer[0] += dur
                if stack:
                    stack[-1][0] += dur
                if len(spans) < SPAN_CAP:
                    spans.append((span_id, parent, span, start, end))
            if count is not None:
                count(tracer.counts, result)
            return result

        return traced


def _layer_modules():
    return {layer: importlib.import_module(f"cbayes.{layer}") for layer in LAYERS}


def install(tracer: Tracer) -> None:
    """Wrap the public surface of every layer, in every cbayes namespace
    that holds it."""
    mods = _layer_modules()
    originals = {}
    for layer, mod in mods.items():
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            originals[id(obj)] = (obj, tracer.wrap(obj, f"{layer}.{name}"))

        methods = {cname: tuple(meths) for cname, meths in METHODS.get(layer, {}).items()}
        if layer == "measures1d":
            for cname, cls in vars(mod).items():
                if inspect.isclass(cls) and issubclass(cls, mod.Distribution1D) and "sample" in vars(cls):
                    methods[cname] = ("sample",)
        for cname, meths in methods.items():
            cls = getattr(mod, cname)
            for meth in meths:
                fn = vars(cls)[meth]
                setattr(cls, meth, tracer.wrap(fn, f"{layer}.{cname}.{meth}"))

    namespaces = [m for n, m in list(sys.modules.items()) if n == "cbayes" or n.startswith("cbayes.")]
    for ns in namespaces:
        for key, value in list(vars(ns).items()):
            hit = originals.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(ns, key, hit[1])
