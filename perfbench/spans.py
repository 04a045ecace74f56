"""Per-layer tracing from outside the program.

The tracer replaces, for the duration of a traced pass, the names that each
layer's callers look up (module attributes such as
betamix.certify.discrete_derivs_grid, and the ContinuousEvaluator methods)
with wrappers that record a span: name, layer, start, end and parent. Spans
stay in memory and are written out when the run ends. A layer's self time
is the total duration of its spans minus the time covered by their direct
children. Counts are taken at the same boundaries; the ones marked
"computed" in the README are derived from array sizes, not counted events.
"""

import functools
import inspect
import json
import os
import sys
from contextlib import contextmanager
from time import perf_counter

import betamix
import betamix.cli

# the counts each layer reports, in report order
COUNTS = {
    "special": ("calls", "points"),
    "quadrature": ("panel_calls", "rule_builds", "nodes"),
    "mixtures.discrete": ("calls", "points", "bernstein_ops"),
    "mixtures.continuous": ("evaluators", "calls", "points"),
    "mixtures.sample": ("draws",),
    "certify": ("calls", "grid_points"),
    "lemmas": ("discrete_cases", "continuous_cases"),
    "cli": ("commands", "bytes_out"),
}
LAYERS = tuple(COUNTS)


def _size(x):
    return int(getattr(x, "size", 1))


def _triangle(n):
    # values one de Casteljau evaluation of n coefficients computes per point
    return n * (n - 1) // 2


def _count_grid_fn(c, a, result):
    c["calls"] += 1
    c["points"] += _size(a["s"])


def _count_panels(c, a, result):
    c["panel_calls"] += 1
    c["nodes"] += int(result[0].size)


def _count_rule(c, a, result):
    c["rule_builds"] += 1


def _count_derivs(c, a, result):
    M, pts = a["mix"].M, _size(a["x"])
    c["calls"] += 1
    c["points"] += pts
    c["bernstein_ops"] += pts * (_triangle(M + 1) + _triangle(M) + (_triangle(M - 1) if M >= 2 else 0))


def _count_density(c, a, result):
    pts = _size(a["x"])
    c["calls"] += 1
    c["points"] += pts
    c["bernstein_ops"] += pts * _triangle(a["mix"].M + 1)


def _count_evaluator(c, a, result):
    c["evaluators"] += 1


def _count_kernel_eval(c, a, result):
    c["calls"] += 1
    c["points"] += _size(a["x"])


def _count_sample(c, a, result):
    c["draws"] += int(a["count"])


def _count_certify(c, a, result):
    c["calls"] += 1
    c["grid_points"] += int(a["grid_points"])


def _count_discrete_sweep(c, a, result):
    c["discrete_cases"] += len(result)


def _count_continuous_sweep(c, a, result):
    c["continuous_cases"] += len(result)


def _count_command(c, a, result):
    argv = list(a["argv"])
    c["commands"] += 1
    if "--out" in argv:
        c["bytes_out"] += os.path.getsize(argv[argv.index("--out") + 1])


def _targets():
    """(owner, attribute, layer, counter) for every wrapped entry point."""
    mixtures = sys.modules["betamix.mixtures"]
    lemmas = sys.modules["betamix.lemmas"]
    certify = sys.modules["betamix.certify"]
    quadrature = sys.modules["betamix.quadrature"]
    cli = betamix.cli
    evaluator = mixtures.ContinuousEvaluator
    return [
        (mixtures, "log_gen_binom_grid", "special", _count_grid_fn),
        (mixtures, "log_abs_gen_binom_ext", "special", _count_grid_fn),
        (lemmas, "log_abs_gen_binom_ext", "special", _count_grid_fn),
        (mixtures, "panel_nodes", "quadrature", _count_panels),
        (lemmas, "panel_nodes", "quadrature", _count_panels),
        (quadrature, "reference_rule", "quadrature", _count_rule),
        (certify, "discrete_derivs_grid", "mixtures.discrete", _count_derivs),
        (cli, "discrete_derivs_grid", "mixtures.discrete", _count_derivs),
        (certify, "discrete_density_grid", "mixtures.discrete", _count_density),
        (mixtures, "discrete_density_grid", "mixtures.discrete", _count_density),
        (evaluator, "__init__", "mixtures.continuous", _count_evaluator),
        (evaluator, "density", "mixtures.continuous", _count_kernel_eval),
        (evaluator, "d1", "mixtures.continuous", _count_kernel_eval),
        (evaluator, "d2", "mixtures.continuous", _count_kernel_eval),
        (cli, "sample", "mixtures.sample", _count_sample),
        (betamix, "certify", "certify", _count_certify),
        (cli, "certify", "certify", _count_certify),
        (cli, "sharpness_check", "certify", _count_certify),
        (cli, "find_kernel_failure", "certify", None),
        (cli, "kernel_log_curvature", "certify", None),
        (cli, "discrete_lemma_sweep", "lemmas", _count_discrete_sweep),
        (cli, "continuous_lemma_sweep", "lemmas", _count_continuous_sweep),
        (cli, "main", "cli", _count_command),
    ]


class Tracer:
    def __init__(self):
        self.spans = []  # [name, layer, start, end, parent index or -1]
        self.counts = {layer: dict.fromkeys(COUNTS[layer], 0) for layer in LAYERS}
        self._stack = []

    def wrap(self, name, layer, fn, counter):
        sig = inspect.signature(fn)
        counts = self.counts[layer]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, layer, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                self._stack.pop()
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(counts, bound.arguments, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore it."""
        saved = []
        try:
            for owner, attr, layer, counter in _targets():
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                name = f"{getattr(owner, '__name__', owner)}.{attr}"
                setattr(owner, attr, self.wrap(name, layer, original, counter))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_times(self):
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = dict.fromkeys(LAYERS, 0.0)
        for (_, layer, start, end, _), covered in zip(self.spans, child):
            totals[layer] += (end - start) - covered
        return totals

    def metrics(self):
        """Per-layer metrics in the {"name": {"value", "unit"}} form."""
        out = {}
        selfs = self.self_times()
        for layer in LAYERS:
            for key, value in self.counts[layer].items():
                out[f"{layer}.{key}"] = {"value": value, "unit": "bytes" if key == "bytes_out" else "count"}
            out[f"{layer}.self_s"] = {"value": selfs[layer], "unit": "s"}
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, layer, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "layer": layer, "start": start, "end": end,
                                     "parent": parent}) + "\n")
