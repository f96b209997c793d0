"""Spans around the calls into weilfit's layers, recorded from outside the
library.

A Tracer replaces every module-level reference to a traced public function
with a wrapper that records one span per call: name, layer, parent span,
start, end, and the counts the call's arguments and result imply.  Spans stay
in memory until the caller asks for them; `restore()` puts every original
object back.  `layer_metrics` turns one invocation's spans into the per-layer
figures the benchmark reports (self time = span duration minus the durations
of its direct child spans).

Layers are the package's modules: pointgen, indexsets, polybasis, lstsq,
diagnostics, targets, cli.  Every numpy.linalg.svd call, whoever makes it, is
the pseudo-layer "lstsq.factor".
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

import numpy as np

LAYERS = ("pointgen", "indexsets", "polybasis", "lstsq", "diagnostics",
          "targets", "cli")
FACTOR = "lstsq.factor"

# Public functions whose calls are spans, as (module, name).
TRACED = (
    ("weilfit.pointgen", "weil_grid"),
    ("weilfit.pointgen", "mc_sample"),
    ("weilfit.pointgen", "nearest_prime"),
    ("weilfit.indexsets", "build_index_set"),
    ("weilfit.indexsets", "as_indices"),
    ("weilfit.polybasis", "basis_matrix"),
    ("weilfit.lstsq", "solve"),
    ("weilfit.lstsq", "compute_weights"),
    ("weilfit.lstsq", "evaluate_fit"),
    ("weilfit.diagnostics", "l2_error"),
    ("weilfit.targets", "make"),
)


def weilfit_modules() -> dict:
    """The loaded weilfit package and submodules, by name."""
    return {name: module for name, module in sys.modules.items()
            if name == "weilfit" or name.startswith("weilfit.")}


def svd_flops(shape, compute_uv: bool) -> float:
    """Computed flop count of a thin SVD of an m x n matrix.

    The cheaper of Golub-Kahan and R-SVD, as tabulated in Golub & Van Loan,
    Matrix Computations (4th ed.), Sec. 8.6: singular values only
    min(4mn^2 - 4n^3/3, 2mn^2 + 2n^3); with U1 and V
    min(4m^2n + 8mn^2 + 9n^3, 6mn^2 + 20n^3).
    """
    m, n = max(shape[-2:]), min(shape[-2:])
    if compute_uv:
        return float(min(4 * m * m * n + 8 * m * n * n + 9 * n ** 3,
                         6 * m * n * n + 20 * n ** 3))
    return float(min(4 * m * n * n - 4 * n ** 3 / 3, 2 * m * n * n + 2 * n ** 3))


def _rows(args, kwargs, result):
    return {"rows": int(result.points.shape[0])}


def _entries(args, kwargs, result):
    return {"entries": int(result.shape[0]) * int(result.shape[1])}


def _test_points(args, kwargs, result):
    return {"test_points": int(result.n_test)}


def _evals(args, kwargs, result):
    return {"evals": int(np.size(result))}


def _factor(args, kwargs, result):
    a = args[0] if args else kwargs["a"]
    compute_uv = kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
    s = result[1] if compute_uv else result
    counts = {"flops": svd_flops(np.shape(a), compute_uv)}
    if s.size and s[-1] > 0.0:
        counts["cond_A"] = float(s[0] / s[-1]) ** 2
    return counts


COUNTERS = {
    "weil_grid": _rows,
    "mc_sample": _rows,
    "basis_matrix": _entries,
    "l2_error": _test_points,
}


class Tracer:
    """Record spans around the traced functions until `restore()`."""

    def __init__(self):
        self.spans = []   # [name, layer, parent, start, end, counts]
        self._stack = []
        self._patched = []  # (owner, attribute, original)

    def _wrap(self, fn, name, layer, counter):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, layer, stack[-1] if stack else None,
                    time.perf_counter(), None, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                stack.pop()
            if counter is not None:
                span[5] = counter(args, kwargs, result)
            return result

        return wrapper

    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self):
        """Wrap every module-level reference, in any weilfit module, to a
        traced function, plus numpy.linalg.svd."""
        traced = {}  # id(function) -> (function, layer, name); ids of live objects are unique
        for modname, attr in TRACED:
            fn = getattr(importlib.import_module(modname), attr)
            traced[id(fn)] = (fn, modname.split(".")[-1], attr)
        for modname, module in weilfit_modules().items():
            owner = modname.split(".")[-1]
            for attr, value in list(vars(module).items()):
                if id(value) not in traced:
                    continue
                fn, layer, fname = traced[id(value)]
                if fname == "make":
                    wrapper = self._wrap_make(fn)
                else:
                    wrapper = self._wrap(fn, f"{owner}.{attr}", layer,
                                         COUNTERS.get(fname))
                self._patch(module, attr, wrapper)
        self._patch(np.linalg, "svd",
                    self._wrap(np.linalg.svd, "numpy.linalg.svd", FACTOR, _factor))
        return self

    def _wrap_make(self, make):
        """targets.make itself is cheap; the callables it returns are spans."""
        wrap = self._wrap

        @functools.wraps(make)
        def traced_make(*args, **kwargs):
            f = make(*args, **kwargs)
            return wrap(f, f"targets.{f.__name__}", "targets", _evals)

        return traced_make

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def self_times(spans) -> list:
    """Self time of each span: its duration minus its direct children's."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[2] is not None:
            child[span[2]] += span[4] - span[3]
    return [span[4] - span[3] - c for span, c in zip(spans, child)]


def layer_metrics(spans, wall_s: float) -> dict:
    """Per-layer figures of one traced invocation (values only, no units)."""
    selfs = self_times(spans)
    self_s = {layer: 0.0 for layer in LAYERS + (FACTOR,)}
    calls = dict.fromkeys(self_s, 0)
    counts = {}
    max_cond = 0.0
    top_level = 0.0
    for span, st in zip(spans, selfs):
        layer = span[1]
        self_s[layer] += st
        calls[layer] += 1
        if span[2] is None:
            top_level += span[4] - span[3]
        for key, value in (span[5] or {}).items():
            if key == "cond_A":
                max_cond = max(max_cond, value)
            else:
                counts[key] = counts.get(key, 0) + value
    entries = counts.get("entries", 0)
    factor_s = self_s[FACTOR]
    flops = counts.get("flops", 0.0)
    return {
        "pointgen.self_s": self_s["pointgen"],
        "pointgen.calls": calls["pointgen"],
        "pointgen.rows": counts.get("rows", 0),
        "indexsets.self_s": self_s["indexsets"],
        "indexsets.calls": calls["indexsets"],
        "polybasis.self_s": self_s["polybasis"],
        "polybasis.calls": calls["polybasis"],
        "polybasis.entries": entries,
        "polybasis.bytes": 8 * entries,
        "polybasis.entries_per_s": entries / self_s["polybasis"] if self_s["polybasis"] > 0 else 0.0,
        "lstsq.factor_s": factor_s,
        "lstsq.factor_calls": calls[FACTOR],
        "lstsq.factor_flops": flops,
        "lstsq.factor_gflop_s": flops / factor_s / 1e9 if factor_s > 0 else 0.0,
        "lstsq.self_s": self_s["lstsq"],
        "lstsq.max_cond_A": max_cond,
        "diagnostics.self_s": self_s["diagnostics"],
        "diagnostics.test_points": counts.get("test_points", 0),
        "targets.self_s": self_s["targets"],
        "targets.evals": counts.get("evals", 0),
        "cli.self_s": wall_s - top_level,
    }
