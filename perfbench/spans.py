"""In-memory span tracing around the public functions of each layer.

A `Tracer` patches module and class attributes of `neqcasimir` with
wrappers that record one span per call: name, start, end, the index of
the span that was open when it started (its parent), and a few
machine-independent counts computed from the call's arguments.  The
patches are removed again by `Tracer.restore`, so untraced passes run
the program exactly as shipped.  Spans stay in memory until the run
ends; `layer_metrics` derives per-layer self times and counts from
them.

Self time of a span is its duration minus the durations of its direct
children.  Spans nest strictly (one thread, one caller), so the self
times of every span under a root add up to the root's duration.
"""

import contextlib
import json
import time
from collections import Counter

import numpy as np

NAME, START, END, PARENT, ATTRS = range(5)

FORCE_SPANS = ("engine.interaction_force", "engine.pair_source_force")


def _evals(args):
    # blocks(self, orders, ktz, omega): one 2x2 block per (node, order)
    return {"evals": np.size(args[1]) * np.size(args[2])}


def _hankel_values(args):
    # J_n and Y_n for n = 0 .. nu_max + 2 at every argument
    return {"values": 2 * np.size(args[0]) * (int(args[1]) + 3)}


def _kprod_values(args):
    # K_n for n = 0 .. nu_max + 1 at every argument
    return {"values": np.size(args[0]) * (int(args[1]) + 2)}


def _temperature(args):
    # (source, target, temperature, separation, ...) as total_force
    # passes them
    return {"temperature": float(args[2]) if len(args) > 2
            and args[2] is not None else None}


class _CountingWarnings:
    """Stands in for the `warnings` module inside one package module
    and counts each `warn` call by message before forwarding it."""

    def __init__(self, real, counts, layer):
        self._real = real
        self._counts = counts
        self._layer = layer

    def warn(self, message, category=None, stacklevel=1, **kwargs):
        self._counts[(self._layer, str(message))] += 1
        self._real.warn(message, category, stacklevel + 1, **kwargs)

    def __getattr__(self, attr):
        return getattr(self._real, attr)


class Tracer:
    """Records spans in memory while its patches are installed."""

    def __init__(self):
        self.spans = []
        self.warnings = Counter()
        self._stack = []
        self._patches = []

    @contextlib.contextmanager
    def span(self, name):
        rec = self._open(name, {})
        try:
            yield
        finally:
            self._close(rec)

    def _open(self, name, attrs):
        parent = self._stack[-1] if self._stack else -1
        rec = [name, 0.0, 0.0, parent, attrs]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        return rec

    def _close(self, rec):
        rec[END] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name, attrs=None):
        def traced(*args, **kwargs):
            rec = self._open(name, attrs(args) if attrs else {})
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)
        traced.__wrapped__ = fn
        return traced

    def wrap_adaptive(self, fn):
        """Wrap the outer integrator and count the panels and nodes its
        integrand is asked for."""
        def traced(f, *args, **kwargs):
            rec = self._open("quadrature.adaptive_vector",
                             {"panels": 0, "nodes": 0})
            counts = rec[ATTRS]

            def integrand(x):
                counts["panels"] += 1
                counts["nodes"] += np.size(x)
                return f(x)
            try:
                return fn(integrand, *args, **kwargs)
            finally:
                self._close(rec)
        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self, nq):
        """Patch the public entry points of every layer of package
        `nq` (the imported `neqcasimir`)."""
        tm, kn, en = nq.tmatrix, nq.kernels, nq.engine
        self.patch(tm.ThinExpansion, "blocks", self.wrap(
            tm.ThinExpansion.blocks, "tmatrix.thin_blocks", _evals))
        self.patch(tm.FullSolve, "blocks", self.wrap(
            tm.FullSolve.blocks, "tmatrix.full_blocks", _evals))
        # the name tmatrix bound at import, so only its calls count
        self.patch(tm, "_epsilon", self.wrap(tm._epsilon,
                                             "materials.epsilon"))
        self.patch(kn, "hankel_tables", self.wrap(
            kn.hankel_tables, "kernels.hankel_tables", _hankel_values))
        self.patch(kn, "k_product_table", self.wrap(
            kn.k_product_table, "kernels.k_product_table", _kprod_values))
        for kind in ("prop", "evan", "pair"):
            attr = "%s_kernel_sum" % kind
            self.patch(kn, attr, self.wrap(getattr(kn, attr),
                                           "kernels." + attr))
        self.patch(en, "adaptive_vector",
                   self.wrap_adaptive(en.adaptive_vector))
        for attr in ("interaction_force", "pair_source_force"):
            self.patch(en, attr, self.wrap(getattr(en, attr),
                                           "engine." + attr, _temperature))
        self.patch(en, "total_force", self.wrap(en.total_force,
                                                "engine.total_force"))
        self.patch(nq.analysis, "refine_zero", self.wrap(
            nq.analysis.refine_zero, "analysis.refine_zero"))
        self.patch(nq.scenario, "load_scenario", self.wrap(
            nq.scenario.load_scenario, "scenario.load_scenario"))
        self.patch(nq.cli, "write_sweep_csv", self.wrap(
            nq.cli.write_sweep_csv, "cli.write_sweep_csv"))
        for module, layer in ((en, "engine"), (tm, "tmatrix")):
            self.patch(module, "warnings", _CountingWarnings(
                module.warnings, self.warnings, layer))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path):
        """Write the spans as JSON lines: name, start, end, parent,
        attrs, with times relative to the first span."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w") as handle:
            for name, start, end, parent, attrs in self.spans:
                handle.write(json.dumps(
                    [name, start - t0, end - t0, parent, attrs],
                    separators=(",", ":")) + "\n")


def self_times(spans):
    """Self time of every span: its duration minus its direct
    children's durations."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def children(spans):
    kids = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            kids[s[PARENT]].append(i)
    return kids


def _has_ancestor(spans, i, name):
    p = spans[i][PARENT]
    while p >= 0:
        if spans[p][NAME] == name:
            return True
        p = spans[p][PARENT]
    return False


LAYERS = {
    "tmatrix.full_blocks": ("calls", "evals", "self_s"),
    "tmatrix.thin_blocks": ("calls", "evals", "self_s"),
    "materials.epsilon": ("calls", "self_s"),
    "kernels.hankel_tables": ("calls", "values", "self_s"),
    "kernels.k_product_table": ("calls", "values", "self_s"),
    "kernels.prop_kernel_sum": ("calls", "self_s"),
    "kernels.evan_kernel_sum": ("calls", "self_s"),
    "kernels.pair_kernel_sum": ("calls", "self_s"),
    "quadrature.adaptive_vector": ("calls", "panels", "nodes", "self_s"),
    "engine.total_force": ("calls", "self_s"),
}


def layer_metrics(spans, warnings=()):
    """Per-layer counts and self times derived from a span list.

    Returns a flat dict of metric name -> value.  Layers that did not
    run report zero.
    """
    selfs = self_times(spans)
    kids = children(spans)
    out = {}
    for layer, fields in LAYERS.items():
        for field in fields:
            out["%s.%s" % (layer, field)] = 0.0 if field == "self_s" else 0
    integrals = hot_calls = hot_reused = 0
    calibration = 0.0
    zero_calls = 0
    zero_s = load_s = write_s = 0.0
    for i, (name, start, end, _, attrs) in enumerate(spans):
        if name in LAYERS:
            out[name + ".calls"] += 1
            out[name + ".self_s"] += selfs[i]
            for key in ("evals", "values", "panels", "nodes"):
                if key in attrs:
                    out["%s.%s" % (name, key)] += int(attrs[key])
        if name in FORCE_SPANS:
            quad = [spans[k] for k in kids[i]
                    if spans[k][NAME] == "quadrature.adaptive_vector"]
            calibration += (end - start) - sum(q[END] - q[START]
                                               for q in quad)
            integrals += bool(quad)
            if attrs.get("temperature"):
                hot_calls += 1
                hot_reused += not quad
        elif name == "engine.total_force":
            zero_calls += _has_ancestor(spans, i, "analysis.refine_zero")
        elif name == "analysis.refine_zero":
            zero_s += end - start
        elif name == "scenario.load_scenario":
            load_s += end - start
        elif name == "cli.write_sweep_csv":
            write_s += end - start
    out["tmatrix.blocks.calls"] = (out["tmatrix.thin_blocks.calls"]
                                   + out["tmatrix.full_blocks.calls"])
    out["tmatrix.blocks.evals"] = (out["tmatrix.thin_blocks.evals"]
                                   + out["tmatrix.full_blocks.evals"])
    out["tmatrix.blocks.self_s"] = (out["tmatrix.thin_blocks.self_s"]
                                    + out["tmatrix.full_blocks.self_s"])
    out["engine.integrals"] = integrals
    out["engine.reuse_ratio"] = hot_reused / hot_calls if hot_calls else 0.0
    out["engine.calibration_self_s"] = calibration
    out["analysis.refine_zero.engine_calls"] = zero_calls
    out["analysis.refine_zero.s"] = zero_s
    out["scenario.load_scenario.s"] = load_s
    out["cli.write_sweep_csv.s"] = write_s
    counts = Counter()
    for (layer, _), n in dict(warnings).items():
        counts[layer] += n
    out["engine.warnings"] = counts["engine"]
    out["tmatrix.warnings"] = counts["tmatrix"]
    return out


COUNT_METRICS = tuple(
    "%s.%s" % (layer, field) for layer, fields in LAYERS.items()
    for field in fields if field != "self_s") + (
    "tmatrix.blocks.calls", "tmatrix.blocks.evals", "engine.integrals",
    "analysis.refine_zero.engine_calls", "engine.warnings",
    "tmatrix.warnings")
