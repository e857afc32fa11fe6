"""Spans around the calls into wadro's layers, recorded from outside ``src/``.

A :class:`Tracer` replaces each traced function by a wrapper wherever a wadro
module looks it up: in its own module's globals (``wadro.measure.
std_normal_nodes`` as ``build_model`` calls it), in the namespaces that
imported it by name (``wadro.cli.build_model``) and on the module object that
callers reach through an attribute (``fredholm.solve``).  Each call records a
span (layer, start, end, parent span) in memory; counts are read from the
values the functions return.  :meth:`Tracer.write` saves the spans at the end
of a run and :meth:`Tracer.layer_metrics` turns them into per-op figures.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

# (module, function) pairs; a span's self time is its duration minus the time
# covered by the spans of traced functions it called
LAYERS = (
    ("cli", "main"),
    ("measure", "std_normal_nodes"),
    ("measure", "build_model"),
    ("measure", "quantile_bins"),
    ("measure", "cond_exp_1"),
    ("criterion", "value"),
    ("criterion", "vega"),
    ("criterion", "gradient_field"),
    ("sensitivity", "solve_foc"),
    ("fredholm", "build_operator"),
    ("fredholm", "contraction_norm"),
    ("fredholm", "solve"),
    ("oracle", "dro_lp"),
    ("oracle", "default_target_support"),
    ("simplex", "solve_lp"),
    ("svgplot", "line_chart"),
)

# metric name -> unit, in the order the benchmark reports them
PER_LAYER_UNITS = {
    "measure.std_normal_nodes.calls": "count/op",
    "measure.std_normal_nodes.self_s": "s/op",
    "measure.std_normal_nodes.calls_per_key": "count/op/key",
    "measure.build_model.self_s": "s/op",
    "measure.quantile_bins.self_s": "s/op",
    "measure.cond_exp_1.calls": "count/op",
    "criterion.value.self_s": "s/op",
    "criterion.vega.self_s": "s/op",
    "criterion.gradient_field.self_s": "s/op",
    "sensitivity.solve_foc.calls": "count/op",
    "sensitivity.solve_foc.self_s": "s/op",
    "sensitivity.foc_iterations": "count/op",
    "sensitivity.max_foc_residual": "1",
    "fredholm.build_operator.self_s": "s/op",
    "fredholm.contraction_norm.calls": "count/op",
    "fredholm.contraction_norm.self_s": "s/op",
    "fredholm.solve.calls": "count/op",
    "fredholm.solve.self_s": "s/op",
    "fredholm.norms_per_operator": "ratio",
    "oracle.dro_lp.calls": "count/op",
    "oracle.dro_lp.self_s": "s/op",
    "oracle.default_target_support.self_s": "s/op",
    "oracle.lp_variables": "count/op",
    "simplex.solve_lp.calls": "count/op",
    "simplex.solve_lp.self_s": "s/op",
    "simplex.pivots": "count/op",
    "cli.main.self_s": "s/op",
    "svgplot.line_chart.self_s": "s/op",
}


class Tracer:
    """Span recorder for one process; install, run ops, uninstall, report."""

    def __init__(self):
        self.names = [f"{mod}.{fn}" for mod, fn in LAYERS]
        self.layer = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = []
        self._patched = []          # (namespace, attribute, original)
        self.foc_iterations = 0
        self.max_foc_residual = 0.0
        self.lp_variables = 0
        self.pivots = 0
        self.node_keys = set()

    # -- recording ---------------------------------------------------------

    def _record(self, name: str, result, bound) -> None:
        if name == "sensitivity.solve_foc":
            self.foc_iterations += int(result.iterations)
            self.max_foc_residual = max(self.max_foc_residual, float(result.foc_residual))
        elif name == "oracle.dro_lp":
            self.lp_variables += int(result[1]["variables"])
        elif name == "simplex.solve_lp":
            self.pivots += int(result.pivots)
        elif name == "measure.std_normal_nodes":
            self.node_keys.add(tuple(bound.arguments.items()))

    def _wrap(self, layer: int, fn):
        name = self.names[layer]
        sig = inspect.signature(fn) if name == "measure.std_normal_nodes" else None
        counted = name in ("sensitivity.solve_foc", "oracle.dro_lp", "simplex.solve_lp",
                           "measure.std_normal_nodes")
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.layer.append(layer)
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if counted:
                bound = None
                if sig is not None:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                self._record(name, result, bound)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function in every wadro namespace that holds it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "wadro" or key.startswith("wadro."))]
        for layer, (mod, fn) in enumerate(LAYERS):
            original = getattr(sys.modules[f"wadro.{mod}"], fn)
            wrapper = self._wrap(layer, original)
            for module in modules:
                for attr, val in list(vars(module).items()):
                    if val is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []

    # -- reporting ---------------------------------------------------------

    def _arrays(self):
        return tuple(np.asarray(a) for a in (self.layer, self.start, self.end, self.parent))

    def write(self, path) -> None:
        """Save the spans: layer names, and per span its layer, start, end, parent."""
        layer, start, end, parent = self._arrays()
        np.savez(path, names=np.array(self.names), layer=layer, start=start, end=end,
                 parent=parent)

    def layer_metrics(self, op_scale=None) -> dict:
        """Per-layer figures averaged per op (one op is one ``cli.main`` span).

        ``op_scale`` holds one factor per op that self times are multiplied
        by, to report them at a reference machine speed.
        """
        layer, start, end, parent = self._arrays()
        dur = end - start
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        own = dur - covered
        main = self.names.index("cli.main")
        op_of_span = np.cumsum(layer == main) - 1
        if op_of_span.size == 0 or op_of_span[0] < 0:
            raise RuntimeError("traced calls outside an op")
        if op_scale is not None:
            own = own * np.asarray(op_scale, dtype=float)[op_of_span]
        calls = np.bincount(layer, minlength=len(self.names))
        self_s = np.bincount(layer, weights=own, minlength=len(self.names))
        ops = int(calls[main])
        out = {}
        for k, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[k] / ops
            out[f"{name}.self_s"] = self_s[k] / ops
        nodes = out["measure.std_normal_nodes.calls"]
        out["measure.std_normal_nodes.calls_per_key"] = (
            nodes / len(self.node_keys) if self.node_keys else 0.0)
        builds = calls[self.names.index("fredholm.build_operator")]
        norms = calls[self.names.index("fredholm.contraction_norm")]
        out["fredholm.norms_per_operator"] = norms / builds if builds else 0.0
        out["sensitivity.foc_iterations"] = self.foc_iterations / ops
        out["sensitivity.max_foc_residual"] = self.max_foc_residual
        out["oracle.lp_variables"] = self.lp_variables / ops
        out["simplex.pivots"] = self.pivots / ops
        return {name: {"value": float(out[name]), "unit": unit}
                for name, unit in PER_LAYER_UNITS.items()}
