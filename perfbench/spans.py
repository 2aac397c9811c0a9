"""Spans around calls into defectgeom's public functions.

Installed from the benchmark's own files: every ``defectgeom.*`` module
attribute bound to a traced function is replaced by a wrapper, so calls
through from-imported names (``cli``, ``defects``, ``field_theory``,
``network``, the package ``__init__``) are seen too. ``FormField.sample``
is wrapped on the class, and the ``scipy.ndimage`` calls made from
``forms`` go through a stand-in for the ``ndimage`` name in that module.

Spans stay in memory. A span's self time is its duration minus the time
its child spans cover.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

from defectgeom import forms

GRID_OPS = ("exterior_derivative", "wedge", "antisym_matmul",
            "covariant_exterior_derivative", "hodge_star")

TARGETS = [("forms", f) for f in ("integrate_surface", "integrate_loop")
           + GRID_OPS] + \
    [("defects", f) for f in ("build_coframe", "build_connection", "torsion",
                              "curvature", "burgers_vector", "frank_angles")] + \
    [("field_theory", f) for f in ("bianchi_residuals", "el_coframe_residual",
                                   "el_connection_residual", "u1_sources",
                                   "embed_static_4d")] + \
    [("dynamics", "step_lines"), ("network", "detect_and_reconnect"),
     ("network", "curvature_screened_flux"), ("geometry", "box_integral"),
     ("io", "write_csv"), ("io", "write_field"), ("io", "read_field"),
     ("scenario", "load_scenario")] + \
    [("cli", f) for f in ("cmd_fields", "cmd_charges", "cmd_verify",
                          "cmd_simulate")]


def _grid_op_counts(args, result, state):
    return {"forms.grid_ops.mb_computed": result.coeffs.nbytes / 1e6}


def _exterior_counts(args, result, state):
    counts = _grid_op_counts(args, result, state)
    counts["forms.exterior_derivative.cells"] = \
        float(np.prod(args[0].grid.resolution))
    return counts


def _file_mb(name):
    def counts(args, result, state):
        return {f"io.{name}.mb": os.path.getsize(args[0]) / 1e6}
    return counts


def _sample_counts(args, result, cache_before):
    return {"forms.sample.points": float(np.prod(np.shape(args[1])[:-1])),
            "forms.sample.cache_hits":
                float(len(args[0]._spline_cache) == cache_before)}


# (module, function) -> counter(args, result, state) -> {metric: increment}
COUNTERS = {
    ("forms", "exterior_derivative"): _exterior_counts,
    **{("forms", f): _grid_op_counts for f in GRID_OPS[1:]},
    ("dynamics", "step_lines"): lambda args, result, state: {
        "dynamics.step_lines.node_steps": len(result[1]),
        "dynamics.step_lines.clipped_nodes": len(result[2])},
    ("network", "detect_and_reconnect"): lambda args, result, state: {
        "network.detect_and_reconnect.events": len(result[1])},
    ("io", "write_csv"): _file_mb("write_csv"),
    ("io", "write_field"): _file_mb("write_field"),
}


class Tracer:
    """In-memory span recorder with per-name calls, self time and counts."""

    def __init__(self):
        self.spans = []         # [name, parent index, op, start, end, child_s]
        self.stack = []
        self.op = None
        self.counts = defaultdict(float)
        self._undo = []

    def wrap(self, name, fn, counter=None, before=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else None
            span = [name, parent, tracer.op, time.perf_counter(), 0.0, 0.0]
            index = len(tracer.spans)
            tracer.spans.append(span)
            tracer.stack.append(index)
            state = before(args) if before else None
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                tracer.stack.pop()
                if parent is not None:
                    tracer.spans[parent][5] += span[4] - span[3]
            if counter is not None:
                for key, value in counter(args, result, state).items():
                    tracer.counts[key] += value
            return result

        return traced

    # -- installation ---------------------------------------------------------

    def _rebind(self, orig, wrapper):
        for modname, module in list(sys.modules.items()):
            if modname != "defectgeom" and not modname.startswith("defectgeom."):
                continue
            for attr, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, orig))

    def install(self):
        for modname, func in TARGETS:
            module = sys.modules[f"defectgeom.{modname}"]
            orig = getattr(module, func)
            self._rebind(orig, self.wrap(f"{modname}.{func}", orig,
                                         COUNTERS.get((modname, func))))

        sample = forms.FormField.sample
        forms.FormField.sample = self.wrap(
            "forms.sample", sample, before=lambda args: len(args[0]._spline_cache),
            counter=_sample_counts)
        self._undo.append((forms.FormField, "sample", sample))

        ndimage = forms.ndimage
        forms.ndimage = _NdimageStandIn(ndimage, self)
        self._undo.append((forms, "ndimage", ndimage))

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- results -------------------------------------------------------------

    def layer_stats(self):
        """Per-name calls and self seconds over all recorded spans."""
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for name, _parent, _op, start, end, child in self.spans:
            calls[name] += 1
            self_s[name] += end - start - child
        return calls, self_s

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, parent, op, start, end, child) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "parent": parent, "op": op,
                                     "name": name, "start": start, "end": end,
                                     "self_s": end - start - child}) + "\n")


class _NdimageStandIn:
    """The ``ndimage`` name inside ``forms``, with its two calls traced."""

    def __init__(self, ndimage, tracer):
        self._ndimage = ndimage
        self.spline_filter = tracer.wrap("forms.spline_prefilter",
                                         ndimage.spline_filter)
        self.map_coordinates = tracer.wrap("forms.map_coordinates",
                                           ndimage.map_coordinates)

    def __getattr__(self, name):
        return getattr(self._ndimage, name)
