"""Spans around qdini's public functions and methods, installed from outside the package.

``install`` wraps every public function of each layer module and rebinds it
in every ``qdini`` module that imported it; it wraps the public methods,
``__init__`` and ``__call__`` of each public class in place, the click
entry points of ``qdini.cli``, and ``numpy.linalg.eigh``, ``eigvalsh`` and
``svd`` (the eigensolves).  ``uninstall`` puts the originals back.

A span records name, start, end, parent span and op id.  Spans are kept in
memory (up to a cap) and written out when the run ends.  A layer's self
time is its span time minus the time its child spans cover; eigensolve
spans are children, so ``self_s`` is Python-level work of the layer and
``operators.eigensolve_s`` holds the LAPACK time.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("operators", "extreal", "entropies", "channels", "truncation",
          "verdicts", "diagnostics", "scenarios", "cli")

# Scalar helpers called once per eigenvalue or per number: a span would cost
# more than the call and would swamp the layer's self time.
UNWRAPPED = {"operators.default_rank_tol", "entropies.eta", "verdicts.encode_number"}
WRAPPED_DUNDERS = {"__init__", "__call__", "__add__", "__radd__", "__sub__", "__mul__", "__rmul__"}
EIGENSOLVERS = ("eigh", "eigvalsh", "svd")

# Groups of span names.  For each group the tracer counts outermost entries,
# their inclusive time, and the eigensolves made while the group is active.
GROUPS = {
    "eig": {f"numpy.linalg.{f}" for f in EIGENSOLVERS},
    "construct": {f"operators.{c}.__init__" for c in
                  ("HermitianOperator", "PositiveOperator", "DensityOperator", "Projector")},
    "extreal_value": {"extreal.ExtendedReal.__init__"},
    "relative_entropy": {"entropies.relative_entropy"},
    "mi": {"channels.channel_mutual_information"},
    "spectral_truncation": {"truncation.spectral_truncation"},
    "schedule": {"truncation.commuting_schedule", "truncation.fixed_basis_schedule",
                 "truncation.validate_schedule"},
    "trend": {"verdicts.TrendSummary.from_residuals"},
    "gap_grid": {"diagnostics.approximation_gap_grid"},
    "family_eval": {"diagnostics.FunctionalFamily.value"},
    "estimate": {"scenarios.estimate_flops"},
    "input_gen": {f"scenarios.random_{k}" for k in
                  ("unitary", "density", "positive", "channel", "projector")},
}

SPAN_CAP = 100_000


class Tracer:
    def __init__(self, dense_materialization_count):
        self._dense_count = dense_materialization_count
        self.enabled = False
        self.op_id = -1
        self.stack = []   # frames: [layer, name, child_s, span_id, init_self]
        self.spans = []
        self.spans_total = 0
        self.self_s = defaultdict(float)
        self.errors = Counter()
        self.entries = Counter()
        self.inclusive_s = defaultdict(float)
        self.group_eig = Counter()
        self.depth = Counter()
        self.eig_d3 = 0
        self.mi_max_dim = 0
        self.grid_cells = 0
        self.report_bytes = 0
        self.dense_materializations = 0
        self.ops = 0
        self._groups_of = {}
        for group, names in GROUPS.items():
            for name in names:
                self._groups_of.setdefault(name, []).append(group)
        self._patches = []

    # -- ops ---------------------------------------------------------------

    def begin_op(self, op_id: int):
        self.op_id = op_id
        self.stack = [["bench", "op", 0.0, self._new_span_id(), None]]
        self.enabled = True
        self._dense_at_start = self._dense_count()
        self._op_start = time.perf_counter()

    def end_op(self):
        self.enabled = False
        end = time.perf_counter()
        root = self.stack[0]
        self._record(root[3], None, "op", self._op_start, end)
        self.dense_materializations += self._dense_count() - self._dense_at_start
        self.stack = []
        self.ops += 1

    def counts(self) -> tuple:
        """Deterministic counters; the difference across one op is its count vector."""
        return (self.entries["eig"], self.entries["construct"], self.dense_materializations,
                self.entries["extreal_value"], self.grid_cells, self.entries["mi"])

    COUNT_NAMES = ("operators.eigensolves", "operators.constructions",
                   "operators.dense_materializations", "extreal.values",
                   "diagnostics.grid_cells", "channels.mi_calls")

    # -- spans -------------------------------------------------------------

    def _new_span_id(self) -> int:
        self.spans_total += 1
        return self.spans_total

    def _record(self, span_id, parent_id, name, start, end):
        if len(self.spans) < SPAN_CAP:
            self.spans.append((self.op_id, span_id, parent_id, name, start, end))

    def call(self, layer, name, fn, args, kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        stack = self.stack
        parent = stack[-1]
        if name.endswith(".__init__") and parent[4] is not None and parent[4] is args[0]:
            # super().__init__ inside a traced constructor: same object, same span
            return fn(*args, **kwargs)
        groups = self._groups_of.get(name, ())
        outer = [g for g in groups if self.depth[g] == 0]
        for g in groups:
            self.depth[g] += 1
        if name in GROUPS["eig"]:
            self._on_eigensolve(args[0])
        frame = [layer, name, 0.0, self._new_span_id(),
                 args[0] if name.endswith(".__init__") else None]
        stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:
            if parent[0] != layer:
                self.errors[layer] += 1
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            self.self_s[layer] += duration - frame[2]
            parent[2] += duration
            for g in groups:
                self.depth[g] -= 1
            for g in outer:
                self.entries[g] += 1
                self.inclusive_s[g] += duration
            self._record(frame[3], parent[3], name, start, end)
        if name == "diagnostics.approximation_gap_grid":
            self.grid_cells += len(result.cells)
        elif name == "scenarios.report_to_json":
            self.report_bytes += len(result)
        return result

    def _on_eigensolve(self, a):
        d = int(np.shape(a)[-1])
        self.eig_d3 += d ** 3
        for g, depth in self.depth.items():
            if depth and g != "eig":
                self.group_eig[g] += 1
        if self.depth["mi"]:
            self.mi_max_dim = max(self.mi_max_dim, d)

    # -- installation ------------------------------------------------------

    def _wrap(self, layer, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(layer, name, fn, args, kwargs)
        return wrapper

    def _patch(self, obj, attr, value):
        self._patches.append((obj, attr, obj.__dict__.get(attr, _MISSING)))
        setattr(obj, attr, value)

    def install(self):
        modules = {layer: sys.modules[f"qdini.{layer}"] for layer in LAYERS}
        everywhere = [sys.modules["qdini"], *modules.values()]
        for layer, mod in modules.items():
            for attr, val in list(vars(mod).items()):
                if attr.startswith("_") or getattr(val, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(val):
                    name = f"{layer}.{attr}"
                    if name in UNWRAPPED:
                        continue
                    wrapper = self._wrap(layer, name, val)
                    for m in everywhere:
                        for a2, v2 in list(vars(m).items()):
                            if v2 is val:
                                self._patch(m, a2, wrapper)
                elif inspect.isclass(val):
                    self._install_class(layer, val)
        self._install_cli(modules["cli"])
        for f in EIGENSOLVERS:
            self._patch(np.linalg, f, self._wrap("numpy", f"numpy.linalg.{f}", getattr(np.linalg, f)))

    def _install_class(self, layer, cls):
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_") and attr not in WRAPPED_DUNDERS:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(val, (classmethod, staticmethod)):
                self._patch(cls, attr, type(val)(self._wrap(layer, name, val.__func__)))
            elif inspect.isfunction(val):
                self._patch(cls, attr, self._wrap(layer, name, val))

    def _install_cli(self, cli_mod):
        group = cli_mod.main
        self._patch(group, "main", self._wrap("cli", "cli.main", group.main))
        for cmd_name, cmd in group.commands.items():
            self._patch(cmd, "callback", self._wrap("cli", f"cli.{cmd_name}", cmd.callback))

    def uninstall(self):
        for obj, attr, original in reversed(self._patches):
            if original is _MISSING:
                delattr(obj, attr)
            else:
                setattr(obj, attr, original)
        self._patches = []

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict:
        """Per-op layer metrics; every ratio is reported next to its base."""
        ops = max(self.ops, 1)

        def ratio(group, base):
            return self.group_eig[group] / base if base else 0.0

        out = {
            "operators.eigensolves": (self.entries["eig"] / ops, "count/op"),
            "operators.eigensolve_s": (self.inclusive_s["eig"] / ops, "s/op"),
            "operators.eig_d3_sum": (self.eig_d3 / ops, "count/op"),
            "operators.constructions": (self.entries["construct"] / ops, "count/op"),
            "operators.construct_s": (self.inclusive_s["construct"] / ops, "s/op"),
            "operators.dense_materializations": (self.dense_materializations / ops, "count/op"),
            "extreal.values": (self.entries["extreal_value"] / ops, "count/op"),
            "entropies.relative_entropy_calls": (self.entries["relative_entropy"] / ops, "count/op"),
            "entropies.eigensolves_per_relative_entropy":
                (ratio("relative_entropy", self.entries["relative_entropy"]), "eig/call"),
            "channels.mi_calls": (self.entries["mi"] / ops, "count/op"),
            "channels.eigensolves_per_mi": (ratio("mi", self.entries["mi"]), "eig/call"),
            "channels.max_state_dim": (self.mi_max_dim, "dim"),
            "truncation.spectral_truncations": (self.entries["spectral_truncation"] / ops, "count/op"),
            "truncation.eigensolves_per_truncation":
                (ratio("spectral_truncation", self.entries["spectral_truncation"]), "eig/call"),
            "truncation.schedule_s": (self.inclusive_s["schedule"] / ops, "s/op"),
            "verdicts.trend_summaries": (self.entries["trend"] / ops, "count/op"),
            "diagnostics.grid_cells": (self.grid_cells / ops, "count/op"),
            "diagnostics.eigensolves_per_cell": (ratio("gap_grid", self.grid_cells), "eig/cell"),
            "diagnostics.family_evals": (self.entries["family_eval"] / ops, "count/op"),
            "scenarios.estimate_s": (self.inclusive_s["estimate"] / ops, "s/op"),
            "scenarios.input_gen_s": (self.inclusive_s["input_gen"] / ops, "s/op"),
            "scenarios.report_bytes": (self.report_bytes / ops, "bytes/op"),
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (self.self_s[layer] / ops, "s/op")
            out[f"{layer}.errors"] = (self.errors[layer] / ops, "count/op")
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            for op_id, span_id, parent_id, name, start, end in self.spans:
                fh.write(json.dumps({"op": op_id, "id": span_id, "parent": parent_id,
                                     "name": name, "start": start, "end": end}) + "\n")


_MISSING = object()
