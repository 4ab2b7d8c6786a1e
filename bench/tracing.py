"""Span recorder that times qfnn's layers from outside the package.

The package's modules import each other's functions by name
(``from .gates import apply_single``), so a function is wrapped in every
qfnn namespace that holds it, not only where it is defined.  Classes are
never rebound, since ``isinstance`` checks inside the package would then
fail; their constructors are timed by wrapping ``__init__`` instead.

Spans stay in memory as (id, name, start, end, parent id, op id) and are
written as JSON lines once the run is over.  Only the first ``SPAN_OPS``
traced ops keep their spans (a ``scenario`` op makes about 10,000); the
per-function totals cover every traced op.  A span's self time is its
duration minus the durations of its direct children; the package is
single-threaded, so children never overlap.
"""

from __future__ import annotations

import importlib
import inspect
import json
from collections import defaultdict
from time import perf_counter

#: The package's layers, lowest first.
LAYERS = ("qstate", "gates", "boolfn", "network", "environment", "analysis", "cli")
CONSTRUCTORS = (("qstate", "StateVector"), ("qstate", "DensityMatrix"))
SPAN_OPS = 4


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# Work counts recorded at the span boundary: name -> f(args, kwargs, result).
COUNTERS = {
    "qstate.StateVector": lambda a, k, r: {
        "amps_validated": 2 ** int(_arg(a, k, 1, "n_qubits"))},
    "qstate.DensityMatrix": lambda a, k, r: {
        "entries_validated": 4 ** int(_arg(a, k, 1, "n_qubits"))},
    "boolfn.synaptic_permutation": lambda a, k, r: {
        "indices": 2 ** int(_arg(a, k, 3, "n_qubits"))},
    "environment.packet_grid_values": lambda a, k, r: {
        "nodes": _arg(a, k, 1, "grid").points_per_axis ** 4
        * len(_arg(a, k, 0, "packet").modes)},
    "network.branch_amplitudes": lambda a, k, r: {
        "kept": len(r), "scanned": 2 ** _arg(a, k, 0, "state").n_qubits},
}


class Tracer:
    """Collects spans and per-function totals while installed."""

    def __init__(self):
        self.spans = []
        self.stats = defaultdict(lambda: defaultdict(float))
        self.op_id = None
        self.traced_ops = 0
        self._stack = []
        self._next_id = 0
        self._patches = []

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        stack, spans, stats = self._stack, self.spans, self.stats

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [self._next_id, 0.0]
            self._next_id += 1
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                row = stats[name]
                row["calls"] += 1
                row["total_s"] += duration
                row["self_s"] += duration - frame[1]
                if self.traced_ops <= SPAN_OPS:
                    spans.append((frame[0], name, start, end,
                                  parent[0] if parent else None, self.op_id))
            if counter is not None:
                for measure, value in counter(args, kwargs, result).items():
                    row[measure] += value
            return result

        return traced

    def install(self, op_id) -> None:
        """Wrap every public function of every layer, and the two constructors."""
        self.op_id = op_id
        self.traced_ops += 1
        package = importlib.import_module("qfnn")
        modules = {layer: importlib.import_module(f"qfnn.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrapped[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for mod in (package, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        for layer, cls_name in CONSTRUCTORS:
            cls = getattr(modules[layer], cls_name)
            init = cls.__dict__["__init__"]
            self._patches.append((cls, "__init__", init))
            cls.__init__ = self._wrap(f"{layer}.{cls_name}", init)

    def uninstall(self) -> None:
        """Put every original function back."""
        while self._patches:
            target, attr, obj = self._patches.pop()
            setattr(target, attr, obj)

    def layer_self_s(self) -> dict[str, float]:
        """Self time summed over each layer's functions."""
        out = dict.fromkeys(LAYERS, 0.0)
        for name, row in self.stats.items():
            out[name.split(".", 1)[0]] += row["self_s"]
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start,
                                     "end": end, "parent": parent, "op": op}) + "\n")
