"""Spans around symsu's public functions, installed from outside the package.

``install`` replaces each traced function at every symsu module attribute
through which it is looked up (and ``Unitary.__init__`` on its class) by a
wrapper that records a span: name, start, end, parent span and request id.
Spans stay in memory until the run writes them out.  A layer's self time
is its span time minus the time of its child spans.
"""

import functools
import importlib
import json
import statistics
import time

import numpy as np


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _elements_checked(args, kwargs, result):
    group = _arg(args, kwargs, 1, "group")
    gens_only = _arg(args, kwargs, 3, "generators_only", False)
    checked = len(group.generators) if gens_only else len(group.elements)
    return {"elements_checked": checked, "generators": len(group.generators)}


# (module, attribute, counts(args, kwargs, result) -> {count: value} or None)
TARGETS = [
    ("paulis", "sum_to_matrix", lambda a, k, r: {"terms": len(a[0].terms)}),
    ("paulis", "sum_commutator",
     lambda a, k, r: {"term_pairs": len(a[0].terms) * len(a[1].terms), "out_terms": len(r.terms)}),
    ("basis", "in_span", None),
    ("basis", "closure_report", lambda a, k, r: {"pairs": r.pair_count}),
    ("basis", "build_basis", lambda a, k, r: {"strings": 4 ** a[0], "orbits": len(r)}),
    ("basis", "burnside_dimension", None),
    ("symmetry", "is_invariant", _elements_checked),
    ("symmetry", "symmetry_defect", None),
    ("symmetry", "generate_group", lambda a, k, r: {"elements": len(r)}),
    ("unitary_ops", "exp_generator", None),
    ("unitary_ops", "random_invariant", None),
    ("unitary_ops", "eig_unitary", None),
    ("unitary_ops", "connectedness_path", None),
    ("unitary_ops", "project_to_su", None),
    ("circuits", "synthesize_sum_exponential", lambda a, k, r: {"gates": len(r)}),
    ("circuits", "circuit_to_matrix", lambda a, k, r: {"gates": len(a[0])}),
    ("serialize", "load_matrix", lambda a, k, r: {"entries": int(r.size)}),
    ("serialize", "save_matrix", lambda a, k, r: {"entries": int(np.asarray(a[1]).size)}),
    ("cli", "cmd_verify", None),
    ("cli", "cmd_basis", None),
    ("cli", "cmd_dim", None),
    ("cli", "cmd_check", None),
    ("cli", "cmd_path", None),
]
UNITARY = "unitary_ops.Unitary"
MODULES = ("paulis", "symmetry", "basis", "unitary_ops", "circuits", "serialize", "cli")

# The per-layer metrics a traced run reports, with their units.  Each
# "<layer>.<function>.<stat>" value is per traced cycle (one set-up of the
# workload's inputs plus one pass), the median over the cycles of the run.
PER_LAYER = (
    [("paulis.sum_to_matrix." + s, u) for s, u in
     (("calls", "count"), ("self_s", "s"), ("terms", "count"))]
    + [("paulis.sum_commutator." + s, u) for s, u in
       (("calls", "count"), ("self_s", "s"), ("term_pairs", "count"), ("out_terms", "count"))]
    + [("basis.in_span.calls", "count"), ("basis.in_span.self_s", "s"),
       ("basis.closure_report.self_s", "s"), ("basis.closure_report.pairs", "count")]
    + [("symmetry.is_invariant." + s, u) for s, u in
       (("calls", "count"), ("self_s", "s"), ("elements_checked", "count"),
        ("generator_ratio", "ratio"))]
    + [("symmetry.symmetry_defect.calls", "count"), ("symmetry.symmetry_defect.self_s", "s")]
    + [("symmetry.generate_group." + s, u) for s, u in
       (("calls", "count"), ("self_s", "s"), ("elements", "count"), ("errors", "count"))]
    + [("basis.build_basis." + s, u) for s, u in
       (("calls", "count"), ("self_s", "s"), ("strings", "count"), ("orbits", "count"))]
    + [("basis.burnside_dimension.calls", "count"), ("basis.burnside_dimension.self_s", "s")]
    + [(f"unitary_ops.{f}.{s}", u)
       for f in ("exp_generator", "random_invariant", "eig_unitary", "connectedness_path",
                 "project_to_su", "Unitary")
       for s, u in (("calls", "count"), ("self_s", "s"))]
    + [(f"circuits.{f}.{s}", u)
       for f in ("synthesize_sum_exponential", "circuit_to_matrix")
       for s, u in (("calls", "count"), ("self_s", "s"), ("gates", "count"))]
    + [(f"serialize.{f}.{s}", u)
       for f in ("load_matrix", "save_matrix")
       for s, u in (("calls", "count"), ("self_s", "s"), ("entries", "count"))]
    + [(f"cli.cmd_{c}.self_s", "s") for c in ("verify", "basis", "dim", "check", "path")]
    + [("process.cpu_s", "s"), ("trace.overhead_ratio", "ratio")]
)


class Tracer:
    """In-memory span recorder for one synchronous thread of calls.

    A span is [name, parent, request, start, end, counts, error], parent
    being the index of the enclosing span or -1.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self._request = -1
        self._next_request = 0

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, self._request, time.perf_counter(), 0.0, None, False])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int, counts=None, error: bool = False):
        span = self.spans[index]
        span[4] = time.perf_counter()
        span[5] = counts
        span[6] = error
        self._stack.pop()

    def begin_request(self, label: str) -> int:
        """Open the root span of one request; its spans share a request id."""
        self._request = self._next_request
        self._next_request += 1
        return self.open("request:" + label)

    def end_request(self, index: int):
        self.close(index)
        self._request = -1

    def wrap(self, name: str, fn, counts):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(index, error=True)
                raise
            self.close(index, counts(args, kwargs, result) if counts else None)
            return result
        return traced

    def write(self, path):
        """One JSON line per span."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, parent, request, start, end, counts, error in self.spans:
                fh.write(json.dumps({"name": name, "parent": parent, "request": request,
                                     "start": start, "end": end, "counts": counts,
                                     "error": error}) + "\n")


def install(tracer: Tracer):
    """Wrap every target; returns a function that puts the originals back."""
    modules = [importlib.import_module("symsu")]
    modules += [importlib.import_module("symsu." + m) for m in MODULES]
    undo = []
    for home, attr, counts in TARGETS:
        original = getattr(importlib.import_module("symsu." + home), attr)
        wrapper = tracer.wrap(f"{home}.{attr}", original, counts)
        for module in modules:
            if module.__dict__.get(attr) is original:
                setattr(module, attr, wrapper)
                undo.append((module, attr, original))
    unitary = importlib.import_module("symsu.unitary_ops").Unitary
    undo.append((unitary, "__init__", unitary.__init__))
    unitary.__init__ = tracer.wrap(UNITARY, unitary.__init__, None)

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
    return uninstall


def self_times(spans, first: int, last: int) -> dict:
    """Per-name totals over spans[first:last]: calls, self_s, errors and counts."""
    child_time = [0.0] * (last - first)
    for span in spans[first:last]:
        if span[1] >= first:
            child_time[span[1] - first] += span[4] - span[3]
    totals = {}
    for offset, (name, _, _, start, end, counts, error) in enumerate(spans[first:last]):
        entry = totals.setdefault(name, {"calls": 0, "self_s": 0.0, "errors": 0})
        entry["calls"] += 1
        entry["self_s"] += (end - start) - child_time[offset]
        entry["errors"] += int(error)
        for key, value in (counts or {}).items():
            entry[key] = entry.get(key, 0) + value
    return totals


def layer_metrics(cycles: list[dict], cpu_s: list[float], overhead: float) -> dict:
    """PER_LAYER values from the per-cycle totals of ``self_times``."""
    inv = [c.get("symmetry.is_invariant", {}) for c in cycles]
    checked = sum(e.get("elements_checked", 0) for e in inv)
    derived = {
        "symmetry.is_invariant.generator_ratio":
            sum(e.get("generators", 0) for e in inv) / checked if checked else 0.0,
        "process.cpu_s": statistics.median(cpu_s),
        "trace.overhead_ratio": overhead,
    }
    values = {}
    for metric, _ in PER_LAYER:
        if metric in derived:
            values[metric] = derived[metric]
        else:
            layer, stat = metric.rsplit(".", 1)
            values[metric] = statistics.median(c.get(layer, {}).get(stat, 0) for c in cycles)
    return values
