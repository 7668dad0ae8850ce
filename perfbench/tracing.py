"""Per-layer tracing from outside the library.

``Tracer`` wraps the public functions of each layer module while it is
active, patching every module binding of each function (so calls that go
through ``from .faces import in_same_belt`` are seen too), and restores
them on exit.  Span functions record (name, start, end, parent) into flat
arrays kept in memory; counted functions only bump counters.  Self times
are computed once, after the run.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

LAYERS = ("zgraph", "faces", "venkov", "dual", "symmetric", "oracle", "sweep")

# functions recorded as spans, by module
SPANS = {
    "zgraph": ("min_label_perm",),
    "faces": ("enumerate_facets", "in_same_belt", "enumerate_codim2"),
    "venkov": ("build_venkov", "belt_distance", "belt_diameter"),
    "dual": ("build_dual", "facet_adjacent", "dual_diameter", "check_diameter_bound"),
    "symmetric": ("enumerate_conjugate_classes", "red_blue_distance", "gen_odd_extremal",
                  "gen_even_extremal", "search_extremal", "search_d8_nonsymmetric"),
    "oracle": ("oracle_facets", "oracle_same_belt"),
    "sweep": ("run_sweep", "enumerate_connected_graphs", "sample_connected_graphs",
              "oracle_agrees"),
}
# functions only counted: too cheap or too frequent for a span each
COUNTED = {
    "symmetric": ("colored_key",),
    "oracle": ("exact_rank",),
    "sweep": ("canonical_key",),
}
SEARCHES = ("symmetric.search_extremal", "symmetric.search_d8_nonsymmetric")

# name -> unit of every per-layer metric, in report order
LAYER_METRICS = {
    "zgraph.min_label_perm.calls": "count",
    "zgraph.min_label_perm.self_s": "s",
    "zgraph.connected_in.calls": "count",
    "zgraph.connected_in.memo_hit_ratio": "ratio",
    "zgraph.ZGraph.constructed": "count",
    "faces.enumerate_facets.calls": "count",
    "faces.enumerate_facets.self_s": "s",
    "faces.in_same_belt.calls": "count",
    "faces.in_same_belt.self_s": "s",
    "faces.enumerate_codim2.self_s": "s",
    "venkov.build_venkov.self_s": "s",
    "venkov.belt_distance.calls": "count",
    "venkov.belt_distance.self_s": "s",
    "venkov.belt_distance.same_belt_tests_per_call": "count/call",
    "dual.build_dual.self_s": "s",
    "dual.facet_adjacent.calls": "count",
    "dual.facet_adjacent.self_s": "s",
    "symmetric.enumerate_conjugate_classes.self_s": "s",
    "symmetric.cross_completions.yielded": "count",
    "symmetric.colored_key.calls": "count",
    "symmetric.red_blue_distance.self_s": "s",
    "symmetric.search.nodes": "count",
    "symmetric.search.nodes_per_s": "1/s",
    "symmetric.search.found_ratio": "ratio",
    "oracle.oracle_facets.self_s": "s",
    "oracle.oracle_same_belt.calls": "count",
    "oracle.oracle_same_belt.self_s": "s",
    "oracle.exact_rank.calls": "count",
    "sweep.enumerate_connected_graphs.self_s": "s",
    "sweep.canonical_key.calls": "count",
    "sweep.oracle_agrees.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


class Spans:
    """Flat span storage: one entry per call, appended in start order."""

    def __init__(self):
        self.names: list[str] = []
        self.kind = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")

    def __len__(self):
        return len(self.start)

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def add(self, name: str, start: float, end: float, parent: int = -1) -> int:
        """Append a finished span (for hand-built trees); returns its index."""
        self.kind.append(self.name_id(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        return len(self.start) - 1


def self_times(spans: Spans) -> array:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to their parent's interval and overlaps between
    siblings count once.  Relies on spans being stored in start order, as
    the tracer records them.
    """
    start, end, parent = spans.start, spans.end, spans.parent
    own = array("d", end)
    reach = array("d", start)    # how far each span's children have covered it
    for i in range(len(start)):
        own[i] -= start[i]
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], reach[p])
        hi = min(end[i], end[p])
        if hi > lo:
            own[p] -= hi - lo
            reach[p] = hi
    return own


class Tracer:
    """Context manager that instruments the layer modules of ``lib``."""

    def __init__(self, lib):
        self.lib = lib
        self.spans = Spans()
        self.counts: Counter = Counter()
        self.searches: list[tuple[str, int]] = []   # (status, nodes) per search
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- patching ---------------------------------------------------------

    def _modules(self):
        return [getattr(self.lib, name) for name in LAYERS]

    def _rebind(self, original, replacement):
        """Point every module-level binding of ``original`` at ``replacement``."""
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def _patch_class(self, cls, attr, replacement):
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def __enter__(self):
        for layer, names in SPANS.items():
            for name in names:
                self._wrap(layer, name, self._span_wrapper)
        for layer, names in COUNTED.items():
            for name in names:
                self._wrap(layer, name, self._count_wrapper)
        self._wrap("symmetric", "cross_completions", self._yield_wrapper)
        zg = self.lib.zgraph.ZGraph
        self._patch_class(zg, "connected_in", self._connected_in_wrapper(zg.connected_in))
        self._patch_class(zg, "__init__", self._init_wrapper(zg.__init__))
        return self

    def __exit__(self, *exc):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()
        return False

    def _wrap(self, layer, name, make):
        fn = getattr(getattr(self.lib, layer), name, None)
        full = "%s.%s" % (layer, name)
        if fn is None:
            self.missing.append(full)
            return
        self._rebind(fn, functools.wraps(fn)(make(fn, full)))

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, fn, name):
        spans = self.spans
        nid = spans.name_id(name)
        kind, start, end, parent = spans.kind, spans.start, spans.end, spans.parent
        stack = self._stack
        clock = time.perf_counter
        searches = self.searches if name in SEARCHES else None

        def wrapper(*args, **kwargs):
            i = len(start)
            kind.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if searches is not None:
                searches.append((result.status, result.nodes))
            return result
        return wrapper

    def _count_wrapper(self, fn, name):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _yield_wrapper(self, fn, name):
        counts = self.counts
        key = name + ".yielded"

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[key] += 1
                yield item
        return wrapper

    def _connected_in_wrapper(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def connected_in(graph, mask):
            counts["zgraph.connected_in"] += 1
            memo = getattr(graph, "_conn", None)
            if memo is not None and mask in memo:
                counts["zgraph.connected_in.hits"] += 1
            return fn(graph, mask)
        return connected_in

    def _init_wrapper(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def __init__(graph, *args, **kwargs):
            counts["zgraph.ZGraph.constructed"] += 1
            fn(graph, *args, **kwargs)
        return __init__

    # -- results ----------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, total seconds and self seconds."""
        spans = self.spans
        own = self_times(spans)
        table = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in spans.names}
        kind, start, end = spans.kind, spans.start, spans.end
        for i in range(len(spans)):
            row = table[spans.names[kind[i]]]
            row["calls"] += 1
            row["self_s"] += own[i]
            if spans.parent[i] < 0 or spans.names[kind[spans.parent[i]]] != spans.names[kind[i]]:
                row["total_s"] += end[i] - start[i]
        return table

    def child_calls(self, child: str, parent: str) -> int:
        """Spans named ``child`` whose enclosing span is named ``parent``."""
        spans = self.spans
        names, kind, up = spans.names, spans.kind, spans.parent
        if child not in names or parent not in names:
            return 0
        c, p = names.index(child), names.index(parent)
        return sum(1 for i in range(len(spans)) if kind[i] == c and up[i] >= 0 and kind[up[i]] == p)

    def layer_metrics(self, table: dict, overhead_ratio: float) -> dict:
        """Every metric of LAYER_METRICS, from a ``summary()`` table."""
        counts = self.counts

        def span(name, field):
            return table.get(name, {}).get(field, 0)

        values = {}
        for metric in LAYER_METRICS:
            base, _, field = metric.rpartition(".")
            if field == "self_s":
                values[metric] = span(base, "self_s")
            elif field == "calls":
                values[metric] = span(base, "calls") if base in table else counts[base]
        values["zgraph.connected_in.memo_hit_ratio"] = _ratio(
            counts["zgraph.connected_in.hits"], counts["zgraph.connected_in"])
        values["zgraph.ZGraph.constructed"] = counts["zgraph.ZGraph.constructed"]
        values["symmetric.cross_completions.yielded"] = counts["symmetric.cross_completions.yielded"]
        values["venkov.belt_distance.same_belt_tests_per_call"] = _ratio(
            self.child_calls("faces.in_same_belt", "venkov.belt_distance"),
            span("venkov.belt_distance", "calls"))
        nodes = sum(n for _, n in self.searches)
        values["symmetric.search.nodes"] = nodes
        values["symmetric.search.nodes_per_s"] = _ratio(
            nodes, sum(span(name, "total_s") for name in SEARCHES))
        values["symmetric.search.found_ratio"] = _ratio(
            sum(1 for status, _ in self.searches if status == "found"), len(self.searches))
        values["trace.overhead_ratio"] = overhead_ratio
        return {m: {"value": values[m], "unit": unit} for m, unit in LAYER_METRICS.items()}

    def write(self, path: Path, header: dict, table: dict):
        """Write the span table and counters gathered during the run."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = dict(header, spans=len(self.spans), missing=self.missing,
                   counts=dict(self.counts), by_name=table)
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def warn_missing(tracer: Tracer):
    for name in tracer.missing:
        print("perfbench: %s not found, its metrics read 0" % name, file=sys.stderr)
