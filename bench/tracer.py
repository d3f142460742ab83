"""Traced runs: spans around facet's public functions, reduced to self time.

Each wrapped function is replaced both as a module (or class) attribute
and as the binding in every facet module that imported it, so calls made
inside facet are seen as well as the benchmark's own.  A span has a name,
start, end, parent and the instance that caused it.  Self time is a
span's duration minus the durations of its direct children; it and the
call count are summed per name as spans close, and the spans themselves
are kept for the first traced pass and written out when the run ends.
"""

from __future__ import annotations

import json
import sys
import time

# span name -> (module, attribute) pairs it covers; "Class.attr" names a method.
TARGETS = {
    "cli.main": [("facet.cli", "main")],
    "embedding.parse_peg": [("facet.embedding", "parse_peg")],
    "embedding.build": [("facet.embedding", "EmbeddedGraph.build")],
    "embedding.surgery": [
        ("facet.embedding", name)
        for name in (
            "delete_edge", "delete_vertex", "contract_edge",
            "contract_face", "identify_edges", "subdivide_edge",
        )
    ],
    "embedding.faces": [("facet.embedding", "EmbeddedGraph.faces")],
    "embedding.gap_table": [
        ("facet.embedding", "EmbeddedGraph.edge_gap_table"),
        ("facet.embedding", "EmbeddedGraph.vertex_gap_table"),
    ],
    "embedding.facial_distance": [("facet.embedding", "facial_distance")],
    "embedding.facial_neighborhood": [("facet.embedding", "facial_neighborhood")],
    "embedding.face_profiles": [("facet.embedding", "face_profiles")],
    "facial_coloring.conflict_graph": [("facet.facial_coloring", "conflict_graph")],
    "facial_coloring.chromatic_index": [("facet.facial_coloring", "chromatic_index")],
    "facial_coloring.verify": [("facet.facial_coloring", "verify")],
    "nullstellensatz.coefficient": [
        ("facet.nullstellensatz", "graph_polynomial_coefficient"),
        ("facet.nullstellensatz", "coefficient"),
    ],
    "nullstellensatz.witness": [("facet.nullstellensatz", "cn_witness")],
    "choosability.degree_feasible": [("facet.choosability", "degree_feasible_colorable")],
    "choosability.list_color": [("facet.choosability", "list_color")],
    "choosability.gallai": [("facet.choosability", "is_gallai_tree")],
    "choosability.blocks": [("facet.choosability", "blocks")],
    "reducibility.check": [("facet.reducibility", "check")],
    "discharging.initial_charges": [("facet.discharging", "initial_charges")],
    "discharging.apply_rules": [("facet.discharging", "apply_rules")],
    "discharging.structure_report": [("facet.discharging", "structure_report")],
}

# Counts read off a span's return value: span name -> (counter, function).
RESULT_COUNTS = {"reducibility.check": ("reducibility.steps", lambda r: len(r.steps))}


class Tracer:
    def __init__(self) -> None:
        self.self_s = {name: 0.0 for name in TARGETS}
        self.calls = {name: 0 for name in TARGETS}
        self.counts = {counter: 0 for counter, _ in RESULT_COUNTS.values()}
        self.spans: list[tuple] = []
        self.keep = True
        self.instance = -1
        self._stack: list[list] = []
        self._next_id = 0
        self._undo: list[tuple] = []

    def _wrap(self, name: str, fn):
        stack, clock = self._stack, time.perf_counter
        counter, count_of = RESULT_COUNTS.get(name, (None, None))

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            frame = [clock(), 0.0, span_id]
            parent = stack[-1][2] if stack else -1
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[0]
                if stack:
                    stack[-1][1] += duration
                self.self_s[name] += duration - frame[1]
                self.calls[name] += 1
                if self.keep:
                    self.spans.append((span_id, parent, name, frame[0], end, self.instance))
            if counter is not None:
                self.counts[counter] += count_of(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target in the facet modules currently imported."""
        modules = [m for n, m in sys.modules.items() if n == "facet" or n.startswith("facet.")]
        for name, targets in TARGETS.items():
            for module_name, attr in targets:
                owner = sys.modules[module_name]
                if "." in attr:
                    cls_name, attr = attr.split(".")
                    cls = getattr(owner, cls_name)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, staticmethod):
                        setattr(cls, attr, staticmethod(self._wrap(name, raw.__func__)))
                    else:
                        setattr(cls, attr, self._wrap(name, raw))
                    self._undo.append((cls, attr, raw))
                    continue
                original = getattr(owner, attr)
                traced = self._wrap(name, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, traced)
                            self._undo.append((module, key, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def write_spans(self, path) -> None:
        """One JSON array per line: id, parent id (-1 at the top), name,
        start and end in perf_counter seconds, instance index."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
