"""Per-layer spans around the public methods of the index's objects.

The wrappers are installed on the classes for the duration of one
traced replay and removed afterwards, so nothing under `src/` changes
and the untraced runs pay nothing.  A span's self time is its duration
minus the durations of the spans it called, wrappers included, so no
self time holds tracing work and the self times add up to less than the
traced stream's wall time.  Observers turn selected
return values into counts (probes, visited vertices, crossings, ...).
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

# (span name, module, class, method); the span's layer is its first part.
SPANS = (
    ("graph.add_edge", "graph", "DynamicGraph", "add_edge"),
    ("graph.remove_edge", "graph", "DynamicGraph", "remove_edge"),
    ("graph.has_edge", "graph", "DynamicGraph", "has_edge"),
    ("spanning_forest.delete_edge", "spanning_forest", "SpanningForest", "delete_edge"),
    ("spanning_forest.insert_nontree", "spanning_forest", "SpanningForest", "insert_nontree"),
    ("spanning_forest.find_root", "spanning_forest", "SpanningForest", "find_root"),
    ("spanning_forest.link", "spanning_forest", "SpanningForest", "link"),
    ("spanning_forest.unlink", "spanning_forest", "SpanningForest", "unlink"),
    ("spanning_forest.reroot", "spanning_forest", "SpanningForest", "reroot"),
    ("disjoint_set.same_set", "disjoint_set", "DisjointSetForest", "same_set"),
    ("disjoint_set.find", "disjoint_set", "DisjointSetForest", "find"),
    ("disjoint_set.link", "disjoint_set", "DisjointSetForest", "link"),
    ("disjoint_set.unlink", "disjoint_set", "DisjointSetForest", "unlink"),
    ("disjoint_set.isolate", "disjoint_set", "DisjointSetForest", "isolate"),
    ("disjoint_set.reroot", "disjoint_set", "DisjointSetForest", "reroot"),
    ("connectivity.insert", "connectivity", "ConnectivityIndex", "insert"),
    ("connectivity.delete", "connectivity", "ConnectivityIndex", "delete"),
    ("connectivity.connected", "connectivity", "ConnectivityIndex", "connected"),
    ("two_edge.insert2", "two_edge", "TwoEdgeIndex", "insert2"),
    ("two_edge.delete2", "two_edge", "TwoEdgeIndex", "delete2"),
    ("two_edge.two_edge_connected", "two_edge", "TwoEdgeIndex", "two_edge_connected"),
    ("two_edge.getrep", "two_edge", "TwoEdgeForest", "getrep"),
    ("two_edge.orient_cut", "two_edge", "TwoEdgeForest", "orient_cut"),
    ("two_edge.cut_bridge", "two_edge", "TwoEdgeForest", "cut_bridge"),
    ("two_edge.link", "two_edge", "TwoEdgeForest", "link"),
    ("two_edge.reroot", "two_edge", "TwoEdgeForest", "reroot"),
    ("two_edge.class_union", "two_edge", "SizedDisjointSet", "union"),
    ("two_edge.class_isolate", "two_edge", "SizedDisjointSet", "isolate"),
    ("two_edge.class_reroot", "two_edge", "SizedDisjointSet", "reroot"),
)

LAYERS = ("graph", "spanning_forest", "disjoint_set", "connectivity", "two_edge")


class Tracer:
    """Self time and call count per span, plus observer-derived counts."""

    def __init__(self, package):
        self.package = package
        self.self_ns = defaultdict(int)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.absent = []  # spans whose method does not exist in this build
        self._stack = [0]  # per open span: time spent in its child spans

    def _wrap(self, name, fn):
        clock = time.perf_counter_ns
        stack = self._stack
        self_ns = self.self_ns
        calls = self.calls
        observe = _OBSERVERS.get(name)
        before = _BEFORE.get(name)
        counts = self.counts

        def span(*args, **kwargs):
            t_in = clock()
            pre = before(*args) if before else None
            stack.append(0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self_ns[name] += clock() - t0 - stack.pop()
                calls[name] += 1
            if observe:
                observe(counts, result, pre)
            # the whole wrapper, hooks included, is child time of the caller,
            # so no span's self time contains tracing work
            stack[-1] += clock() - t_in
            return result

        return span

    @contextmanager
    def installed(self):
        """Wrap every span's method on its class; restore on exit."""
        undo = []
        try:
            for name, module, cls_name, method in SPANS:
                mod = getattr(self.package, module, None)
                cls = getattr(mod, cls_name, None)
                fn = vars(cls).get(method) if cls is not None else None
                if fn is None:
                    self.absent.append(name)
                    continue
                setattr(cls, method, self._wrap(name, fn))
                undo.append((cls, method, fn))
            yield self
        finally:
            for cls, method, fn in reversed(undo):
                setattr(cls, method, fn)


def _tree_delete(counts, out, _pre):
    if out.kind.name != "NONTREE":
        counts["forest_tree_deletes"] += 1
        counts["forest_probes"] += out.probes
        counts["forest_visited"] += len(out.visited)
        counts["forest_replaced"] += bool(out.replaced)


def _nontree(counts, result, _pre):
    counts["nontree_inserts"] += 1
    counts["nontree_rewired"] += result[0].name == "NONTREE_REWIRED"


def _crossings(counts, crossing, _pre):
    counts["getrep_calls"] += 1
    counts["crossings"] += len(crossing)


def _union(counts, _result, pre):
    counts["class_merges"] += pre


# the roots are read without compression, so observing changes nothing
_BEFORE = {
    "two_edge.class_union": lambda sets, u, v: sets.peek_root(u) != sets.peek_root(v),
}
_OBSERVERS = {
    "spanning_forest.delete_edge": _tree_delete,
    "spanning_forest.insert_nontree": _nontree,
    "two_edge.getrep": _crossings,
    "two_edge.class_union": _union,
}
