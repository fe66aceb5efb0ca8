"""Fully dynamic connectivity with constant-time queries.

Two structures run side by side over one graph: a spanning forest that
knows how to place and replace edges, and a disjoint-set forest that
answers queries in amortized O(1).  The coupling invariant is that each
component's spanning-tree root is also its set representative, so the
set forest can be patched in O(1) after any structural change instead
of being rebuilt:

* tree-edge insert: link the two set roots, mirroring the forest link;
* deletion that found a replacement: the component survives, only its
  root may have moved, so at most one reroot;
* deletion that split: the search already named every vertex of the
  smaller half, and rerooting the set at the big half's tree root names
  the set root, so one split_off carves the small half out with no find:
  each of its vertices takes a fresh set record, leaving its old one
  behind as a ghost, O(1) per vertex amortized over the set forest's
  rebuilds.

IndexBase holds what this index shares with the 2-edge index, whose set
forest is also named `dsets`: the structures, the workload counters,
partition() and counters().
"""

from __future__ import annotations

from .disjoint_set import DisjointSetForest
from .errors import DuplicateEdge, EdgeAbsent, InvariantError, OutOfRange
from .graph import DynamicGraph
from .spanning_forest import DeleteKind, InsertKind, SpanningForest


class IndexBase:
    """What both indexes share: the graph, a spanning forest over it, the
    set forest `dsets` whose partition is the indexed relation, and the
    workload counters.  Each index names its forest and set classes."""

    def __init__(self, n: int, forest_cls, sets_cls):
        self.graph = DynamicGraph(n)
        self.forest = forest_cls(self.graph)
        self.dsets = sets_cls(n)
        # workload statistics, accumulated over tree-edge deletions
        self.tree_deletes = 0
        self.splits = 0
        self.split_visited_total = 0
        self.probe_total = 0
        # non-tree inserts that rewired the tree
        self.rewires = 0

    def partition(self) -> list:
        """Set representative of every vertex, read without compressing
        or counting."""
        peek = self.dsets.peek_root
        return [peek(v) for v in range(self.graph.n)]

    def counters(self) -> dict:
        return {
            "tree_deletes": self.tree_deletes,
            "splits": self.splits,
            "split_visited_total": self.split_visited_total,
            "probe_total": self.probe_total,
            "rewires": self.rewires,
            **self.dsets.counters(),
        }


class ConnectivityIndex(IndexBase):
    """Connectivity: `dsets` holds one set per component, represented by
    the component's spanning-tree root."""

    mode = "conn"

    def __init__(self, n: int):
        super().__init__(n, SpanningForest, DisjointSetForest)

    def insert(self, u: int, v: int) -> InsertKind:
        if not self.graph.add_edge(u, v):
            raise DuplicateEdge(f"edge ({u}, {v}) already present")
        ds = self.dsets
        ru = ds.find(u)
        rv = ds.find(v)
        f = self.forest
        if ru == rv:
            kind, root = f.insert_nontree(u, v)
            if kind is InsertKind.NONTREE_REWIRED:
                self.rewires += 1
            if root != ru:
                ds.reroot(root)
            return kind
        size = f.size
        if size[ru] > size[rv]:
            u, v, ru, rv = v, u, rv, ru
        ds.link(ru, rv)
        root = f.link(u, v, rv)
        if root != rv:
            ds.reroot(root)
        return InsertKind.TREE_EDGE

    def delete(self, u: int, v: int) -> DeleteKind:
        if not self.graph.remove_edge(u, v):
            raise EdgeAbsent(f"edge ({u}, {v}) not present")
        out = self.forest.delete_edge(u, v)
        if out.kind is DeleteKind.NONTREE:
            return out.kind
        ds = self.dsets
        ds.reroot(out.big_root)
        self.tree_deletes += 1
        self.probe_total += out.probes
        if out.kind is DeleteKind.TREE_SPLIT:
            self.splits += 1
            self.split_visited_total += len(out.visited)
            ds.split_off(out.small_root, out.visited, out.big_root)
        return out.kind

    def connected(self, u: int, v: int) -> bool:
        n = self.graph.n
        try:
            if 0 <= u < n and 0 <= v < n:
                return self.dsets.same_set(u, v)
        except TypeError:  # a non-int id fails before anything changes
            pass
        raise OutOfRange(f"query ({u}, {v})")

    query = connected

    def stats(self) -> dict:
        f = self.forest
        roots = f.roots()
        return {
            "vertices": self.graph.n,
            "edges": self.graph.m,
            "components": len(roots),
            "largest_component": max((f.size[r] for r in roots), default=0),
            "avg_depth": f.average_depth(),
        }

    def _audit(self):
        # every spanning-tree root must be its own set representative,
        # read by peek_root so the audit neither compresses nor counts
        for r in self.forest.roots():
            if self.dsets.peek_root(r) != r:
                raise InvariantError(f"tree root {r} is not its set representative")
