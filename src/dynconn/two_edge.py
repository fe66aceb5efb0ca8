"""Fully dynamic 2-edge connectivity.

The spanning forest grows one counter per tree edge: how many non-tree
edges route their tree path across it.  Stored at the child endpoint,
the counter is zero exactly when the edge is a bridge, so two vertices
are 2-edge connected iff walking up through positive counters lands
them at the same vertex.

Counter maintenance never touches depths: both endpoints of an edge
walk toward their lowest common ancestor, always advancing whichever
pointer owns the smaller subtree (sizes strictly grow upward, so the
pointers cannot overshoot the meeting point).

On top of the forest sits a second disjoint-set forest, one set per
2-edge class with member counts.  A counter rising off zero merges two
classes; a counter falling to zero carves the child's side out into a
class of its own.
"""

from __future__ import annotations

from collections import deque

from .disjoint_set import DisjointSetForest
from .errors import DuplicateEdge, EdgeAbsent, HasReplacements, OutOfRange, RepUnderflow
from .graph import DynamicGraph
from .spanning_forest import DeleteKind, InsertKind, SpanningForest


class TwoEdgeForest(SpanningForest):
    """Spanning forest whose tree edges count their non-tree covers."""

    def __init__(self, graph):
        super().__init__(graph)
        self.rep = [0] * graph.n

    # -- primitives, counter-aware ---------------------------------------

    def reroot(self, u):
        """Reverse u's root path; each flipped edge keeps its counter by
        swapping it between the old and new storing endpoints."""
        parent = self.parent
        if parent[u] == -1:
            return u
        size = self.size
        rep = self.rep
        path = [u]
        p = parent[u]
        while p != -1:
            path.append(p)
            p = parent[p]
        for i in range(len(path) - 2, -1, -1):
            x = path[i]
            y = path[i + 1]
            sy = size[y] - size[x]
            size[y] = sy
            size[x] += sy
            parent[y] = x
            rep[x], rep[y] = rep[y], rep[x]
        parent[u] = -1
        return u

    def link(self, u, v, root_v):
        self.rep[u] = 0  # a fresh tree edge is not covered by anything
        return super().link(u, v, root_v)

    def cut_bridge(self, u, v):
        """Remove tree edge (u, v), v being u's parent.  Only bridges
        (counter zero) may be cut; covered edges are cut by the index,
        which withdraws their covers first."""
        parent = self.parent
        if parent[u] != v:
            raise ValueError(f"({u}, {v}) is not a child-to-parent tree edge")
        if self.rep[u] != 0:
            raise HasReplacements(f"({u}, {v}) is still covered {self.rep[u]} times")
        parent[u] = -1
        su = self.size[u]
        size = self.size
        w = v
        while w != -1:
            size[w] -= su
            w = parent[w]

    # -- class queries -----------------------------------------------------

    def ecc_root(self, u):
        """Highest ancestor reachable from u through covered edges; two
        vertices share it iff they are 2-edge connected."""
        parent = self.parent
        rep = self.rep
        while rep[u] != 0:
            u = parent[u]
        return u

    def query2(self, u, v):
        n = len(self.parent)
        if not (0 <= u < n and 0 <= v < n):
            raise OutOfRange(f"query ({u}, {v})")
        return self.ecc_root(u) == self.ecc_root(v)

    # -- tree-edge deletion support ------------------------------------------

    def orient_cut(self, u, v):
        """Prepare tree edge (u, v) for cutting: ensure the child side is
        the smaller one (rerooting the tree when it is not) and return
        (child, root of the surviving big side)."""
        parent = self.parent
        if parent[v] == u:
            u, v = v, u
        if parent[u] != v:
            raise ValueError(f"({u}, {v}) is not a tree edge")
        root = self._root(v)
        if 2 * self.size[u] > self.size[root]:
            self.reroot(u)
            return v, u
        return u, root

    def getrep(self, small_root, big_root, cut):
        """Non-tree edges crossing the pending cut, in discovery order.

        Scans the small side breadth-first.  The cut edge itself never
        crosses: from the child it is the skipped parent edge, and it is
        filtered by key regardless, so the adjacency may still hold it.
        Edges are deduplicated in canonical (min, max) form; edges
        internal to the small side are dropped.
        """
        parent = self.parent
        adj = self.graph.adj
        seen = {small_root}
        found = {}
        queue = deque((small_root,))
        while queue:
            x = queue.popleft()
            px = parent[x]
            for y in adj[x]:
                if y == px:
                    continue
                if parent[y] == x:
                    queue.append(y)
                    seen.add(y)
                else:
                    found[(x, y) if x < y else (y, x)] = None
        assert big_root not in seen, "small-side scan leaked across the cut"
        ckey = (cut[0], cut[1]) if cut[0] < cut[1] else (cut[1], cut[0])
        return [
            e for e in found
            if e != ckey and ((e[0] in seen) != (e[1] in seen))
        ]


class SizedDisjointSet(DisjointSetForest):
    """Disjoint sets carrying member counts through union/isolate/reroot."""

    def __init__(self, n):
        super().__init__(n)
        self.dsize = [1] * n

    def union(self, u, v):
        """Merge the sets of u and v, smaller under larger; returns the
        surviving representative.  Already-merged is a no-op."""
        ru = self.find(u)
        rv = self.find(v)
        if ru == rv:
            return ru
        dsize = self.dsize
        if dsize[rv] <= dsize[ru]:
            ru, rv = rv, ru
        self.link(ru, rv)
        dsize[rv] += dsize[ru]
        return rv

    def isolate(self, u):
        r = super().isolate(u)
        self.dsize[r] -= 1
        self.dsize[u] = 1
        return r

    def reroot(self, u):
        r = self.find(u)
        if r == u:
            return u
        self._swap_owner(u, r)
        self.dsize[u] = self.dsize[r]
        return u


class TwoEdgeIndex:
    """Dynamic 2-edge connectivity with constant-time queries.

    The covered forest decides everything structural; the class sets
    shadow its counter transitions so two_edge_connected() is a pair of
    set lookups.  Unlike plain connectivity there is no root pairing to
    maintain between the two structures: class representatives roam
    freely.
    """

    def __init__(self, n: int):
        self.graph = DynamicGraph(n)
        self.forest = TwoEdgeForest(self.graph)
        self.csets = SizedDisjointSet(n)

    def insert2(self, u: int, v: int) -> InsertKind:
        if not self.graph.add_edge(u, v):
            raise DuplicateEdge(f"edge ({u}, {v}) already present")
        return self._place(u, v)

    def delete2(self, u: int, v: int) -> DeleteKind:
        # validated (range, self-loop, presence) before the forest arrays
        # are indexed, so bad input raises before anything changes
        if not self.graph.has_edge(u, v):
            raise EdgeAbsent(f"edge ({u}, {v}) not present")
        f = self.forest
        if f.parent[u] == v or f.parent[v] == u:
            # the adjacency keeps the edge until the bridge is cut: while
            # covers are being withdrawn it is still a tree edge, and the
            # class-split scans must be able to walk through it
            out = self._cut_tree_edge(u, v)
            self.graph.remove_edge(u, v)
            return out
        self.graph.remove_edge(u, v)
        self._uncover(u, v)
        return DeleteKind.NONTREE

    def two_edge_connected(self, u: int, v: int) -> bool:
        n = self.graph.n
        if not (0 <= u < n and 0 <= v < n):
            raise OutOfRange(f"query ({u}, {v})")
        return self.csets.same_set(u, v)

    def connected(self, u: int, v: int) -> bool:
        """Plain connectivity, by root walks (no set forest for this here)."""
        return self.forest.query(u, v)

    def partition(self) -> list:
        """Class representative of every vertex, read without compressing
        or counting."""
        peek = self.csets.peek_root
        return [peek(v) for v in range(self.graph.n)]

    def counters(self) -> dict:
        return self.csets.counters()

    def stats(self) -> dict:
        f = self.forest
        n = self.graph.n
        sets = self.csets
        reps = sets.root_vertices()
        parent = f.parent
        rep = f.rep
        return {
            "vertices": n,
            "edges": self.graph.m,
            "classes": len(reps),
            "largest_class": max((sets.dsize[r] for r in reps), default=0),
            "bridges": sum(1 for x in range(n) if parent[x] != -1 and rep[x] == 0),
            "avg_depth": f.average_depth(),
        }

    # -- internals ------------------------------------------------------------

    def _place(self, u, v):
        """Forest placement plus class merges on every 0 -> 1 counter."""
        f = self.forest
        ru = f._root(u)
        rv = f._root(v)
        if ru != rv:
            if f.size[ru] > f.size[rv]:
                u, v, ru, rv = v, u, rv, ru
            f.reroot(u)
            f.link(u, v, rv)
            return InsertKind.TREE_EDGE
        parent = f.parent
        size = f.size
        rep = f.rep
        sets = self.csets
        fu, fv = u, v
        while fu != fv:
            if size[fu] < size[fv]:
                r = rep[fu] + 1
                rep[fu] = r
                if r == 1:
                    sets.union(fu, parent[fu])
                fu = parent[fu]
            else:
                r = rep[fv] + 1
                rep[fv] = r
                if r == 1:
                    sets.union(fv, parent[fv])
                fv = parent[fv]
        return InsertKind.NONTREE_NOOP

    def _uncover(self, u, v):
        """Covering walk in reverse, splitting a class at every 1 -> 0."""
        f = self.forest
        parent = f.parent
        size = f.size
        rep = f.rep
        fu, fv = u, v
        while fu != fv:
            if size[fu] < size[fv]:
                r = rep[fu] - 1
                if r < 0:
                    raise RepUnderflow(f"cover count below zero above {fu}")
                rep[fu] = r
                if r == 0:
                    self._split_class(fu)
                fu = parent[fu]
            else:
                r = rep[fv] - 1
                if r < 0:
                    raise RepUnderflow(f"cover count below zero above {fv}")
                rep[fv] = r
                if r == 0:
                    self._split_class(fv)
                fv = parent[fv]

    def _split_class(self, w):
        """The tree edge above w just became a bridge: w's side of it moves
        into a class of its own.  The old class keeps its representative on
        the surviving side (rerooted there first so no root is ever pulled
        out), and every member below w follows w into the new set."""
        f = self.forest
        parent = f.parent
        rep = f.rep
        sets = self.csets
        sets.reroot(parent[w])
        sets.isolate(w)
        adj = self.graph.adj
        queue = deque((w,))
        while queue:
            x = queue.popleft()
            for y in adj[x]:
                if parent[y] == x and rep[y] > 0:
                    queue.append(y)
                    sets.isolate(y)
                    sets.union(y, w)

    def _cut_tree_edge(self, u, v):
        # every crossing edge is withdrawn (splitting classes as covers
        # hit zero), the bare bridge is cut, and the crossers come back
        # one by one (merging classes as covers leave zero).  Tempting
        # shortcut that does NOT work: skipping the set updates when the
        # cut edge has 2+ covers.  The covers guarantee the component
        # stays connected, not that its classes survive; two covers can
        # share their remaining edges (square 0-1-2-3 with tree path
        # 0-1-2-3 plus chords (3,0) and (0,2): cutting (1,2) strands
        # vertex 1 behind a bridge although the cut was covered twice).
        f = self.forest
        child, big_root = f.orient_cut(u, v)
        crossing = f.getrep(child, big_root, (u, v))
        for x, y in crossing:
            self._uncover(x, y)
        f.cut_bridge(child, f.parent[child])
        for x, y in crossing:
            self._place(x, y)
        return DeleteKind.TREE_REPLACED if crossing else DeleteKind.TREE_SPLIT
