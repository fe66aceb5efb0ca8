"""Fully dynamic 2-edge connectivity.

The spanning forest grows one counter per tree edge: how many non-tree
edges route their tree path across it.  Stored at the child endpoint,
the counter is zero exactly when the edge is a bridge, so two vertices
are 2-edge connected iff walking up through positive counters lands
them at the same vertex.  The forest's own link, unlink and reroot do
the tree surgery; a reroot then moves each counter on the reversed path
one step down, to its edge's new child end.

Cover walks never touch depths: both endpoints of an edge walk
toward their lowest common ancestor, always advancing whichever
pointer owns the smaller subtree, the v end on a tie (sizes strictly
grow upward, so the pointers cannot overshoot the meeting point).

Deleting a covered tree edge f is one swap T' = T - f + e, e being the
first crossing edge the small-side scan finds.  Only the counters on
e's old tree path, which ran through f, change: an edge of that path
below which c of the K crossing edges end gains K - 2c on e's branches
and loses K - 2c on f's, and e itself starts at K - 1.  Each side's c
values come from one pass of marked upward walks.

Inserts keep the forest shallow with the same swap.  A non-tree edge e
whose ends lie gap >= 2 levels apart walks from its deeper end up to
the tree edge that the plain forest's depth-halving rewire would cut,
about half the gap above, and replaces the highest edge on that walk
that has at most gap covers, e's included, and heads two or more
vertices; with none, the tree stays.  Every edge of the walk lies on
e's cycle below its meeting point.  The cap on covers bounds the upward
walks a rewire pays for, and lifting a lone vertex would save one
vertex's depth yet walk up from every cover.  The cut edge stays in the
graph and counts as one more crossing edge, whose new path is e's old
cycle minus that edge; as it covers that whole path, the swap changes
no class.

On top of the forest sits a second disjoint-set forest, one set per
2-edge class with member counts.  A counter rising off zero merges two
classes; a counter falling to zero carves the child's side out into a
class of its own.  A deletion only lowers counters, so it only splits.
"""

from __future__ import annotations

from .disjoint_set import DisjointSetForest
from .errors import (
    DuplicateEdge,
    EdgeAbsent,
    HasReplacements,
    InvariantError,
    OutOfRange,
    RepUnderflow,
)
from .graph import DynamicGraph
from .spanning_forest import DeleteKind, InsertKind, SpanningForest


class TwoEdgeForest(SpanningForest):
    """Spanning forest whose tree edges count their non-tree covers."""

    def __init__(self, graph):
        super().__init__(graph)
        self.rep = [0] * graph.n
        self.probes = 0  # adjacency entries read by the last getrep

    # -- primitives, counter-aware ---------------------------------------

    def reroot(self, u):
        """Reverse u's root path; each flipped edge keeps its counter, which
        moves one step down the path to the edge's new child end."""
        path = super().reroot(u)
        rep = self.rep
        carry = rep[path[-1]]  # u takes the old root's value
        for x in path:
            rep[x], carry = carry, rep[x]
        return path

    def link(self, u, v, root_v):
        self.rep[u] = 0  # a fresh tree edge is not covered by anything
        return super().link(u, v, root_v)

    def cut_bridge(self, u, v):
        """Remove tree edge (u, v), v being u's parent.  Only bridges
        (counter zero) may be cut; a covered edge is swapped out by the
        index for one of its crossing edges instead."""
        if self.parent[u] != v:
            raise ValueError(f"({u}, {v}) is not a child-to-parent tree edge")
        if self.rep[u] != 0:
            raise HasReplacements(f"({u}, {v}) is still covered {self.rep[u]} times")
        self.unlink(u)

    # -- class queries -----------------------------------------------------

    def ecc_root(self, u):
        """Highest ancestor reachable from u through covered edges; two
        vertices share it iff they are 2-edge connected."""
        parent = self.parent
        rep = self.rep
        while rep[u] != 0:
            u = parent[u]
            if u == -1:
                raise InvariantError("a tree root stores a nonzero cover count")
        return u

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

    def getrep(self, small_root, big_root):
        """Non-tree edges crossing the pending cut above small_root, as
        (small end, big end) pairs in discovery order.

        The graph edge being cut must already be gone from the
        adjacency.  The small side is stamped breadth-first, then its
        adjacency is read again for neighbors left unstamped.  The number
        of adjacency entries on the small side is left in `probes`.
        """
        parent = self.parent
        adj = self.graph.adj
        self._epoch += 1
        epoch = self._epoch
        mark = self._mark
        mark[small_root] = epoch
        side = [small_root]
        probes = 0
        for x in side:  # grows while it is read: breadth-first order
            nbrs = adj[x]
            probes += len(nbrs)
            for y in nbrs:
                if parent[y] == x and mark[y] != epoch:
                    mark[y] = epoch
                    side.append(y)
        if mark[big_root] == epoch:
            raise InvariantError("small-side scan leaked across the cut")
        self.probes = probes
        return [(x, y) for x in side for y in adj[x] if mark[y] != epoch]


class SizedDisjointSet(DisjointSetForest):
    """Disjoint sets carrying member counts through union, split_off,
    isolate and reroot."""

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

    def split_off(self, small, members, root):
        super().split_off(small, members, root)
        k = len(members)
        self.dsize[root] -= k
        self.dsize[small] = k

    # Nothing calls isolate on the class sets: class splits go through
    # split_off.  The binding stays only because perfbench's tracer spans
    # SizedDisjointSet.isolate by name, as `two_edge.class_isolate`.
    isolate = DisjointSetForest.isolate

    def reroot(self, u):
        r = self.find(u)
        if r == u:
            return u
        self._swap_owner(u, r)
        self.dsize[u] = self.dsize[r]
        return u

    def check_integrity(self):
        """The base audit, plus every representative's count against its
        members; raises InvariantError."""
        super().check_integrity()
        members = [0] * self._n
        peek = self.peek_root
        for v in range(self._n):
            members[peek(v)] += 1
        dsize = self.dsize
        for r in self.root_vertices():
            if dsize[r] != members[r]:
                raise InvariantError(f"class of {r} counts {dsize[r]} members "
                                     f"but holds {members[r]}")


class TwoEdgeIndex:
    """Dynamic 2-edge connectivity with constant-time queries.

    The covered forest decides everything structural; the class sets
    shadow its counter transitions so two_edge_connected() is a pair of
    set lookups.  Unlike plain connectivity there is no root pairing to
    maintain between the two structures: class representatives roam
    freely.
    """

    mode = "2ec"

    def __init__(self, n: int):
        self.graph = DynamicGraph(n)
        self.forest = TwoEdgeForest(self.graph)
        self.csets = SizedDisjointSet(n)
        # which stamped path edge an upward walk of the swap ends on
        self._land = [0] * n
        # workload statistics, accumulated over tree-edge deletions
        self.tree_deletes = 0
        self.splits = 0
        self.split_visited_total = 0
        self.probe_total = 0
        # non-tree inserts that swapped themselves into the tree
        self.rewires = 0

    def insert2(self, u: int, v: int) -> InsertKind:
        if not self.graph.add_edge(u, v):
            raise DuplicateEdge(f"edge ({u}, {v}) already present")
        return self._place(u, v)

    def delete2(self, u: int, v: int) -> DeleteKind:
        # validated (range, self-loop, presence) before the forest arrays
        # are indexed, so bad input raises before anything changes
        if not self.graph.remove_edge(u, v):
            raise EdgeAbsent(f"edge ({u}, {v}) not present")
        f = self.forest
        if f.parent[u] == v or f.parent[v] == u:
            return self._cut_tree_edge(u, v)
        self._uncover(u, v)
        return DeleteKind.NONTREE

    def two_edge_connected(self, u: int, v: int) -> bool:
        n = self.graph.n
        try:
            if 0 <= u < n and 0 <= v < n:
                return self.csets.same_set(u, v)
        except TypeError:  # a non-int id fails before anything changes
            pass
        raise OutOfRange(f"query ({u}, {v})")

    # the protocol both indexes share; the benchmark binds the 2-suffixed names
    insert = insert2
    delete = delete2
    query = two_edge_connected

    def partition(self) -> list:
        """Class representative of every vertex, read without compressing
        or counting."""
        peek = self.csets.peek_root
        return [peek(v) for v in range(self.graph.n)]

    def counters(self) -> dict:
        return {
            "tree_deletes": self.tree_deletes,
            "splits": self.splits,
            "split_visited_total": self.split_visited_total,
            "probe_total": self.probe_total,
            "rewires": self.rewires,
            **self.csets.counters(),
        }

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
        """Forest placement plus class merges on every 0 -> 1 counter.  A
        non-tree edge whose ends lie gap >= 2 levels apart then takes the
        place of the highest tree edge between the deeper end and the
        ancestor (gap + 1) // 2 - 1 steps above it that has at most gap
        covers and heads two or more vertices (see _rewire); with none,
        the tree stays."""
        f = self.forest
        ru, du = f._root_depth(u)
        rv, dv = f._root_depth(v)
        if ru != rv:
            if f.size[ru] > f.size[rv]:
                u, v, ru, rv = v, u, rv, ru
            f.reroot(u)
            f.link(u, v, rv)
            return InsertKind.TREE_EDGE
        self._cover(u, v)
        if du < dv:
            u, v, du, dv = v, u, dv, du
        gap = du - dv
        if gap < 2:
            return InsertKind.NONTREE_NOOP
        # the swap walks up from every cover of the cut edge, e's included;
        # the cap keeps its cost in line with the depth it saves, and a lone
        # vertex, whose lift saves one vertex's depth, is never cut out
        parent = f.parent
        size = f.size
        rep = f.rep
        x = -1
        y = u
        for _ in range((gap + 1) // 2):
            if rep[y] <= gap and size[y] >= 2:
                x = y
            y = parent[y]
        if x < 0:
            return InsertKind.NONTREE_NOOP
        self.rewires += 1
        self._rewire(u, v, x)
        return InsertKind.NONTREE_REWIRED

    def _cover(self, u, v):
        """Covering walk of a non-tree edge (u, v), merging classes at
        every 0 -> 1."""
        f = self.forest
        parent = f.parent
        size = f.size
        rep = f.rep
        sets = self.csets
        while u != v:
            if size[u] >= size[v]:
                u, v = v, u
            r = rep[u] + 1
            rep[u] = r
            if r == 1:
                sets.union(u, parent[u])
            u = parent[u]

    def _rewire(self, u, v, w):
        """Swap the covered non-tree edge e = (u, v) into the tree for the
        tree edge f above w, an edge of e's cycle with u below it: the
        tree-delete swap with e as the forced replacement and f still in
        the graph.  f then crosses its own cut, so getrep returns it too,
        and as a crossing pair whose old path is f alone it makes
        _shift_covers exact.  Classes stay as they are: f covers every
        edge of its new cycle, e's old cycle minus f."""
        f = self.forest
        child, big_root = f.orient_cut(w, f.parent[w])
        crossing = f.getrep(child, big_root)
        k = len(crossing)
        if f.rep[child] != k - 1:
            raise InvariantError(f"rewired edge above {child} counts "
                                 f"{f.rep[child]} covers but {k - 1} edges "
                                 f"cross it besides itself")
        e = (u, v) if child == w else (v, u)  # small side's end first
        if self._swap(child, big_root, e, crossing, k):
            raise InvariantError("a rewire left an edge of its cycle uncovered")

    def _uncover(self, u, v):
        """Covering walk in reverse, splitting a class at every 1 -> 0."""
        f = self.forest
        parent = f.parent
        size = f.size
        rep = f.rep
        while u != v:
            if size[u] >= size[v]:
                u, v = v, u
            r = rep[u] - 1
            if r < 0:
                raise RepUnderflow(f"cover count below zero above {u}")
            rep[u] = r
            if r == 0:
                self._split_class(u)
            u = parent[u]

    def _split_class(self, w):
        """The tree edge above w just became a bridge: w's side of it moves
        into a class of its own.  The old class keeps its representative on
        the surviving side (rerooted there first so no root is ever pulled
        out), and every member below w follows w into the new set."""
        f = self.forest
        parent = f.parent
        rep = f.rep
        adj = self.graph.adj
        members = [w]
        for x in members:  # grows while it is read: breadth-first order
            for y in adj[x]:
                if parent[y] == x and rep[y] > 0:
                    members.append(y)
        sets = self.csets
        sets.split_off(w, members, sets.reroot(parent[w]))

    def _cut_tree_edge(self, u, v):
        # The swap T' = T - f + e moves the covers along e's old cycle
        # path only.  Class sets need splits and never merges there: a
        # path counter can fall to zero but was positive before.  Even a
        # cut covered twice can split (square 0-1-2-3 with tree path
        # 0-1-2-3 plus chords (3,0) and (0,2): cutting (1,2) strands
        # vertex 1 behind a bridge), so every zero is split.
        f = self.forest
        child, big_root = f.orient_cut(u, v)
        crossing = f.getrep(child, big_root)
        self.tree_deletes += 1
        self.probe_total += f.probes
        p = f.parent[child]
        if not crossing:
            self.splits += 1
            self.split_visited_total += f.size[child]
            f.cut_bridge(child, p)
            return DeleteKind.TREE_SPLIT
        rep = f.rep
        k = len(crossing)
        if rep[child] != k:
            raise InvariantError(f"cut edge above {child} counts {rep[child]} "
                                 f"covers but {k} edges cross it")
        zeros = self._swap(child, big_root, crossing[0], crossing, k)
        if k == 1:
            zeros += 1  # e is a bridge
        # split bottom-up along the cycle path, now the tree path child..p
        size = f.size
        parent = f.parent
        a, b = child, p
        while zeros and a != b:
            if size[a] >= size[b]:
                a, b = b, a
            w = a
            a = parent[a]
            if rep[w] == 0:
                self._split_class(w)
                zeros -= 1
        return DeleteKind.TREE_REPLACED

    def _swap(self, child, big_root, e, crossing, k):
        """T' = T - f + e for the tree edge f above child, whose small side
        child roots, and e = (x, y) with x on that side.  `crossing` holds
        the k edges across f as (small end, big end) pairs, e included.
        Hangs the smaller side, the lower id's on a tie, as a fresh insert
        of e would.  Returns how many counters on e's old cycle path
        reached zero, e's own not counted."""
        f = self.forest
        rep = f.rep
        p = f.parent[child]
        f.unlink(child)
        rep[child] = 0
        x, y = e
        zeros = (self._shift_covers(x, child, crossing, 0, k)
                 + self._shift_covers(y, p, crossing, 1, k))
        if f.size[child] == f.size[big_root] and y < x:
            f.reroot(y)
            f.link(y, x, child)
            rep[y] = k - 1
        else:
            f.reroot(x)
            f.link(x, y, big_root)
            rep[x] = k - 1
        return zeros

    def _shift_covers(self, s, t, crossing, side, k):
        """Counter updates of the swap on one side of the cut: s is the
        replacement's end there, t the cut edge's, and `side` picks this
        side's end of each crossing pair.  An edge of the s..t path below
        which c of the k crossing ends lie gains k - 2c on s's branch and
        loses k - 2c on t's.  Returns how many counters reached zero."""
        if s == t:  # an empty path: no counter on this side can change
            return 0
        f = self.forest
        parent = f.parent
        size = f.size
        rep = f.rep
        chains = ([], [])  # lower ends of the path's edges, s's then t's
        a, b = s, t
        while a != b:
            if size[a] < size[b]:
                chains[0].append(a)
                a = parent[a]
            else:
                chains[1].append(b)
                b = parent[b]
        f._epoch += 1
        epoch = f._epoch
        mark = f._mark
        land = self._land
        path = chains[0] + chains[1]
        for i, w in enumerate(path):
            mark[w] = epoch
            land[w] = i
        while a != -1:  # the meeting point and above
            mark[a] = epoch
            land[a] = -1
            a = parent[a]
        hits = [0] * len(path)
        for pair in crossing:
            # up to stamped ground, then stamp the walked vertices with
            # the path edge they lead to
            end = pair[side]
            w = end
            while mark[w] != epoch:
                w = parent[w]
            i = land[w]
            while mark[end] != epoch:
                mark[end] = epoch
                land[end] = i
                end = parent[end]
            if i >= 0:
                hits[i] += 1
        zeros = 0
        i = 0
        for sign, chain in ((1, chains[0]), (-1, chains[1])):
            c = 0
            for w in chain:
                c += hits[i]
                i += 1
                r = rep[w] + sign * (k - 2 * c)
                if r <= 0:
                    if r < 0:
                        raise RepUnderflow(f"cover count below zero above {w}")
                    zeros += 1
                rep[w] = r
        return zeros
