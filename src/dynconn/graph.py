"""Undirected simple graph over a fixed vertex range [0, n)."""

from __future__ import annotations

from .errors import InvariantError, OutOfRange, SelfLoop

# The adjacency of every vertex that has never had an edge.  One shared
# empty object costs a list cell per vertex, where an empty set of its own
# would cost 216 bytes; a vertex gets its own set at its first edge.
_NO_EDGES: frozenset[int] = frozenset()


class DynamicGraph:
    """Adjacency-set graph; O(1) edge insert/delete/membership.

    Vertices are dense ints fixed at construction.  `adj` is readable by
    the forest code (hot loops index it directly) but must only be
    mutated through add_edge/remove_edge so the edge count stays true.
    A vertex reads the shared empty frozenset until its first edge gives
    it a set of its own, which it keeps when its edges are deleted; so
    each set sees every insertion and deletion of its vertex in order.
    """

    __slots__ = ("n", "m", "adj")

    def __init__(self, n: int):
        if type(n) is not int or n < 0:
            raise OutOfRange(f"vertex count {n!r} is not an int of at least 0")
        self.n = n
        self.m = 0
        self.adj: list[set[int] | frozenset[int]] = [_NO_EDGES] * n

    def _pair(self, u: int, v: int):
        """Adjacency sets of u and v.  Bad ids raise before anything
        changes: OutOfRange unless both are ints in [0, n) (a bool is
        not, though it indexes like one), SelfLoop if they are equal."""
        n = self.n
        if type(u) is int and type(v) is int and 0 <= u < n and 0 <= v < n:
            pair = self.adj[u], self.adj[v]
            if u != v:
                return pair
            raise SelfLoop(f"self loop at {u}")
        raise OutOfRange(f"edge ({u}, {v}) outside [0, {n})")

    def add_edge(self, u: int, v: int) -> bool:
        """Insert (u, v).  True if added, False if it was already present."""
        a, b = self._pair(u, v)
        if v in a:
            return False
        if a is _NO_EDGES:
            a = self.adj[u] = set()
        if b is _NO_EDGES:
            b = self.adj[v] = set()
        a.add(v)
        b.add(u)
        self.m += 1
        return True

    def remove_edge(self, u: int, v: int) -> bool:
        """Delete (u, v).  True if removed, False if it was absent."""
        a, b = self._pair(u, v)
        if v not in a:
            return False
        a.discard(v)
        b.discard(u)
        self.m -= 1
        return True

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._pair(u, v)[0]

    def edges(self):
        """Iterate all edges once, canonically oriented (u < v)."""
        for u, a in enumerate(self.adj):
            for v in a:
                if u < v:
                    yield (u, v)

    def check_integrity(self):
        """Full audit of the adjacency (test use only): symmetric, no self
        loop, m edges, and every vertex on a set of its own or on the
        shared empty frozenset, which cannot gain members.  Raises
        InvariantError, so python -O keeps the checks."""
        adj = self.adj
        n = self.n
        if len(adj) != n:
            raise InvariantError(f"{len(adj)} adjacency sets for {n} vertices")
        total = 0
        for x, a in enumerate(adj):
            if a is not _NO_EDGES and type(a) is not set:
                raise InvariantError(f"vertex {x} has a {type(a).__name__} adjacency")
            if x in a:
                raise InvariantError(f"vertex {x} lists itself")
            for y in a:
                if not (type(y) is int and 0 <= y < n) or x not in adj[y]:
                    raise InvariantError(f"edge ({x}, {y}) is listed at {x} only")
            total += len(a)
        if 2 * self.m != total:
            raise InvariantError(f"m is {self.m} but the adjacency holds {total} ends")
