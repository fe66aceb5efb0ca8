"""Undirected simple graph over a fixed vertex range [0, n)."""

from __future__ import annotations

from .errors import OutOfRange, SelfLoop


class DynamicGraph:
    """Adjacency-set graph; O(1) edge insert/delete/membership.

    Vertices are dense ints fixed at construction.  `adj` is readable by
    the forest code (hot loops index it directly) but must only be
    mutated through add_edge/remove_edge so the edge count stays true.
    """

    __slots__ = ("n", "m", "adj")

    def __init__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise OutOfRange(f"vertex count {n!r} is not an int of at least 0")
        self.n = n
        self.m = 0
        self.adj: list[set[int]] = [set() for _ in range(n)]

    def _pair(self, u: int, v: int):
        """Adjacency sets of u and v.  Bad ids raise before anything
        changes: OutOfRange unless both are ints in [0, n), SelfLoop if
        they are equal."""
        n = self.n
        try:
            if 0 <= u < n and 0 <= v < n:
                pair = self.adj[u], self.adj[v]
                if u != v:
                    return pair
                raise SelfLoop(f"self loop at {u}")
        except TypeError:  # a non-int id fails its comparison or its lookup
            pass
        raise OutOfRange(f"edge ({u}, {v}) outside [0, {n})")

    def add_edge(self, u: int, v: int) -> bool:
        """Insert (u, v).  True if added, False if it was already present."""
        a, b = self._pair(u, v)
        if v in a:
            return False
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

    def _nbrs(self, u: int) -> set[int]:
        """Adjacency set of u; OutOfRange unless u is an int in [0, n)."""
        n = self.n
        try:
            if 0 <= u < n:
                return self.adj[u]
        except TypeError:  # a non-int id fails its comparison or its lookup
            pass
        raise OutOfRange(f"vertex {u} outside [0, {n})")

    def degree(self, u: int) -> int:
        return len(self._nbrs(u))

    def neighbors(self, u: int):
        """Iterate the current neighbors of u, each exactly once."""
        return iter(self._nbrs(u))

    def edges(self):
        """Iterate all edges once, canonically oriented (u < v)."""
        for u, a in enumerate(self.adj):
            for v in a:
                if u < v:
                    yield (u, v)
