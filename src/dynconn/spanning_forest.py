"""Spanning forest with subtree sizes: the structure that answers
connectivity by walking to the root.

Each vertex stores only its parent and the size of its subtree.  There
are no child lists and no balancing rotations; queries are pure parent
walks, and the tree stays shallow through two placement heuristics:

* inserting a non-tree edge whose endpoints sit far apart vertically
  moves the deeper endpoint (with a few of its ancestors) up under the
  shallower one, halving the vertical gap;
* whenever a subtree is attached, the first vertex on the updated
  root path that holds more than half of the merged tree becomes the
  new root.

Deletion of a tree edge searches the smaller of the two halves for a
replacement edge, walking non-tree neighbors upward and marking the
ground it covers so no vertex is examined twice.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .errors import AlreadyRoot, InvariantError, OutOfRange


class InsertKind(enum.Enum):
    TREE_EDGE = "tree_edge"
    NONTREE_NOOP = "nontree_noop"
    NONTREE_REWIRED = "nontree_rewired"


class DeleteKind(enum.Enum):
    NONTREE = "nontree"
    TREE_REPLACED = "tree_replaced"
    TREE_SPLIT = "tree_split"


@dataclass
class DeletionOutcome:
    """What a tree-level delete did and what it touched.

    `visited` is the marked set built during the replacement search,
    `small_root` first: on a split it is exactly the vertex set of the
    smaller half, on a successful replacement it also holds the upward
    walk that escaped.
    `probes` counts neighbor iterations of the search loop.
    """

    kind: DeleteKind
    small_root: int | None
    big_root: int | None
    visited: list[int] = field(default_factory=list)
    probes: int = 0

    @property
    def replaced(self):
        """Does the component survive: a non-tree edge, or a tree edge
        that found a replacement."""
        return self.kind is not DeleteKind.TREE_SPLIT


class SpanningForest:
    """Parent-pointer spanning forest of a DynamicGraph."""

    def __init__(self, graph):
        self.graph = graph
        n = graph.n
        self.parent = [-1] * n
        self.size = [1] * n
        self._mark = [0] * n
        self._epoch = 0

    # -- queries -------------------------------------------------------

    def _root(self, u):
        parent = self.parent
        p = parent[u]
        while p != -1:
            u = p
            p = parent[u]
        return u

    def _root_depth(self, u):
        """(root, depth) of u, for callers that validated u."""
        parent = self.parent
        d = 0
        p = parent[u]
        while p != -1:
            u = p
            p = parent[u]
            d += 1
        return u, d

    def find_root(self, u):
        """Return (root, depth) of u.  Read-only walk."""
        try:
            if 0 <= u < len(self.parent):
                return self._root_depth(u)
        except TypeError:  # a non-int id fails before anything changes
            pass
        raise OutOfRange(f"vertex {u}")

    def query(self, u, v):
        """Same tree?  Two root walks, no mutation."""
        n = len(self.parent)
        try:
            if 0 <= u < n and 0 <= v < n:
                return self._root(u) == self._root(v)
        except TypeError:  # a non-int id fails before anything changes
            pass
        raise OutOfRange(f"query ({u}, {v})")

    # -- primitive restructuring ---------------------------------------

    def reroot(self, u):
        """Make u the root of its tree by reversing its root path.

        Returns the reversed path: u first, the old root last ([u] when u
        already was the root)."""
        parent = self.parent
        if parent[u] == -1:
            return [u]
        size = self.size
        path = [u]
        p = parent[u]
        while p != -1:
            path.append(p)
            p = parent[p]
        # flip edges from the old root downward; at each flip the upper
        # endpoint currently holds the whole-tree size
        for i in range(len(path) - 2, -1, -1):
            x = path[i]
            y = path[i + 1]
            sy = size[y] - size[x]
            size[y] = sy
            size[x] += sy
            parent[y] = x
        parent[u] = -1
        return path

    def unlink(self, u):
        """Detach u's subtree; returns the root it was detached from."""
        parent = self.parent
        p = parent[u]
        if p == -1:
            raise AlreadyRoot(f"vertex {u} has no parent")
        parent[u] = -1
        su = self.size[u]
        size = self.size
        while True:
            size[p] -= su
            last = p
            p = parent[p]
            if p == -1:
                return last

    def link(self, u, v, root_v):
        """Attach root u under v (tree of root_v); returns the final root.

        Subtree sizes are bumped along v's root path.  The first vertex
        whose updated size exceeds half of the merged total is pulled up
        to be the new root; if that is root_v itself nothing rotates.
        """
        parent = self.parent
        size = self.size
        parent[u] = v
        add = size[u]
        total = size[root_v] + add
        cand = -1
        w = v
        while w != -1:
            sw = size[w] + add
            size[w] = sw
            if cand < 0 and 2 * sw > total:
                cand = w
            w = parent[w]
        if cand != root_v:
            self.reroot(cand)
            return cand
        return root_v

    # -- edge-level operations -----------------------------------------

    def insert_nontree(self, u, v):
        """Non-tree placement for callers that already know the endpoints
        share a tree.  Returns (kind, root after any rotation)."""
        ru, du = self.find_root(u)
        rv, dv = self.find_root(v)
        if ru != rv:
            raise ValueError("endpoints are in different trees")
        return self._place_nontree(u, du, v, dv, ru)

    def _place_nontree(self, u, du, v, dv, root):
        if du < dv:
            u, v = v, u
            du, dv = dv, du
        gap = du - dv
        if gap <= 1:
            return InsertKind.NONTREE_NOOP, root
        # move the deeper endpoint, keeping half the gap's worth of its
        # ancestors with it, and hang the piece under the shallow end.  The
        # cut lies strictly below the edge's meeting point, so it is on the
        # edge's cycle
        w = u
        for _ in range((gap + 1) // 2 - 1):
            w = self.parent[w]
        self.unlink(w)
        self.reroot(u)
        final = self.link(u, v, root)
        return InsertKind.NONTREE_REWIRED, final

    def delete_edge(self, u, v):
        """Remove edge (u, v)'s role in the forest.

        The graph edge itself must already be gone from the adjacency
        (otherwise the search below would find the deleted edge and
        "reconnect" through it).  Non-tree edges cost nothing.  For a
        tree edge the smaller half is searched breadth-first: each
        non-tree neighbor is walked upward, marking new ground, until
        the walk either hits marked ground (dead end) or reaches the
        root of the bigger half (replacement found).
        """
        parent = self.parent
        if parent[u] != v and parent[v] != u:
            return DeletionOutcome(DeleteKind.NONTREE, None, None)
        if parent[v] == u:
            u, v = v, u
        root_v = self.unlink(u)
        if self.size[root_v] < self.size[u]:
            u, root_v = root_v, u
        # u now roots the smaller half, root_v the bigger one
        self._epoch += 1
        epoch = self._epoch
        mark = self._mark
        mark[u] = epoch
        visited = [u]
        queue = [u]
        adj = self.graph.adj
        probes = 0
        for x in queue:  # grows while it is read: breadth-first order
            px = parent[x]
            for y in adj[x]:
                probes += 1
                if y == px:
                    continue
                if parent[y] == x:
                    queue.append(y)
                    if mark[y] != epoch:
                        mark[y] = epoch
                        visited.append(y)
                    continue
                w = y
                while w != -1 and mark[w] != epoch:
                    mark[w] = epoch
                    visited.append(w)
                    w = parent[w]
                if w == -1:  # walked off the big half's root: y replaces
                    self.reroot(x)
                    final = self.link(x, y, root_v)
                    return DeletionOutcome(
                        DeleteKind.TREE_REPLACED, u, final, visited, probes
                    )
        return DeletionOutcome(DeleteKind.TREE_SPLIT, u, root_v, visited, probes)

    # -- statistics and checking ----------------------------------------

    def roots(self):
        parent = self.parent
        return [v for v in range(len(parent)) if parent[v] == -1]

    def average_depth(self):
        """Mean depth over every vertex (roots count as 0)."""
        parent = self.parent
        n = len(parent)
        if n == 0:
            return 0.0
        depth = [-1] * n
        for v in range(n):
            if depth[v] >= 0:
                continue
            chain = []
            x = v
            while depth[x] < 0 and parent[x] != -1:
                chain.append(x)
                x = parent[x]
            if parent[x] == -1 and depth[x] < 0:
                depth[x] = 0
            d = depth[x]
            while chain:
                d += 1
                depth[chain.pop()] = d
        return sum(depth) / n

    def check_integrity(self):
        """Check parent acyclicity and exact subtree sizes (tests only);
        raises InvariantError, so python -O keeps the checks."""
        parent = self.parent
        n = len(parent)
        for v in range(n):
            hops = 0
            x = v
            while parent[x] != -1:
                x = parent[x]
                hops += 1
                if hops > n:
                    raise InvariantError(f"parent cycle through {v}")
        true_size = [1] * n
        order = sorted(range(n), key=lambda v: -self._root_depth(v)[1])
        for v in order:
            if parent[v] != -1:
                true_size[parent[v]] += true_size[v]
        if true_size != self.size:
            raise InvariantError("subtree sizes drifted")
