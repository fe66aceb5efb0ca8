"""Brute-force reference answers for differential testing.

Everything here recomputes from the graph alone, never from the
incremental structures, so a bug in the forests cannot hide itself.
"""

from __future__ import annotations

from collections import deque


class Partition:
    """A labelling of [0, n) into classes, comparable up to renaming.

    Canonical form labels every class by its minimum member, so two
    partitions are equal iff they group the same vertices together.
    """

    __slots__ = ("labels",)

    def __init__(self, labels):
        self.labels = list(labels)

    def canonical(self):
        seen = {}
        out = []
        for v, lab in enumerate(self.labels):
            if lab not in seen:
                seen[lab] = v
            out.append(seen[lab])
        return out

    def same_block(self, u, v):
        return self.labels[u] == self.labels[v]

    def __eq__(self, other):
        if not isinstance(other, Partition):
            return NotImplemented
        return self.canonical() == other.canonical()

    def __len__(self):
        return len(set(self.labels))

    def __repr__(self):
        return f"Partition({self.canonical()})"


def oracle_connected(graph, u, v):
    """BFS truth for 'is there a u-v path right now'."""
    if u == v:
        return True
    seen = {u}
    queue = deque([u])
    adj = graph.adj
    while queue:
        x = queue.popleft()
        for y in adj[x]:
            if y == v:
                return True
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return False


def _label_components(graph, cut):
    """Components as a Partition, by BFS from every vertex, never crossing
    an edge of `cut` (canonical (min, max) pairs)."""
    n = graph.n
    labels = [-1] * n
    adj = graph.adj
    for s in range(n):
        if labels[s] >= 0:
            continue
        labels[s] = s
        queue = deque([s])
        while queue:
            x = queue.popleft()
            for y in adj[x]:
                if labels[y] < 0 and (min(x, y), max(x, y)) not in cut:
                    labels[y] = s
                    queue.append(y)
    return Partition(labels)


def oracle_components(graph):
    """Connected components as a Partition, by BFS from every vertex."""
    return _label_components(graph, ())


def oracle_bridges(graph):
    """All bridges, canonically oriented, via iterative lowpoint DFS."""
    n = graph.n
    adj = graph.adj
    disc = [-1] * n
    low = [0] * n
    bridges = set()
    timer = 0
    for s in range(n):
        if disc[s] >= 0:
            continue
        # stack entries: (vertex, parent, neighbor iterator)
        disc[s] = low[s] = timer
        timer += 1
        stack = [(s, -1, iter(adj[s]))]
        while stack:
            x, px, it = stack[-1]
            advanced = False
            for y in it:
                if y == px:
                    # simple graph: at most one edge back to the parent
                    px = -2
                    stack[-1] = (x, px, it)
                    continue
                if disc[y] < 0:
                    disc[y] = low[y] = timer
                    timer += 1
                    stack.append((y, x, iter(adj[y])))
                    advanced = True
                    break
                if disc[y] < low[x]:
                    low[x] = disc[y]
            if advanced:
                continue
            stack.pop()
            if stack:
                parent = stack[-1][0]
                if low[x] < low[parent]:
                    low[parent] = low[x]
                if low[x] > disc[parent]:
                    bridges.add((min(x, parent), max(x, parent)))
    return bridges


def oracle_two_edge_components(graph):
    """2-edge-connected classes: components after every bridge is cut."""
    return _label_components(graph, oracle_bridges(graph))


def oracle_rep(graph, parent):
    """Crossing-edge count for every tree edge of the given forest.

    `parent` orients a spanning forest of `graph` (-1 at roots).  For
    each non-tree edge the unique tree path between its endpoints is
    walked and every tree edge on it is credited.  Keys are canonical
    (min, max) endpoint pairs, so the answer is independent of which
    vertex the forest is rooted at.  Every tree edge appears, zero
    counts included.
    """
    n = graph.n
    depth = [-1] * n
    for v in range(n):
        if depth[v] >= 0:
            continue
        chain = []
        x = v
        while depth[x] < 0 and parent[x] != -1:
            chain.append(x)
            x = parent[x]
        d = depth[x] if depth[x] >= 0 else 0
        if parent[x] == -1:
            depth[x] = 0
            d = 0
        while chain:
            d += 1
            depth[chain.pop()] = d

    def tree_key(child):
        return (min(child, parent[child]), max(child, parent[child]))

    counts = {tree_key(v): 0 for v in range(n) if parent[v] != -1}
    for u, v in graph.edges():
        if parent[u] == v or parent[v] == u:
            continue
        a, b = u, v
        while depth[a] > depth[b]:
            counts[tree_key(a)] += 1
            a = parent[a]
        while depth[b] > depth[a]:
            counts[tree_key(b)] += 1
            b = parent[b]
        while a != b:
            counts[tree_key(a)] += 1
            counts[tree_key(b)] += 1
            a = parent[a]
            b = parent[b]
    return counts
