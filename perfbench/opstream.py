"""Seeded workload definitions and the op streams they generate.

A stream is a pure function of its workload and seed: it tracks the
edge set it expects the index to hold, never reads the index, and hands
out fixed-size segments of ops as compact arrays.  The churn workload
starts from one fixed graph, the seed-88 ROADMAP baseline graph, so the
seed varies the ops and not the graph; the window workload's seed draws
its whole edge stream.
The last op of every segment is a query, so the replay loop can check
that one answer with the oracle without touching the timed ops.
"""

from __future__ import annotations

import random
from array import array
from collections import deque
from dataclasses import dataclass

INSERT, DELETE, QUERY = 0, 1, 2
OP_NAMES = ("insert", "delete", "query")
GRAPH_SEED = 88  # the churn workloads' fixed initial graphs


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    mode: str  # "conn" or "2ec"
    stream: str  # "churn" or "window"
    n: int
    m: int  # edges of the churn graph (lag of them are out); the window size
    query_share: float
    segment_ops: int  # ops per segment, the unit of ops_per_s
    probe_every: int  # segments between two checks of a query answer
    checkpoint_every: int  # segments between two full partition checks
    replays: int  # builds per run, each replaying the same op stream
    segments_per_s: float  # segments one replay covers per second of --seconds
    trace_segments: int  # fixed stream length of a traced run
    lag: int = 1000  # churn: a deleted edge returns after this many deletes
    update_seed: int | None = None  # when set, it draws which ops are updates
    # and the updates themselves, and --seed draws only the queried pairs


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="conn-window",
            why="The paper's temporal protocol: a FIFO window of 60k fresh "
                "random edges on 100k vertices, where most tree deletions "
                "split, so small-side search and isolate/link carry the "
                "delete tail.",
            mode="conn", stream="window", n=100_000, m=60_000,
            query_share=0.15, segment_ops=5_000, probe_every=5, checkpoint_every=100,
            replays=16, segments_per_s=0.5, trace_segments=50,
        ),
        Workload(
            name="2ec-churn",
            why="Bridge view on the 20k/100k baseline graph under half-query "
                "churn with one fixed update trace: cover walks and class "
                "splits in two_edge dominate, a layer conn-window bypasses.",
            mode="2ec", stream="churn", n=20_000, m=100_000, update_seed=88,
            query_share=0.5, segment_ops=250, probe_every=8, checkpoint_every=32,
            replays=12, segments_per_s=0.8, trace_segments=32,
        ),
    )
}


class OpStream:
    """The initial edge list and then segment after segment of ops."""

    def __init__(self, workload: Workload, seed, graph=None):
        """`seed` draws the ops; where the workload sets `update_seed`,
        that draws the op kinds and the updates instead, so only the
        queried pairs vary with `seed`.  A churn stream starts from
        `graph`, the arrays of `churn_graph(workload)`, when given."""
        self.w = workload
        self.rng = random.Random(seed)
        self.urng = self.rng
        if workload.update_seed is not None:
            self.urng = random.Random(workload.update_seed)
        n = workload.n
        if workload.m > n * (n - 1) // 2:
            raise ValueError(f"{workload.name}: m exceeds the simple-graph maximum")
        # churn: live edges as two parallel arrays (uniform pick by index,
        # swap-remove), deleted edges wait in `pool` before they return.
        # window: live edges in arrival order plus a key set for freshness.
        self._pool = deque()
        self._window = deque()
        self._keys = set()
        self._delete_next = False
        if workload.stream == "churn":
            self._lu, self._lv = (a[:] for a in graph or churn_graph(workload))
            # the first `lag` deletions happen before the build, so the
            # stream starts in its steady state
            while len(self._pool) < workload.lag:
                self._churn()
            self.initial = (self._lu[:], self._lv[:])
        else:
            self._lu = self._lv = None
            for _ in range(workload.m):
                self._admit(*self._fresh_edge())
            self.initial = (array("i", (u for u, _ in self._window)),
                            array("i", (v for _, v in self._window)))

    def _fresh_edge(self):
        rng = self.urng
        n = self.w.n
        keys = self._keys
        while True:
            u = rng.randrange(n)
            v = rng.randrange(n)
            if u == v:
                continue
            if u > v:
                u, v = v, u
            if u * n + v not in keys:
                return u, v

    def _admit(self, u, v):
        if self.w.stream == "window":
            self._keys.add(u * self.w.n + v)
            self._window.append((u, v))
        else:
            self._lu.append(u)
            self._lv.append(v)

    def live_edges(self):
        """The edge set the index should hold after the ops handed out."""
        if self.w.stream == "window":
            return list(self._window)
        return list(zip(self._lu, self._lv))

    def segment(self):
        """Next `segment_ops` ops as (kinds, us, vs) arrays; ends in a query."""
        w = self.w
        rng, urng = self.rng, self.urng
        n = w.n
        q = w.query_share
        kinds = array("b")
        us = array("i")
        vs = array("i")
        update = self._churn if w.stream == "churn" else self._slide
        for i in range(w.segment_ops):
            if i == w.segment_ops - 1 or urng.random() < q:
                kinds.append(QUERY)
                us.append(rng.randrange(n))
                vs.append(rng.randrange(n))
            else:
                kind, u, v = update()
                kinds.append(kind)
                us.append(u)
                vs.append(v)
        return kinds, us, vs

    def _churn(self):
        """Alternate deleting a uniform live edge and re-inserting the edge
        deleted `lag` deletions ago."""
        pool = self._pool
        if self._delete_next or len(pool) < self.w.lag:
            lu, lv = self._lu, self._lv
            i = self.urng.randrange(len(lu))
            u, v = lu[i], lv[i]
            lu[i] = lu[-1]
            lv[i] = lv[-1]
            lu.pop()
            lv.pop()
            pool.append((u, v))
            self._delete_next = False
            return DELETE, u, v
        u, v = pool.popleft()
        self._admit(u, v)
        self._delete_next = True
        return INSERT, u, v

    def _slide(self):
        """Alternate the arrival of a fresh edge and eviction of the oldest."""
        if self._delete_next:
            u, v = self._window.popleft()
            self._keys.discard(u * self.w.n + v)
            self._delete_next = False
            return DELETE, u, v
        u, v = self._fresh_edge()
        self._admit(u, v)
        self._delete_next = True
        return INSERT, u, v


def churn_graph(w):
    """A churn workload's fixed initial graph as (us, vs) arrays: the m
    uniform edges, in order, that `dynconn.workload.random_edge_stream(n,
    m, GRAPH_SEED)` inserts, that is the ROADMAP baseline graph."""
    n = w.n
    rng = random.Random(GRAPH_SEED)
    chosen = set()
    while len(chosen) < w.m:
        a = rng.randrange(n)
        b = rng.randrange(n)
        if a != b:
            chosen.add(a * n + b if a < b else b * n + a)
    keys = sorted(chosen)  # keys u * n + v sort like the (u, v) pairs
    rng.shuffle(keys)
    return array("i", (k // n for k in keys)), array("i", (k % n for k in keys))
