"""Covered forest, sized sets, and the 2-edge connectivity index."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from dynconn.errors import (
    DuplicateEdge,
    EdgeAbsent,
    HasReplacements,
    OutOfRange,
    RepUnderflow,
    SelfLoop,
)
from dynconn.graph import DynamicGraph
from dynconn.oracle import (
    Partition,
    oracle_components,
    oracle_rep,
    oracle_two_edge_components,
)
from dynconn.spanning_forest import DeleteKind, InsertKind
from dynconn.two_edge import SizedDisjointSet, TwoEdgeForest, TwoEdgeIndex


def forest_rep_map(forest):
    """Canonical (min, max) tree edge -> stored cover count."""
    parent = forest.parent
    out = {}
    for x in range(len(parent)):
        p = parent[x]
        if p != -1:
            out[(x, p) if x < p else (p, x)] = forest.rep[x]
    return out


def class_partition(idx):
    return Partition([idx.csets.find(v) for v in range(idx.graph.n)])


def check_index(idx):
    """Every truth the index is supposed to maintain, against oracles."""
    g = idx.graph
    assert Partition([idx.forest._root(v) for v in range(g.n)]) == oracle_components(g)
    assert forest_rep_map(idx.forest) == oracle_rep(g, idx.forest.parent)
    truth = oracle_two_edge_components(g)
    assert class_partition(idx) == truth
    assert Partition([idx.forest.ecc_root(v) for v in range(g.n)]) == truth
    idx.forest.check_integrity()
    idx.csets.check_integrity()


# -- frozen small cases -------------------------------------------------------


def test_triangle_covers_both_tree_edges():
    idx = TwoEdgeIndex(3)
    assert idx.insert2(0, 1) == InsertKind.TREE_EDGE
    assert idx.insert2(1, 2) == InsertKind.TREE_EDGE
    assert idx.insert2(0, 2) == InsertKind.NONTREE_NOOP
    assert idx.forest.rep == [1, 0, 1]  # root 1 holds no edge above it
    assert idx.two_edge_connected(0, 2)
    assert idx.two_edge_connected(1, 2)
    assert idx.csets.dsize[idx.csets.find(0)] == 3
    check_index(idx)


def test_reroot_keeps_counts_on_physical_edges():
    g = DynamicGraph(3)
    for a, b in ((0, 1), (1, 2)):
        g.add_edge(a, b)
    f = TwoEdgeForest(g)
    f.parent = [-1, 0, 1]
    f.size = [3, 2, 1]
    f.rep = [0, 2, 0]  # edge (1,0) covered twice, edge (2,1) a bridge
    f.reroot(2)
    assert f.parent == [1, 2, -1]
    assert f.size == [1, 2, 3]
    assert f.rep == [2, 0, 0]  # (0,1) still counts 2, now stored at 0
    f.check_integrity()


def test_cut_bridge_refuses_covered_edges():
    idx = TwoEdgeIndex(3)
    idx.insert2(0, 1)
    idx.insert2(1, 2)
    idx.insert2(0, 2)
    f = idx.forest
    child = 0 if f.parent[0] != -1 else 2
    try:
        f.cut_bridge(child, f.parent[child])
        assert False, "cutting a covered edge must fail"
    except HasReplacements:
        pass


def test_uncover_below_zero_raises():
    idx = TwoEdgeIndex(3)
    idx.insert2(0, 1)
    idx.insert2(1, 2)
    try:
        idx._uncover(0, 2)
        assert False
    except RepUnderflow:
        pass


def test_nontree_delete_splits_triangle_into_singletons():
    idx = TwoEdgeIndex(3)
    idx.insert2(0, 1)
    idx.insert2(1, 2)
    idx.insert2(0, 2)
    assert idx.delete2(0, 2) == DeleteKind.NONTREE
    assert not idx.two_edge_connected(0, 1)
    assert not idx.two_edge_connected(1, 2)
    assert idx.connected(0, 2)
    stats = idx.stats()
    assert stats["classes"] == 3
    assert stats["bridges"] == 2
    check_index(idx)


def test_multi_cover_tree_delete_keeps_classes():
    # complete graph on 4 vertices stays 2-edge connected after losing
    # any one edge, so the single class must survive the replacement
    idx = TwoEdgeIndex(4)
    for a, b in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)):
        idx.insert2(a, b)
    before = class_partition(idx)
    assert idx.delete2(0, 1) == DeleteKind.TREE_REPLACED
    assert class_partition(idx) == before
    assert idx.stats()["classes"] == 1
    check_index(idx)


def test_double_cover_delete_can_still_split_classes():
    # square plus a chord: the deleted edge is covered twice, yet one
    # endpoint ends up behind a bridge, so a class must split anyway
    edges = ((0, 1), (1, 2), (2, 3), (3, 0), (0, 2))
    for victim in edges:
        idx = TwoEdgeIndex(4)
        for e in edges:
            idx.insert2(*e)
        assert idx.stats()["classes"] == 1
        idx.delete2(*victim)
        check_index(idx)
    # the concrete stranding case: losing (1,2) leaves vertex 1 pendant
    idx = TwoEdgeIndex(4)
    for e in edges:
        idx.insert2(*e)
    idx.delete2(1, 2)
    assert not idx.two_edge_connected(0, 1)
    assert idx.two_edge_connected(0, 3)
    assert idx.two_edge_connected(0, 2)
    assert idx.connected(0, 1)
    check_index(idx)


def test_single_cover_tree_delete_reuses_the_cover():
    # path 0-1-2 plus a pendant triangle would hide the interesting case;
    # instead: square 0-1-2-3 where the cut edge has exactly one cover
    idx = TwoEdgeIndex(4)
    for a, b in ((0, 1), (1, 2), (2, 3), (3, 0)):
        idx.insert2(a, b)
    assert idx.stats()["classes"] == 1
    tree = [x for x in range(4) if idx.forest.parent[x] != -1]
    child = tree[0]
    out = idx.delete2(child, idx.forest.parent[child])
    assert out == DeleteKind.TREE_REPLACED
    # the square minus one edge is a path: every remaining edge a bridge
    stats = idx.stats()
    assert stats["classes"] == 4
    assert stats["bridges"] == 3
    check_index(idx)


def test_uncovered_tree_delete_splits():
    idx = TwoEdgeIndex(4)
    idx.insert2(0, 1)
    idx.insert2(1, 2)
    idx.insert2(2, 3)
    assert idx.delete2(1, 2) == DeleteKind.TREE_SPLIT
    assert not idx.connected(0, 3)
    assert idx.connected(0, 1)
    check_index(idx)


def test_pendant_triangle_keeps_its_class_through_bridge_delete():
    # 0-1-2 path hanging off triangle 2-3-4
    idx = TwoEdgeIndex(5)
    for a, b in ((0, 1), (1, 2), (2, 3), (3, 4), (4, 2)):
        idx.insert2(a, b)
    stats = idx.stats()
    assert stats["classes"] == 3
    assert stats["largest_class"] == 3
    assert stats["bridges"] == 2
    assert idx.two_edge_connected(3, 4)
    assert not idx.two_edge_connected(1, 2)
    # deleting a triangle edge degrades everything to bridges
    idx.delete2(3, 4)
    stats = idx.stats()
    assert stats["classes"] == 5
    assert stats["bridges"] == 4
    check_index(idx)


def test_insert_merges_classes_across_old_bridges():
    idx = TwoEdgeIndex(6)
    for a, b in ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5)):
        idx.insert2(a, b)
    assert idx.stats()["classes"] == 6
    idx.insert2(0, 5)  # closes the cycle: one class
    assert idx.stats()["classes"] == 1
    assert idx.two_edge_connected(0, 5)
    assert idx.two_edge_connected(2, 4)
    check_index(idx)


def test_error_vocabulary():
    idx = TwoEdgeIndex(4)
    idx.insert2(0, 1)
    try:
        idx.insert2(0, 1)
        assert False
    except DuplicateEdge:
        pass
    try:
        idx.delete2(2, 3)
        assert False
    except EdgeAbsent:
        pass
    with pytest.raises(OutOfRange):
        idx.delete2(10, 1)
    with pytest.raises(SelfLoop):
        idx.delete2(1, 1)


# -- sized sets ---------------------------------------------------------------


def test_sized_union_prefers_first_root_on_ties():
    s = SizedDisjointSet(6)
    assert s.union(0, 1) == 0
    assert s.dsize[0] == 2
    assert s.union(2, 3) == 2
    assert s.union(0, 2) == 0  # equal sizes: first argument's root survives
    assert s.dsize[0] == 4
    assert s.union(4, 0) == 0  # singleton joins the larger set
    assert s.dsize[0] == 5
    assert s.union(4, 0) == 0  # no-op, size unchanged
    assert s.dsize[0] == 5


def test_sized_isolate_and_reroot_move_counts():
    s = SizedDisjointSet(5)
    for v in (1, 2, 3):
        s.union(0, v)
    assert s.dsize[s.find(0)] == 4
    r = s.isolate(3)
    assert s.dsize[r] == 3
    assert s.dsize[3] == 1
    s.reroot(2)
    assert s.find(0) == 2
    assert s.dsize[2] == 3
    s.check_integrity()


# -- property tests -----------------------------------------------------------


def _edges_for(n, seed, count):
    rng = random.Random(seed)
    pool = [(a, b) for a in range(n) for b in range(a + 1, n)]
    rng.shuffle(pool)
    return pool[:count]


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 9), st.data())
def test_random_ops_track_all_oracles(seed, n, data):
    rng = random.Random(seed)
    idx = TwoEdgeIndex(n)
    live = set()
    steps = data.draw(st.integers(5, 40))
    for _ in range(steps):
        if live and rng.random() < 0.4:
            e = rng.choice(sorted(live))
            live.remove(e)
            idx.delete2(*e)
        else:
            a = rng.randrange(n)
            b = rng.randrange(n)
            if a == b:
                continue
            e = (a, b) if a < b else (b, a)
            if e in live:
                continue
            live.add(e)
            idx.insert2(*e)
        check_index(idx)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000), st.integers(3, 12))
def test_cover_walk_meets_at_lowest_common_ancestor(seed, n):
    rng = random.Random(seed)
    idx = TwoEdgeIndex(n)
    for v in range(1, n):
        idx.insert2(rng.randrange(v), v)  # random connected tree
    f = idx.forest
    u = rng.randrange(n)
    v = rng.randrange(n)

    def depth(x):
        d = 0
        while f.parent[x] != -1:
            x = f.parent[x]
            d += 1
        return d

    a, b = u, v
    da, db = depth(a), depth(b)
    while da > db:
        a = f.parent[a]
        da -= 1
    while db > da:
        b = f.parent[b]
        db -= 1
    while a != b:
        a = f.parent[a]
        b = f.parent[b]
    below = set()  # tree edges on the u-v path, named by their child end
    for x in (u, v):
        while x != a:
            below.add(x)
            x = f.parent[x]
    before = list(f.rep)
    idx._place(u, v)
    assert [r - b for r, b in zip(f.rep, before)] == [int(x in below) for x in range(n)]
    idx._uncover(u, v)
    assert f.rep == before


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_dense_then_sparse_lifecycle(seed):
    n = 10
    edges = _edges_for(n, seed, 24)
    idx = TwoEdgeIndex(n)
    for e in edges:
        idx.insert2(*e)
    check_index(idx)
    rng = random.Random(seed + 1)
    order = list(edges)
    rng.shuffle(order)
    for e in order:
        idx.delete2(*e)
        check_index(idx)
    assert idx.graph.m == 0
    assert idx.stats()["classes"] == n
