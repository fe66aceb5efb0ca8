import random

import pytest
from hypothesis import given, settings, strategies as st

from dynconn.connectivity import ConnectivityIndex
from dynconn.errors import DuplicateEdge, EdgeAbsent, OutOfRange
from dynconn.oracle import Partition, oracle_components, oracle_connected
from dynconn.spanning_forest import DeleteKind, InsertKind


def index_partition(idx):
    n = idx.graph.n
    return Partition([idx.dsets.find(v) for v in range(n)])


def roots_consistent(idx):
    return all(idx.dsets.find(r) == r for r in idx.forest.roots())


def test_basic_lifecycle():
    idx = ConnectivityIndex(5)
    assert not idx.connected(0, 4)
    assert idx.insert(0, 1) is InsertKind.TREE_EDGE
    assert idx.insert(1, 2) is InsertKind.TREE_EDGE
    assert idx.insert(0, 2) in (InsertKind.NONTREE_NOOP, InsertKind.NONTREE_REWIRED)
    assert idx.connected(0, 2) and not idx.connected(0, 3)
    assert idx.delete(1, 2) is DeleteKind.NONTREE or idx.connected(0, 2)
    assert idx.connected(0, 2)  # triangle survives any single deletion
    assert roots_consistent(idx)


def test_split_rebuilds_small_set():
    idx = ConnectivityIndex(6)
    for e in [(0, 1), (1, 2), (3, 4), (4, 5)]:
        idx.insert(*e)
    assert idx.insert(2, 3) is InsertKind.TREE_EDGE
    assert idx.connected(0, 5)
    assert idx.delete(2, 3) is DeleteKind.TREE_SPLIT
    assert not idx.connected(0, 5)
    assert idx.connected(0, 2) and idx.connected(3, 5)
    assert index_partition(idx) == oracle_components(idx.graph)
    assert roots_consistent(idx)


def test_replacement_keeps_one_component():
    idx = ConnectivityIndex(4)
    for e in [(0, 1), (1, 2), (2, 3), (3, 0)]:
        idx.insert(*e)
    # cycle: deleting any edge keeps everything connected
    assert idx.delete(1, 2) in (DeleteKind.NONTREE, DeleteKind.TREE_REPLACED)
    for u in range(4):
        for v in range(4):
            assert idx.connected(u, v)
    assert roots_consistent(idx)


def test_error_vocabulary():
    idx = ConnectivityIndex(3)
    idx.insert(0, 1)
    with pytest.raises(DuplicateEdge):
        idx.insert(1, 0)
    with pytest.raises(EdgeAbsent):
        idx.delete(0, 2)
    with pytest.raises(OutOfRange):
        idx.connected(0, 3)


def test_component_stats():
    idx = ConnectivityIndex(5)
    idx.insert(0, 1)
    idx.insert(1, 2)
    stats = idx.stats()
    assert stats["vertices"] == 5
    assert stats["edges"] == 2
    assert stats["components"] == 3
    assert stats["largest_component"] == 3
    assert 0.0 < stats["avg_depth"] < 2.0


def test_queries_agree_three_ways_small_fuzz():
    rng = random.Random(11)
    n = 24
    idx = ConnectivityIndex(n, validate=True)
    edges = []
    for step in range(800):
        r = rng.random()
        if r < 0.45 or not edges:
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v and not idx.graph.has_edge(u, v):
                idx.insert(u, v)
                edges.append((u, v))
        elif r < 0.8:
            i = rng.randrange(len(edges))
            edges[i], edges[-1] = edges[-1], edges[i]
            idx.delete(*edges.pop())
        else:
            u, v = rng.randrange(n), rng.randrange(n)
            want = oracle_connected(idx.graph, u, v)
            assert idx.connected(u, v) == want
            assert idx.tree_connected(u, v) == want
        if step % 50 == 0:
            assert index_partition(idx) == oracle_components(idx.graph)
            assert roots_consistent(idx)
    idx.forest.check_integrity()
    idx.dsets.check_integrity()


@given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=90))
@settings(max_examples=80, deadline=None)
def test_partitions_track_oracle(pairs):
    idx = ConnectivityIndex(10)
    for u, v in pairs:
        if u == v:
            continue
        if idx.graph.has_edge(u, v):
            idx.delete(u, v)
        else:
            idx.insert(u, v)
    assert index_partition(idx) == oracle_components(idx.graph)
    assert Partition([idx.forest._root(v) for v in range(10)]) == index_partition(idx)
    assert roots_consistent(idx)


def test_split_isolates_count_matches_small_side():
    idx = ConnectivityIndex(8)
    for e in [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6)]:
        idx.insert(*e)
    idx.insert(3, 4)
    base = idx.dsets.isolate_calls
    assert idx.delete(3, 4) is DeleteKind.TREE_SPLIT
    # one isolate per vertex of the smaller half
    assert idx.dsets.isolate_calls - base == 3
    assert index_partition(idx) == oracle_components(idx.graph)
