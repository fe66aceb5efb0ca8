import random
from operator import attrgetter

import pytest
from hypothesis import given, settings, strategies as st

from dynconn.connectivity import ConnectivityIndex
from dynconn.disjoint_set import DisjointSetForest
from dynconn.errors import DuplicateEdge, EdgeAbsent, OutOfRange, SelfLoop
from dynconn.graph import DynamicGraph
from dynconn.oracle import Partition, oracle_components, oracle_connected
from dynconn.spanning_forest import DeleteKind, InsertKind
from dynconn.two_edge import TwoEdgeIndex


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


def _arrays(idx):
    """Copies of every array and counter the index and its parts hold."""
    out = {"adj": [sorted(a) for a in idx.graph.adj], "m": idx.graph.m,
           "counters": idx.counters()}
    for part in (idx, idx.forest, getattr(idx, "dsets", None), getattr(idx, "csets", None)):
        if part is not None:
            for k, v in vars(part).items():
                if isinstance(v, (list, int)):
                    out[(type(part).__name__, k)] = list(v) if isinstance(v, list) else v
    return out


@pytest.mark.parametrize("bad", [1.5, 2.0, "1", None])
@pytest.mark.parametrize("make, ops", [
    (ConnectivityIndex, ("insert", "delete", "connected", "forest.query")),
    (TwoEdgeIndex, ("insert2", "delete2", "two_edge_connected", "forest.query")),
])
def test_non_int_ids_raise_out_of_range_and_change_nothing(make, ops, bad):
    idx = make(5)
    for e in [(0, 1), (1, 2), (0, 2), (2, 3)]:
        getattr(idx, ops[0])(*e)
    before = _arrays(idx)
    for op in ops:
        for args in ((bad, 2), (2, bad), (bad, bad)):
            with pytest.raises(OutOfRange):
                attrgetter(op)(idx)(*args)
            assert _arrays(idx) == before, (op, args)


@pytest.mark.parametrize("make, ops", [
    (ConnectivityIndex, ("insert", "delete", "connected", "forest.query")),
    (TwoEdgeIndex, ("insert2", "delete2", "two_edge_connected", "forest.query")),
])
def test_rejected_ops_raise_their_error_and_change_nothing(make, ops):
    idx = make(6)
    # a cycle, a pendant tree edge and a lone vertex: both edge kinds live
    for e in [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4)]:
        getattr(idx, ops[0])(*e)
    insert, delete, *queries = (attrgetter(op)(idx) for op in ops)
    before = _arrays(idx)
    cases = [(insert, (1, 0), DuplicateEdge), (insert, (3, 4), DuplicateEdge),
             (delete, (0, 2), EdgeAbsent), (delete, (4, 5), EdgeAbsent)]
    for op in (insert, delete):
        cases += [(op, (2, 2), SelfLoop), (op, (5, 5), SelfLoop)]
    for op in (insert, delete, *queries):
        cases += [(op, args, OutOfRange) for args in ((0, 6), (6, 0), (-1, 2), (2, -7))]
    for op, args, err in cases:
        with pytest.raises(err):
            op(*args)
        assert _arrays(idx) == before, (op.__name__, args)


@pytest.mark.parametrize("n", [1.5, "5", None, -1])
@pytest.mark.parametrize("make", [ConnectivityIndex, TwoEdgeIndex, DynamicGraph,
                                  DisjointSetForest])
def test_bad_vertex_count_raises_out_of_range(make, n):
    with pytest.raises(OutOfRange):
        make(n)


def test_protocol_names_alias_the_two_edge_names():
    # the benchmark binds the 2-suffixed names; the protocol must be them
    assert TwoEdgeIndex.insert is TwoEdgeIndex.insert2
    assert TwoEdgeIndex.delete is TwoEdgeIndex.delete2
    assert TwoEdgeIndex.query is TwoEdgeIndex.two_edge_connected
    assert ConnectivityIndex.query is ConnectivityIndex.connected
    assert (ConnectivityIndex.mode, TwoEdgeIndex.mode) == ("conn", "2ec")


def test_audit_neither_compresses_nor_counts():
    idx = ConnectivityIndex(12)
    rng = random.Random(4)
    for v in range(1, 12):
        idx.insert(rng.randrange(v), v)
    idx.delete(*next(idx.graph.edges()))
    ds = idx.dsets
    before = (ds.counters(), list(ds._parent))
    idx._audit()
    assert (ds.counters(), list(ds._parent)) == before


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
    idx = ConnectivityIndex(n)
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
            assert idx.forest.query(u, v) == want
        idx._audit()
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
    ds = idx.dsets
    base = ds.counters()
    assert idx.delete(3, 4) is DeleteKind.TREE_SPLIT
    delta = {k: v - base[k] for k, v in ds.counters().items()}
    # one isolate per vertex of the smaller half, each but its root then
    # linked under that root, and the reroot's find the only one
    assert delta["isolate_calls"] == 3 and delta["link_calls"] == 2
    assert delta["find_calls"] == 1
    assert index_partition(idx) == oracle_components(idx.graph)
    ds.check_integrity()


@pytest.mark.parametrize("small", [4, 6])
def test_split_makes_one_set_find(small):
    # a path of 14, with three chords, cut after its first `small` vertices
    n = 14
    idx = ConnectivityIndex(n)
    for v in range(1, n):
        idx.insert(v - 1, v)
    for e in [(0, 2), (7, 9), (10, 12)]:
        idx.insert(*e)
    ds = idx.dsets
    calls, links, finds = ds.isolate_calls, ds.link_calls, ds.find_calls
    u, v = small - 1, small
    assert idx.forest.parent[u] == v or idx.forest.parent[v] == u
    assert idx.delete(u, v) is DeleteKind.TREE_SPLIT
    side = min(idx.forest.size[idx.forest._root(x)] for x in (u, v))
    assert side >= 4
    assert ds.find_calls - finds == 1
    assert ds.isolate_calls - calls == side and ds.link_calls - links == side - 1
    assert roots_consistent(idx)
    assert index_partition(idx) == oracle_components(idx.graph)
    ds.check_integrity()
