import random
import tracemalloc
from operator import attrgetter

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from dynconn.connectivity import ConnectivityIndex
from dynconn.disjoint_set import DisjointSetForest
from dynconn.errors import DuplicateEdge, EdgeAbsent, OutOfRange, SelfLoop
from dynconn.graph import DynamicGraph
from dynconn.oracle import Partition, oracle_components, oracle_connected, oracle_rep
from dynconn.spanning_forest import DeleteKind, InsertKind
from dynconn.two_edge import TwoEdgeIndex
from dynconn.workload import MODES, random_edge_stream


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
    for part in (idx, idx.forest, idx.dsets):
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
    (ConnectivityIndex, ("insert", "delete")),
    (TwoEdgeIndex, ("insert2", "delete2")),
])
def test_bool_ids_raise_out_of_range_on_edge_ops(make, ops):
    # a bool indexes like 0 or 1, and True would sit in an adjacency set as
    # itself; (True, 2) names the live edge (1, 2), (True, 3) an absent one
    idx = make(5)
    for e in [(0, 1), (1, 2), (0, 2), (2, 3)]:
        getattr(idx, ops[0])(*e)
    before = _arrays(idx), idx.graph.m
    for op in ops:
        for args in ((True, 3), (3, True), (True, 2), (False, 3), (True, False)):
            with pytest.raises(OutOfRange):
                getattr(idx, op)(*args)
            assert (_arrays(idx), idx.graph.m) == before, (op, args)
            idx.graph.check_integrity()


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


@pytest.mark.parametrize("n", [1.5, "5", None, -1, True])
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


# -- counters both indexes keep ------------------------------------------------


def test_both_indexes_report_the_same_counters():
    assert ConnectivityIndex(3).counters().keys() == TwoEdgeIndex(3).counters().keys()


@pytest.mark.parametrize("mode", sorted(MODES))
def test_rewires_counts_the_rewired_inserts(mode):
    # a seeded build, then a seeded sample of its edges deleted and put back
    stream = random_edge_stream(300, 1200, seed=5)
    idx = MODES[mode][0](stream.n)
    edges = [(e.u, e.v) for e in stream.events]
    kinds = [idx.insert(*e) for e in edges]
    back = random.Random(5).sample(edges, 400)
    for e in back:
        idx.delete(*e)
    kinds += [idx.insert(*e) for e in back]
    rewired = kinds.count(InsertKind.NONTREE_REWIRED)
    assert rewired > 0
    assert idx.counters()["rewires"] == rewired


@pytest.mark.parametrize("make", [ConnectivityIndex, TwoEdgeIndex])
def test_empty_index_footprint_per_vertex(make):
    # tracemalloc counts the interpreter's own allocations, so the bound
    # does not depend on the host.  CPython 3.11 reads 88 (conn) and 112
    # (2ec) bytes; an empty set per vertex would add 216.
    n = 100_000
    tracemalloc.start()
    try:
        idx = make(n)
        allocated, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert idx.graph.n == n
    assert allocated / n <= 160


# -- state machines: each index against its mode's oracle ----------------------


class IndexMachine(RuleBasedStateMachine):
    """An index under valid ops, checked against its mode's oracle after
    every step, with rejected ops mixed in: out of range, non-int, self
    loop, duplicate and absent edges.  A rejected op must raise its
    DynConnError and leave every array and counter as it was."""

    mode = "conn"

    @initialize(n=st.integers(2, 8))
    def start(self, n):
        self.n = n
        make, self.oracle = MODES[self.mode]
        self.idx = make(n)
        self.edges = set()  # live edges as (u, v) with u < v

    def absent(self):
        n = self.n
        return [(u, v) for u in range(n) for v in range(u + 1, n)
                if (u, v) not in self.edges]

    @precondition(lambda self: self.absent())
    @rule(data=st.data(), flip=st.booleans())
    def insert(self, data, flip):
        e = data.draw(st.sampled_from(self.absent()))
        u, v = e[::-1] if flip else e
        joined = oracle_components(self.idx.graph).same_block(u, v)
        kind = self.idx.insert(u, v)
        self.edges.add(e)
        assert (kind is InsertKind.TREE_EDGE) == (not joined)

    @precondition(lambda self: self.edges)
    @rule(data=st.data(), flip=st.booleans())
    def delete(self, data, flip):
        e = data.draw(st.sampled_from(sorted(self.edges)))
        u, v = e[::-1] if flip else e
        kind = self.idx.delete(u, v)
        self.edges.remove(e)
        split = not oracle_components(self.idx.graph).same_block(u, v)
        assert (kind is DeleteKind.TREE_SPLIT) == split

    @rule(a=st.integers(0, 7), b=st.integers(0, 7))
    def query(self, a, b):
        a, b = a % self.n, b % self.n
        assert self.idx.query(a, b) == self.oracle(self.idx.graph).same_block(a, b)

    @rule(data=st.data(), a=st.integers(0, 7), b=st.integers(0, 7),
          junk=st.sampled_from([1.5, 2.0, "1", None]))
    def rejected(self, data, a, b, junk):
        n = self.n
        a, b = a % n, b % n
        cases = [(op, args, OutOfRange) for op in ("insert", "delete", "query")
                 for args in ((a, n + b), (-1 - a, b), (junk, b), (a, junk))]
        cases += [(op, (a, a), SelfLoop) for op in ("insert", "delete")]
        if self.edges:
            cases.append(("insert", data.draw(st.sampled_from(sorted(self.edges))),
                          DuplicateEdge))
        if self.absent():
            cases.append(("delete", data.draw(st.sampled_from(self.absent())), EdgeAbsent))
        op, args, err = data.draw(st.sampled_from(cases))
        before = _arrays(self.idx)
        with pytest.raises(err):
            getattr(self.idx, op)(*args)
        assert _arrays(self.idx) == before

    @invariant()
    def matches_oracle(self):
        idx = self.idx
        g = idx.graph
        assert set(g.edges()) == self.edges
        assert Partition(idx.partition()) == self.oracle(g)
        g.check_integrity()
        idx.forest.check_integrity()
        self.check_mode()

    def check_mode(self):
        self.idx.dsets.check_integrity()
        self.idx._audit()


class TwoEdgeIndexMachine(IndexMachine):
    mode = "2ec"

    def check_mode(self):
        f = self.idx.forest
        self.idx.dsets.check_integrity()
        stored = {(min(x, p), max(x, p)): f.rep[x]
                  for x, p in enumerate(f.parent) if p != -1}
        assert stored == oracle_rep(self.idx.graph, f.parent)


_MACHINE_SETTINGS = settings(max_examples=60, stateful_step_count=40, deadline=None)
TestIndexMachine = IndexMachine.TestCase
TestIndexMachine.settings = _MACHINE_SETTINGS
TestTwoEdgeIndexMachine = TwoEdgeIndexMachine.TestCase
TestTwoEdgeIndexMachine.settings = _MACHINE_SETTINGS
