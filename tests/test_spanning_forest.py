import pytest
from hypothesis import given, settings, strategies as st

from dynconn.connectivity import ConnectivityIndex
from dynconn.errors import AlreadyRoot
from dynconn.graph import DynamicGraph
from dynconn.oracle import Partition, oracle_components
from dynconn.spanning_forest import DeleteKind, InsertKind, SpanningForest


def make(n, edges=()):
    g = DynamicGraph(n)
    for u, v in edges:
        g.add_edge(u, v)
    return g, SpanningForest(g)


def recording(idx):
    """List that collects every DeletionOutcome of the index's forest."""
    outs = []
    delete_edge = idx.forest.delete_edge

    def record(u, v):
        out = delete_edge(u, v)
        outs.append(out)
        return out

    idx.forest.delete_edge = record
    return outs


def shape(forest, parent, size):
    """Install an explicit tree shape, then audit it."""
    forest.parent[:] = parent
    forest.size[:] = size
    forest.check_integrity()


def forest_partition(forest):
    return Partition([forest._root(v) for v in range(len(forest.parent))])


def test_reroot_chain():
    g, f = make(3, [(0, 1), (1, 2)])
    shape(f, [-1, 0, 1], [3, 2, 1])
    assert f.reroot(2) == 2
    assert f.parent == [1, 2, -1]
    assert f.size == [1, 2, 3]
    f.check_integrity()
    # idempotent on the root
    f.reroot(2)
    assert f.parent == [1, 2, -1]


def test_unlink_updates_ancestor_sizes():
    g, f = make(3, [(0, 1), (1, 2)])
    shape(f, [-1, 0, 1], [3, 2, 1])
    assert f.unlink(1) == 0
    assert f.parent == [-1, -1, 1]
    assert f.size == [1, 2, 1]
    with pytest.raises(AlreadyRoot):
        f.unlink(0)


def test_link_pulls_heavy_vertex_to_root():
    # 2-vertex tree (0 root, 1 leaf) + 3-chain rooted at 2; attaching the
    # chain under the leaf gives the leaf 4 of 5 vertices -> it takes over
    g, f = make(5)
    shape(f, [-1, 0, -1, 2, 3], [2, 1, 3, 2, 1])
    assert f.link(2, 1, 0) == 1
    assert f.parent == [1, -1, 1, 2, 3]
    assert f.size == [1, 5, 3, 2, 1]
    f.check_integrity()


def test_link_keeps_root_when_balanced():
    g, f = make(4)
    shape(f, [-1, 0, 0, -1], [3, 1, 1, 1])
    assert f.link(3, 1, 0) == 0
    assert f.parent == [-1, 0, 0, 1]
    assert f.size == [4, 2, 1, 1]


def test_insert_tree_edge_smaller_under_larger():
    idx = ConnectivityIndex(6)
    idx.insert(0, 1)
    idx.insert(0, 2)
    f = idx.forest
    assert (f.parent, f.size) == ([-1, 0, 0, -1, -1, -1], [3, 1, 1, 1, 1, 1])
    assert idx.insert(5, 1) is InsertKind.TREE_EDGE
    assert f.parent[5] == 1  # singleton went under the size-3 tree
    f.check_integrity()
    # equal sizes: first argument's tree is the one that moves
    idx2 = ConnectivityIndex(2)
    assert idx2.insert(0, 1) is InsertKind.TREE_EDGE
    assert idx2.forest.parent == [1, -1]


def test_insert_nontree_small_gap_is_noop():
    g, f = make(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    shape(f, [-1, 0, 1, 2, 3], [5, 4, 3, 2, 1])
    g.add_edge(0, 2)  # not a must for the forest, keeps the graph honest
    kind, root = f.insert_nontree(2, 1)
    assert kind is InsertKind.NONTREE_NOOP
    assert root == 0
    assert f.parent == [-1, 0, 1, 2, 3]


def test_insert_nontree_gap4_moves_one_ancestor():
    g, f = make(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    shape(f, [-1, 0, 1, 2, 3], [5, 4, 3, 2, 1])
    g.add_edge(4, 0)
    kind, root = f.insert_nontree(4, 0)
    assert kind is InsertKind.NONTREE_REWIRED
    assert root == 0
    assert f.parent == [-1, 0, 1, 4, 0]
    assert f.size == [5, 2, 1, 1, 2]
    f.check_integrity()
    assert f.average_depth() == pytest.approx(1.2)  # down from 2.0


def test_insert_nontree_gap6_moves_two_ancestors():
    # closing a chord from depth 6 to the root carries the deep endpoint
    # plus its two nearest ancestors across, nothing more
    edges = [(i, i + 1) for i in range(6)]
    g, f = make(7, edges)
    shape(f, [-1, 0, 1, 2, 3, 4, 5], [7, 6, 5, 4, 3, 2, 1])
    g.add_edge(6, 0)
    before = f.average_depth()
    kind, root = f.insert_nontree(6, 0)
    assert kind is InsertKind.NONTREE_REWIRED
    assert root == 0
    assert f.parent == [-1, 0, 1, 2, 5, 6, 0]
    assert f.size == [7, 3, 2, 1, 1, 2, 3]
    assert f.average_depth() < before
    f.check_integrity()


def test_delete_nontree_is_free():
    g, f = make(4, [(0, 1), (1, 2), (1, 3), (2, 3)])
    shape(f, [1, -1, 1, 1], [1, 4, 1, 1])
    g.remove_edge(2, 3)
    out = f.delete_edge(2, 3)
    assert out.kind is DeleteKind.NONTREE
    assert out.replaced and out.visited == [] and out.probes == 0
    assert f.parent == [1, -1, 1, 1]
    assert f.size == [1, 4, 1, 1]


def test_delete_two_vertex_split():
    idx = ConnectivityIndex(2)
    f = idx.forest
    outs = recording(idx)
    assert idx.insert(0, 1) is InsertKind.TREE_EDGE
    assert idx.delete(0, 1) is DeleteKind.TREE_SPLIT
    (out,) = outs
    assert out.kind is DeleteKind.TREE_SPLIT
    assert not out.replaced
    assert out.small_root == 0 and out.big_root == 1
    assert out.visited == [0] and out.probes == 0
    assert f.parent == [-1, -1]


def test_delete_tree_edge_replacement_found():
    # star at 1 with chord (2,3): deleting spoke (1,2) reconnects through
    # the chord, hanging the detached vertex under the chord's far end
    idx = ConnectivityIndex(4)
    f = idx.forest
    outs = recording(idx)
    for e in [(0, 1), (1, 2), (1, 3), (2, 3)]:
        idx.insert(*e)
    assert f.parent == [1, -1, 1, 1]
    assert idx.delete(1, 2) is DeleteKind.TREE_REPLACED
    (out,) = outs
    assert out.kind is DeleteKind.TREE_REPLACED
    assert out.replaced
    assert out.small_root == 2 and out.big_root == 1
    assert out.visited == [2, 3, 1] and out.probes == 1
    assert f.parent == [1, -1, 3, 1]
    assert f.size == [1, 4, 1, 2]
    f.check_integrity()


def test_delete_swaps_when_detached_side_is_bigger():
    g, f = make(4, [(0, 1), (1, 2), (1, 3)])
    shape(f, [-1, 0, 1, 1], [4, 3, 1, 1])
    g.remove_edge(0, 1)
    out = f.delete_edge(0, 1)
    assert out.kind is DeleteKind.TREE_SPLIT
    # the lone old root is the side that gets searched
    assert out.small_root == 0 and out.big_root == 1
    assert out.visited == [0]
    assert forest_partition(f) == oracle_components(g)


def test_queries_do_not_mutate():
    idx = ConnectivityIndex(6)
    for e in [(0, 1), (1, 2), (2, 3), (3, 4)]:
        idx.insert(*e)
    f = idx.forest
    snap = (list(f.parent), list(f.size))
    for u in range(6):
        for v in range(6):
            f.query(u, v)
            f.find_root(u)
    assert (f.parent, f.size) == ([*snap[0]], [*snap[1]])


ops_strategy = st.lists(
    st.tuples(st.integers(0, 11), st.integers(0, 11)), min_size=1, max_size=120
)


@given(ops_strategy)
@settings(max_examples=120, deadline=None)
def test_random_ops_agree_with_oracle(pairs):
    idx = ConnectivityIndex(12)
    g, f = idx.graph, idx.forest
    outs = recording(idx)
    for u, v in pairs:
        if u == v:
            continue
        if g.has_edge(u, v):
            idx.delete(u, v)
            out = outs[-1]
            # no vertex is examined twice during one replacement search
            assert len(out.visited) == len(set(out.visited)) <= 12
        else:
            idx.insert(u, v)
        for x in range(12):
            p = f.parent[x]
            if p != -1:
                assert g.has_edge(x, p)  # tree edges are real edges
    f.check_integrity()
    assert forest_partition(f) == oracle_components(g)


@given(ops_strategy, st.integers(0, 11))
@settings(max_examples=60, deadline=None)
def test_reroot_keeps_partition_and_sizes(pairs, pivot):
    idx = ConnectivityIndex(12)
    g, f = idx.graph, idx.forest
    for u, v in pairs:
        if u != v and not g.has_edge(u, v):
            idx.insert(u, v)
    before = forest_partition(f)
    f.reroot(pivot)
    assert f.parent[pivot] == -1
    f.check_integrity()
    assert forest_partition(f) == before
