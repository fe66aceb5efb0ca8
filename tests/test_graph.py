import pytest
from hypothesis import given, strategies as st

from dynconn.errors import OutOfRange, SelfLoop
from dynconn.graph import DynamicGraph


def test_add_remove_roundtrip():
    g = DynamicGraph(4)
    assert g.add_edge(0, 1) is True
    assert g.add_edge(1, 0) is False  # duplicate, either orientation
    assert g.m == 1
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert g.remove_edge(0, 1) is True
    assert g.remove_edge(0, 1) is False  # absent now
    assert g.m == 0
    assert not g.has_edge(0, 1)


def test_edges_canonical():
    g = DynamicGraph(4)
    g.add_edge(2, 1)
    g.add_edge(3, 0)
    assert sorted(g.edges()) == [(0, 3), (1, 2)]


def test_rejects_self_loop_and_range():
    g = DynamicGraph(3)
    with pytest.raises(SelfLoop):
        g.add_edge(1, 1)
    with pytest.raises(OutOfRange):
        g.add_edge(0, 3)
    with pytest.raises(OutOfRange):
        g.remove_edge(-1, 0)


@pytest.mark.parametrize("bad", [1.5, 2.0, "1", None, -1, 3])
def test_vertex_reads_reject_bad_ids(bad):
    # has_edge is the graph's one read by vertex id
    g = DynamicGraph(3)
    g.add_edge(0, 1)
    for args in ((bad, 1), (0, bad), (bad, bad)):
        with pytest.raises(OutOfRange):
            g.has_edge(*args)
    assert g.adj == [{1}, {0}, set()] and g.m == 1


@given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=60))
def test_symmetry_invariant(pairs):
    g = DynamicGraph(10)
    for u, v in pairs:
        if u == v:
            continue
        if g.has_edge(u, v):
            g.remove_edge(u, v)
        else:
            g.add_edge(u, v)
        for x in range(10):
            for y in g.adj[x]:
                assert x in g.adj[y]
    assert g.m == sum(len(a) for a in g.adj) // 2
