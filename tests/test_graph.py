import pytest
from hypothesis import given, strategies as st

from dynconn.errors import InvariantError, OutOfRange, SelfLoop
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
        g.check_integrity()
    assert g.m == sum(len(a) for a in g.adj) // 2


def _shared(g):
    """Vertices still reading the one shared empty adjacency."""
    empty = DynamicGraph(1).adj[0]
    return [x for x, a in enumerate(g.adj) if a is empty]


def test_vertices_share_one_empty_adjacency_until_their_first_edge():
    g = DynamicGraph(5)
    assert all(a is g.adj[0] for a in g.adj) and g.adj[0] == set()
    assert isinstance(g.adj[0], frozenset)
    g.check_integrity()
    assert g.remove_edge(0, 1) is False  # absent
    for args, err in [((2, 2), SelfLoop), ((0, 5), OutOfRange), ((-1, 3), OutOfRange),
                      ((1.5, 3), OutOfRange), ((None, 3), OutOfRange),
                      ((3, "4"), OutOfRange)]:
        for op in (g.add_edge, g.remove_edge):
            with pytest.raises(err):
                op(*args)
    assert _shared(g) == [0, 1, 2, 3, 4] and not g.adj[0]
    assert g.m == 0 and list(g.edges()) == []

    assert g.add_edge(3, 1) is True
    assert _shared(g) == [0, 2, 4]
    assert type(g.adj[1]) is set and type(g.adj[3]) is set and g.adj[1] is not g.adj[3]
    assert g.adj == [set(), {3}, set(), {1}, set()] and not g.adj[0]
    assert g.has_edge(1, 3) and not g.has_edge(0, 1) and list(g.edges()) == [(1, 3)]
    assert g.m == 1
    g.check_integrity()

    own = g.adj[1], g.adj[3]
    assert g.remove_edge(1, 3) is True
    # an emptied vertex keeps its own set
    assert g.adj[1] is own[0] and g.adj[3] is own[1] and own == (set(), set())
    assert _shared(g) == [0, 2, 4] and not g.adj[0]
    assert g.m == 0 and list(g.edges()) == [] and not g.has_edge(1, 3)
    g.check_integrity()


@pytest.mark.parametrize("corrupt, match", [
    (lambda g: g.adj[0].discard(1), "listed at 1 only"),
    (lambda g: g.adj[2].add(2), "lists itself"),
    (lambda g: setattr(g, "m", 3), "m is 3"),
    (lambda g: g.adj.__setitem__(3, frozenset({0})), "frozenset adjacency"),
    (lambda g: g.adj[0].add(7), "listed at 0 only"),
], ids=["one-sided", "self-loop", "edge-count", "foreign-frozenset", "out-of-range"])
def test_check_integrity_names_the_fault(corrupt, match):
    g = DynamicGraph(4)
    g.add_edge(0, 1)
    g.add_edge(1, 2)
    g.check_integrity()
    corrupt(g)
    with pytest.raises(InvariantError, match=match):
        g.check_integrity()
