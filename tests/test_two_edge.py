"""Covered forest, sized sets, and the 2-edge connectivity index."""

import os
import random
import subprocess
import sys
import textwrap

import pytest
from hypothesis import assume, given, settings, strategies as st

from dynconn.errors import (
    DuplicateEdge,
    EdgeAbsent,
    HasReplacements,
    InvariantError,
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
    return Partition([idx.dsets.find(v) for v in range(idx.graph.n)])


def check_index(idx):
    """Every truth the index is supposed to maintain, against oracles."""
    g = idx.graph
    assert Partition([idx.forest._root(v) for v in range(g.n)]) == oracle_components(g)
    assert forest_rep_map(idx.forest) == oracle_rep(g, idx.forest.parent)
    assert all(idx.forest.rep[r] == 0 for r in idx.forest.roots())  # no edge above
    truth = oracle_two_edge_components(g)
    assert class_partition(idx) == truth
    assert Partition([idx.forest.ecc_root(v) for v in range(g.n)]) == truth
    idx.forest.check_integrity()
    idx.dsets.check_integrity()


def _no_cover_walks(idx):
    """Make the instance's cover walks raise: a tree delete must not walk."""
    def refuse(*_):
        raise AssertionError("tree delete ran a cover walk")
    idx._place = refuse
    idx._cover = refuse


# -- frozen small cases -------------------------------------------------------


def test_triangle_covers_both_tree_edges():
    idx = TwoEdgeIndex(3)
    assert idx.insert2(0, 1) == InsertKind.TREE_EDGE
    assert idx.insert2(1, 2) == InsertKind.TREE_EDGE
    assert idx.insert2(0, 2) == InsertKind.NONTREE_NOOP
    assert idx.forest.rep == [1, 0, 1]  # root 1 holds no edge above it
    assert idx.two_edge_connected(0, 2)
    assert idx.two_edge_connected(1, 2)
    assert idx.dsets.dsize[idx.dsets.find(0)] == 3
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
    # with both edges covered, each count moves one step down the
    # reversed path and the new root takes the old root's zero
    f.rep = [2, 1, 0]  # (0,1) counts 2 at 0, (1,2) counts 1 at 1
    assert f.reroot(0) == [0, 1, 2]
    assert f.parent == [-1, 0, 1]
    assert f.rep == [0, 2, 1]


def test_link_of_a_covered_tree_keeps_counts_on_physical_edges():
    # the chain 0-1-2 rooted at 0, both edges covered by (0, 2), joins the
    # lone vertex 3 at its leaf 2: the reroot inside link moves each count
    # one step down the flipped path, and the new edge (2, 3) counts 0
    g = DynamicGraph(4)
    for a, b in ((0, 1), (1, 2), (0, 2), (2, 3)):
        g.add_edge(a, b)
    f = TwoEdgeForest(g)
    f.parent = [-1, 0, 1, -1]
    f.size = [3, 2, 1, 1]
    f.rep = [0, 1, 1, 0]
    assert f.link(2, 3, 3) == 3
    assert f.parent == [1, 2, 3, -1]
    assert f.rep == [1, 1, 0, 0]
    assert forest_rep_map(f) == oracle_rep(g, f.parent)
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
        idx._cover(0, 2, -1)
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
    assert idx.forest.query(0, 2)
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
    _no_cover_walks(idx)
    assert idx.delete2(1, 2) == DeleteKind.TREE_REPLACED
    assert not idx.two_edge_connected(0, 1)
    assert idx.two_edge_connected(0, 3)
    assert idx.two_edge_connected(0, 2)
    assert idx.forest.query(0, 1)
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
    _no_cover_walks(idx)
    out = idx.delete2(child, idx.forest.parent[child])
    assert out == DeleteKind.TREE_REPLACED
    # the square minus one edge is a path: every remaining edge a bridge
    stats = idx.stats()
    assert stats["classes"] == 4
    assert stats["bridges"] == 3
    check_index(idx)


def test_tree_delete_splits_a_class_of_three_in_one_carve():
    # triangles 0-1-2 and 3-4-5 joined by (0,5) and (2,3): losing the
    # tree edge (0,5) leaves (2,3) a bridge between two classes of three
    idx = TwoEdgeIndex(6)
    for e in ((0, 5), (0, 1), (1, 2), (2, 0), (5, 4), (4, 3), (3, 5), (2, 3)):
        idx.insert2(*e)
    assert idx.forest.parent[0] == 5 or idx.forest.parent[5] == 0
    assert idx.stats()["classes"] == 1
    carved = []
    split_off = idx.dsets.split_off

    def record(small, members, root):
        carved.append(sorted(members))
        return split_off(small, members, root)
    idx.dsets.split_off = record
    base = idx.dsets.counters()
    _no_cover_walks(idx)
    assert idx.delete2(0, 5) == DeleteKind.TREE_REPLACED
    assert carved in ([[0, 1, 2]], [[3, 4, 5]])
    after = idx.dsets.counters()
    assert after["isolate_calls"] - base["isolate_calls"] == 3
    assert after["link_calls"] - base["link_calls"] == 2
    assert sorted(idx.dsets.dsize[r] for r in idx.dsets.root_vertices()) == [3, 3]
    assert not idx.two_edge_connected(2, 3) and idx.forest.query(2, 3)
    check_index(idx)


def test_uncovered_tree_delete_splits():
    idx = TwoEdgeIndex(4)
    idx.insert2(0, 1)
    idx.insert2(1, 2)
    idx.insert2(2, 3)
    assert idx.delete2(1, 2) == DeleteKind.TREE_SPLIT
    assert not idx.forest.query(0, 3)
    assert idx.forest.query(0, 1)
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


# -- tree-edge swap -----------------------------------------------------------


def _ancestors(parent, a):
    out = [a]
    while parent[a] != -1:
        a = parent[a]
        out.append(a)
    return out


def _built(n, edges):
    idx = TwoEdgeIndex(n)
    for e in edges:
        idx.insert2(*e)
    return idx


def test_swap_moves_covers_on_both_branches_of_each_side():
    # the replacement (7, 2) has its small end below the cut's child and
    # its big end on another branch than the cut's parent, so the cycle
    # path has edges on all three chains.  (3, 7) closes while 7 hangs
    # one level below 3, so no insert rewires the tree.
    idx = TwoEdgeIndex(8)
    kinds = [idx.insert2(*e) for e in ((0, 1), (0, 2), (3, 4), (0, 6), (4, 7),
                                       (3, 7), (1, 3), (4, 5), (2, 7))]
    tree, noop = InsertKind.TREE_EDGE, InsertKind.NONTREE_NOOP
    assert kinds == [tree] * 5 + [noop, tree, tree, noop]
    assert idx.forest.parent == [1, -1, 0, 1, 3, 4, 0, 4]
    assert idx.forest.rep == [1, 0, 1, 1, 2, 0, 0, 2]
    seen = {}
    shift = idx._shift_covers

    def spy(s, t, crossing, side, k):
        parent = idx.forest.parent
        if side == 0:
            seen["small"] = s != t
        else:
            seen["big"] = (s not in _ancestors(parent, t)
                           and t not in _ancestors(parent, s))
        return shift(s, t, crossing, side, k)

    idx._shift_covers = spy
    _no_cover_walks(idx)
    assert idx.delete2(3, 4) == DeleteKind.TREE_REPLACED
    assert seen == {"small": True, "big": True}
    check_index(idx)


def test_tree_deletes_never_walk_covers():
    idx = _built(6, ((0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)))
    _no_cover_walks(idx)
    f = idx.forest
    bridge = (2, 3)
    assert f.parent[2] == 3 or f.parent[3] == 2
    assert idx.delete2(*bridge) == DeleteKind.TREE_SPLIT
    check_index(idx)
    tree = [(x, f.parent[x]) for x in (0, 1, 2) if f.parent[x] != -1]
    assert idx.delete2(*tree[0]) == DeleteKind.TREE_REPLACED
    check_index(idx)
    assert idx.counters()["tree_deletes"] == 2
    assert idx.counters()["splits"] == 1


# -- depth-halving rewire on insert -------------------------------------------


_DEEP_7 = ((0, 1), (0, 2), (1, 3), (3, 4), (4, 5), (0, 6), (4, 7), (2, 7))


def test_insert_refuses_to_lift_a_lone_vertex():
    # root 1; 7 hangs at depth 3 under 4, 3 sits at depth 1.  (3, 7) has
    # gap 2, so the only edge it may cut is f = (7, 4), which (2, 7) and
    # (3, 7) cover: 2 <= gap, but 7 is a leaf, so the tree stays and only
    # the covers on (3, 7)'s path change
    idx = _built(8, _DEEP_7)
    assert idx.forest.parent == [1, -1, 0, 1, 3, 4, 0, 4]
    assert idx.forest.rep == [1, 0, 1, 1, 1, 0, 0, 1]
    classes = class_partition(idx)
    assert idx.insert2(3, 7) == InsertKind.NONTREE_NOOP
    assert idx.forest.parent == [1, -1, 0, 1, 3, 4, 0, 4]
    assert idx.forest.rep == [1, 0, 1, 1, 2, 0, 0, 2]
    assert class_partition(idx) == classes  # (2, 7) had merged 3 and 7
    assert idx.counters()["rewires"] == 0
    check_index(idx)


def test_insert_keeps_the_tree_when_the_cut_edge_has_more_covers_than_gap():
    # (7, 8) hangs 8 under 7, so 7 heads two vertices; the 9-vertex tree
    # roots at 3, two levels above 7.  (5, 7) adds a third cover to
    # (7, 4): 3 > gap 2
    idx = _built(9, _DEEP_7 + ((7, 8), (5, 7)))
    parent = list(idx.forest.parent)
    assert parent == [1, 3, 0, -1, 3, 4, 0, 4, 7]
    assert idx.insert2(3, 7) == InsertKind.NONTREE_NOOP
    assert idx.forest.parent == parent
    assert idx.forest.rep == [1, 1, 1, 0, 2, 1, 0, 3, 0]
    assert idx.counters()["rewires"] == 0
    check_index(idx)


def test_rewire_when_the_cut_edge_holds_the_bigger_side():
    # the path 0-1-2 with 3 and 4 under 2, rooted at 0 as a split can
    # leave it.  (0, 2) cuts f = (2, 1), below which 3 of the 5 vertices
    # hang, so the cut is rerooted and (1, 0) is the scanned side
    idx = TwoEdgeIndex(5)
    for a, b in ((0, 1), (1, 2), (2, 3), (2, 4)):
        idx.graph.add_edge(a, b)
    f = idx.forest
    f.parent = [-1, 0, 1, 2, 2]
    f.size = [5, 4, 3, 1, 1]
    check_index(idx)
    assert idx.insert2(0, 2) == InsertKind.NONTREE_REWIRED
    assert (f.parent, f.size, f.rep) == ([2, 0, -1, 2, 2], [2, 1, 5, 1, 1],
                                         [1, 1, 0, 0, 0])
    check_index(idx)


def _hand_built(parent, nontree):
    """Index over the tree `parent`, sizes derived, plus non-tree edges
    placed by their cover walks alone, so that setting up never rewires."""
    n = len(parent)
    idx = TwoEdgeIndex(n)
    size = [1] * n
    for x in sorted(range(n), key=lambda x: -len(_ancestors(parent, x))):
        if parent[x] != -1:
            idx.graph.add_edge(x, parent[x])
            size[parent[x]] += size[x]
    idx.forest.parent = list(parent)
    idx.forest.size = size
    for e in nontree:
        idx.graph.add_edge(*e)
        idx._cover(*e, 1)
    check_index(idx)
    return idx


def test_insert_falls_back_to_a_lower_subtree_when_halfway_is_over_the_cap():
    # the path 0-1-2-3-4-5-6 rooted at 0, with 7 under 3.  (5, 0) has gap
    # 5, so the walk from 5 reaches the halfway edge (3, 2), which five
    # chords and e cover: 6 > 5.  Below it, (5, 4) and (4, 3) each have one
    # cover and head two or more vertices; the higher one, (4, 3), is cut,
    # and 4's subtree hangs from e, rerooted at 5
    idx = _hand_built([-1, 0, 1, 2, 3, 4, 5, 3],
                      ((3, 0), (3, 1), (7, 0), (7, 1), (7, 2)))
    f = idx.forest
    seen = []  # the classes each rewire starts from
    rewire = idx._rewire

    def spy(u, v, w):
        seen.append(class_partition(idx))
        return rewire(u, v, w)

    idx._rewire = spy
    assert idx.insert2(5, 0) == InsertKind.NONTREE_REWIRED
    assert (f.parent, f.size, f.rep) == ([-1, 0, 1, 2, 5, 0, 5, 3],
                                         [8, 4, 3, 2, 1, 3, 1, 1],
                                         [0, 3, 5, 6, 1, 1, 0, 3])
    assert seen == [class_partition(idx)]  # the swap changed no class
    assert class_partition(idx) == Partition([0, 0, 0, 0, 0, 0, 6, 0])
    counts = idx.counters()
    assert counts["rewires"] == 1
    check_index(idx)


def test_insert_refuses_the_fallback_for_a_lone_vertex():
    # the path 0-1-2-3 with 4 under 2.  (3, 0) has gap 3, so the walk from
    # 3 reaches the halfway edge (2, 1), which three chords and e cover:
    # 4 > 3.  Below it only (3, 2) is left, under the cap but above a lone
    # vertex
    idx = _hand_built([-1, 0, 1, 2, 2], ((2, 0), (4, 1), (4, 0)))
    f = idx.forest
    assert idx.insert2(3, 0) == InsertKind.NONTREE_NOOP
    assert (f.parent, f.rep) == ([-1, 0, 1, 2, 2], [0, 3, 4, 1, 2])
    assert idx.counters()["rewires"] == 0
    check_index(idx)


def test_shift_covers_skips_an_empty_side():
    idx = _built(8, _DEEP_7)
    f = idx.forest
    before = (list(f._mark), f._epoch, list(idx._land), list(f.rep))
    assert idx._shift_covers(7, 7, [(7, 2), (7, 4)], 0, 2) == 0
    assert (list(f._mark), f._epoch, list(idx._land), list(f.rep)) == before


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000), st.integers(4, 14))
def test_insert_kind_follows_the_gap_rule(seed, n):
    # a non-tree insert whose ends lie gap >= 2 levels apart cuts the
    # highest tree edge from the deep end up to w, the ancestor
    # (gap + 1) // 2 - 1 steps above it, that then has at most gap covers
    # and heads two or more vertices; without one it keeps the tree.  The
    # first insert, into a bare random tree from its deepest vertex to the
    # root, rewires at gap 3 or more and is refused at gap 2 above a leaf.
    rng = random.Random(seed)
    idx = TwoEdgeIndex(n)
    for v in range(1, n):
        idx.insert2(rng.randrange(v), v)
    f = idx.forest

    def depth(x):
        return len(_ancestors(f.parent, x)) - 1

    deep = max(range(n), key=depth)
    first_gap = depth(deep)
    assume(first_gap >= 2)
    root = f.roots()[0]
    pairs = [(deep, root)] + _edges_for(n, seed, n * (n - 1) // 2)
    kinds = []
    for u, v in pairs:
        if idx.graph.has_edge(u, v):
            continue
        du, dv = depth(u), depth(v)
        if du < dv:
            u, v, du, dv = v, u, dv, du
        gap = du - dv
        stretch = [u]  # u up to w; e's cover adds one above each
        while len(stretch) < (gap + 1) // 2:
            stretch.append(f.parent[stretch[-1]])
        cut = None
        if gap >= 2:
            fits = [x for x in stretch if f.rep[x] + 1 <= gap and f.size[x] >= 2]
            cut = fits[-1] if fits else None
        pc = f.parent[cut] if cut is not None else None
        before = list(f.parent)
        rewires = idx.counters()["rewires"]
        kinds.append(idx.insert2(u, v))
        assert idx.counters()["rewires"] == rewires + (cut is not None)
        if cut is not None:
            # e = (u, v) took the place of the tree edge (cut, pc)
            assert kinds[-1] == InsertKind.NONTREE_REWIRED
            assert f.parent[u] == v or f.parent[v] == u
            assert f.parent[cut] != pc and f.parent[pc] != cut
        else:
            assert kinds[-1] == InsertKind.NONTREE_NOOP
            assert f.parent == before
        check_index(idx)
    assert kinds[0] == (InsertKind.NONTREE_REWIRED if first_gap >= 3
                        else InsertKind.NONTREE_NOOP)


def _withdraw_and_replace(idx, u, v):
    """Reference tree-edge delete: withdraw every crossing edge's cover,
    cut the bare bridge, then re-insert the crossing edges one by one."""
    f = idx.forest
    child, big_root = f.orient_cut(u, v)
    p = f.parent[child]
    # the split scans of the withdrawals walk through the cut edge, so
    # it leaves the adjacency only with the cut
    crossing = [(min(e), max(e)) for e in f.getrep(child, big_root)
                if e != (child, p)]
    for e in crossing:
        idx._cover(*e, -1)
    f.cut_bridge(child, p)
    idx.graph.remove_edge(u, v)
    if crossing:
        assert idx._place(*crossing[0]) == InsertKind.TREE_EDGE
    for e in crossing[1:]:
        idx._cover(*e, 1)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(3, 14))
def test_swap_matches_withdraw_and_replace(seed, n):
    # same forest arrays, counters and classes as re-inserting every
    # crossing edge after the cut
    rng = random.Random(seed)
    edges = _edges_for(n, seed, rng.randrange(n - 1, n * (n - 1) // 2 + 1))
    idx = _built(n, edges)
    ref = _built(n, edges)
    rng.shuffle(edges)
    for u, v in edges:
        f = idx.forest
        if f.parent[u] == v or f.parent[v] == u:
            idx.delete2(u, v)
            _withdraw_and_replace(ref, u, v)
        else:
            idx.delete2(u, v)
            ref.delete2(u, v)
        assert (f.parent, f.size, f.rep) == (ref.forest.parent, ref.forest.size,
                                             ref.forest.rep)
        assert class_partition(idx) == class_partition(ref)
        check_index(idx)


def _run_python(code, *flags):
    """Run `code` in a fresh interpreter on this checkout's sources, with
    a timeout, so a hang fails the test instead of stalling the suite."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    return subprocess.run([sys.executable, *flags, "-c", textwrap.dedent(code)],
                          env=env, capture_output=True, text=True, timeout=60)


def test_invariant_checks_run_under_optimize():
    # every check must raise, not assert, so python -O keeps them
    out = _run_python("""
        from dynconn import ConnectivityIndex, InvariantError
        from dynconn.disjoint_set import DisjointSetForest
        from dynconn.graph import DynamicGraph
        from dynconn.two_edge import TwoEdgeForest

        g = DynamicGraph(2)
        g.add_edge(0, 1)
        f = TwoEdgeForest(g)
        f.parent = [1, -1]  # 0 claims to root the big side yet hangs below 1
        try:
            f.getrep(1, 0)
        except InvariantError:
            print("getrep")
        try:
            f.check_integrity()  # and 1's size still counts only itself
        except InvariantError:
            print("forest")

        sets = DisjointSetForest(2)
        sets._vid.reverse()  # each slot now names the other vertex
        try:
            sets.check_integrity()
        except InvariantError:
            print("sets")

        idx = ConnectivityIndex(2)
        idx.insert(0, 1)
        idx.dsets.reroot(1 - idx.forest.roots()[0])  # root loses its set
        try:
            idx._audit()
        except InvariantError:
            print("audit")
    """, "-O")
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["getrep", "forest", "sets", "audit"]


def test_class_count_audit_runs_under_optimize():
    # a representative whose member count drifted fails the audit
    out = _run_python("""
        from dynconn import InvariantError
        from dynconn.two_edge import SizedDisjointSet

        s = SizedDisjointSet(4)
        s.union(0, 1)
        s.union(1, 2)
        s.check_integrity()
        s.dsize[s.find(0)] = 2
        try:
            s.check_integrity()
        except InvariantError as exc:
            print("dsize", exc)
    """, "-O")
    assert out.returncode == 0, out.stderr
    assert out.stdout.split()[:1] == ["dsize"] and "counts 2 members but holds 3" in out.stdout


def test_ecc_root_raises_on_a_root_with_a_count():
    # a root has no edge above it to count; walking on from it would read
    # rep[-1], the last vertex's count
    out = _run_python("""
        from dynconn import InvariantError
        from dynconn.graph import DynamicGraph
        from dynconn.two_edge import TwoEdgeForest

        f = TwoEdgeForest(DynamicGraph(2))
        f.rep = [1, 1]
        try:
            f.ecc_root(0)
        except InvariantError:
            print("ecc_root")
    """)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["ecc_root"]


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
    idx._cover(u, v, 1)
    assert [r - b for r, b in zip(f.rep, before)] == [int(x in below) for x in range(n)]
    # the walk's class side: exactly the path's vertices, a included, merge
    assert class_partition(idx) == Partition(
        [a if x in below else x for x in range(n)])
    idx._cover(u, v, -1)
    assert f.rep == before
    assert class_partition(idx) == Partition(range(n))
    idx.dsets.check_integrity()


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
