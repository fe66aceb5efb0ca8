import copy
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from dynconn.disjoint_set import DisjointSetForest
from dynconn.errors import IsRoot, NotRoot


def partition_of(ds, n):
    return {frozenset(v for v in range(n) if ds.find(v) == r) for r in set(ds.find(v) for v in range(n))}


def test_link_and_unlink_splice():
    ds = DisjointSetForest(4)
    for c in (1, 2, 3):
        ds.link(c, 0)
    assert set(ds.children_of(0)) == {1, 2, 3}
    ds.unlink(2)
    assert set(ds.children_of(0)) == {1, 3}
    assert ds.find(2) == 2
    assert ds.find(1) == 0 and ds.find(3) == 0
    ds.check_integrity()


def test_link_requires_roots():
    ds = DisjointSetForest(3)
    ds.link(1, 0)
    with pytest.raises(NotRoot):
        ds.link(2, 1)
    with pytest.raises(NotRoot):
        ds.link(1, 2)
    with pytest.raises(IsRoot):
        ds.unlink(0)


def test_find_compresses_once_then_single_hop():
    ds = DisjointSetForest(3)
    ds.link(2, 1)  # b under a
    ds.link(1, 0)  # a (with b below) under r
    assert ds.find(2) == 0
    assert ds.find_visits == 3  # walked b, a, r
    # both now hang straight under the root
    assert set(ds.children_of(0)) == {1, 2}
    v0 = ds.find_visits
    assert ds.find(2) == 0
    assert ds.find_visits - v0 == 2  # one hop: node plus root
    ds.check_integrity()


def test_isolate_moves_children_up():
    ds = DisjointSetForest(4)
    ds.link(2, 1)
    ds.link(3, 1)
    ds.link(1, 0)
    ds.isolate(1)
    assert ds.find(1) == 1
    assert ds.find(2) == 0 and ds.find(3) == 0
    assert set(ds.children_of(0)) == {2, 3}
    assert ds.children_of(1) == []
    assert ds.isolate_calls == 1 and ds.isolate_child_moves == 2
    ds.check_integrity()
    with pytest.raises(IsRoot):
        ds.isolate(0)


def test_reroot_swaps_representative_only():
    ds = DisjointSetForest(3)
    ds.link(1, 0)
    ds.link(2, 0)
    before = partition_of(ds, 3)
    ds.reroot(1)
    assert ds.find(0) == 1 and ds.find(1) == 1 and ds.find(2) == 1
    assert partition_of(ds, 3) == before
    ds.check_integrity()
    # rerooting the representative is a no-op
    ds.reroot(1)
    assert ds.find(2) == 1


def test_find_never_deepens_any_node():
    rng = random.Random(7)
    ds = DisjointSetForest(32)
    roots = list(range(32))
    for _ in range(28):
        a, b = rng.sample(roots, 2)
        ds.link(a, b)
        roots.remove(a)

    def depths():
        out = []
        for v in range(32):
            h = ds._slot[v]
            d = 0
            while ds._parent[h] != h:
                h = ds._parent[h]
                d += 1
            out.append(d)
        return out

    for v in range(32):
        before = depths()
        ds.find(v)
        after = depths()
        assert all(a <= b for a, b in zip(after, before))
    ds.check_integrity()


@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 9), st.integers(0, 9)), max_size=80))
@settings(max_examples=100, deadline=None)
def test_matches_reference_partition(script):
    n = 10
    ds = DisjointSetForest(n)
    ref = {v: {v} for v in range(n)}  # representative -> members

    def ref_of(v):
        for r, members in ref.items():
            if v in members:
                return r
        raise AssertionError

    for op, a, b in script:
        if op in (0, 1):  # union
            ra, rb = ds.find(a), ds.find(b)
            if ra != rb:
                ds.link(ra, rb)
                ref[rb] |= ref.pop(ra)
        elif op == 2:  # isolate a non-representative
            if ds.find(a) != a:
                r = ds.isolate(a)
                ref[ref_of(a)].discard(a)
                ref[a] = {a}
                assert r == ref_of(r)
        elif op == 3:  # reroot
            r = ds.find(a)
            ds.reroot(a)
            if r in ref:
                ref[a] = ref.pop(r)
        else:  # query
            assert ds.same_set(a, b) == (ref_of(a) == ref_of(b))
        for v in range(n):
            assert ds.find(v) == ref_of(v)
    ds.check_integrity()


def _owner_of_parent(ds, n):
    """Vertex owning each vertex's parent record: the forest's shape."""
    parent, slot, vid = ds._parent, ds._slot, ds._vid
    return [vid[parent[slot[v]]] for v in range(n)]


@given(st.integers(2, 12), st.data())
@settings(max_examples=150, deadline=None)
def test_split_off_matches_isolate_then_link(n, data):
    rng = random.Random(data.draw(st.integers(0, 10_000)))
    ds = DisjointSetForest(n)
    for _ in range(data.draw(st.integers(1, 3 * n))):
        a, b = rng.randrange(n), rng.randrange(n)
        op = rng.randrange(4)
        if op < 2:  # link two roots directly, so chains grow deep
            ra, rb = ds.peek_root(a), ds.peek_root(b)
            if ra != rb:
                ds.link(ra, rb)
        elif op == 2:
            ds.find(a)
        else:
            ds.reroot(a)
    root = ds.peek_root(rng.randrange(n))
    rest = [v for v in range(n) if v != root and ds.peek_root(v) == root]
    assume(rest)
    members = rng.sample(rest, data.draw(st.integers(1, len(rest))))
    small = members[0]

    # find-free reference: isolate each member by hand, children to root
    ref = copy.deepcopy(ds)
    moves = 0
    for m in members:
        kids = ref.children_of(m)
        ref.unlink(m)
        for c in kids:
            ref.unlink(c)
            ref.link(c, root)
        moves += len(kids)
    for m in members[1:]:
        ref.link(m, small)

    # the index's old path: isolate (with its find) then link
    old = copy.deepcopy(ds)
    for m in members:
        old.isolate(m)
    for m in members[1:]:
        old.link(m, small)

    base = ds.counters()
    ds.split_off(small, members, root)
    delta = {k: v - base[k] for k, v in ds.counters().items()}
    assert delta == {"find_calls": 0, "find_visits": 0, "link_calls": len(members) - 1,
                     "isolate_calls": len(members), "isolate_child_moves": moves}
    assert _owner_of_parent(ds, n) == _owner_of_parent(ref, n)
    for name in ("isolate_calls", "link_calls"):
        assert getattr(old, name) - base[name] == delta[name]
    assert partition_of(ds, n) == partition_of(old, n)
    assert ds.peek_root(small) == small and ds.find(root) == root
    ds.check_integrity()


def test_split_off_refuses_a_root_member_or_a_non_root():
    ds = DisjointSetForest(4)
    for c in (1, 2, 3):
        ds.link(c, 0)
    with pytest.raises(NotRoot):
        ds.split_off(1, [1, 2], 3)
    with pytest.raises(IsRoot):
        ds.split_off(0, [0, 1], 0)
    assert ds.counters()["isolate_calls"] == 0
    ds.check_integrity()
