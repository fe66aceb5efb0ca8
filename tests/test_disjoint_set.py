import copy
import random

import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from dynconn.disjoint_set import DisjointSetForest
from dynconn.errors import IsRoot, NotMember, NotRoot
from dynconn.two_edge import SizedDisjointSet


def partition_of(ds, n):
    return {frozenset(v for v in range(n) if ds.find(v) == r) for r in set(ds.find(v) for v in range(n))}


def _owner_of_parent(ds, n):
    """Vertex owning each vertex's parent record, -1 for a ghost: the
    forest's shape as the vertices see it."""
    parent, slot, vid = ds._parent, ds._slot, ds._vid
    return [vid[parent[slot[v]]] for v in range(n)]


def test_link_and_unlink():
    ds = DisjointSetForest(4)
    for c in (1, 2, 3):
        ds.link(c, 0)
    assert _owner_of_parent(ds, 4) == [0, 0, 0, 0]
    assert ds.link_calls == 3
    ds.unlink(2)
    assert _owner_of_parent(ds, 4) == [0, 0, 2, 0]
    assert sorted(ds.root_vertices()) == [0, 2]
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
    assert _owner_of_parent(ds, 3) == [0, 0, 0]
    v0 = ds.find_visits
    assert ds.find(2) == 0
    assert ds.find_visits - v0 == 2  # one hop: node plus root
    ds.check_integrity()


def test_deep_query_counts_the_two_finds_it_runs(monkeypatch):
    # 2 sits two steps below root 0, so same_set(2, 3) runs find(2), which
    # walks 2, 1 and 0, and find(3), which reads root 3 alone
    ran = []
    real = DisjointSetForest.find

    def find(self, u):
        ran.append(u)
        return real(self, u)

    monkeypatch.setattr(DisjointSetForest, "find", find)
    ds = DisjointSetForest(4)
    ds.link(2, 1)
    ds.link(1, 0)
    base = ds.counters()
    assert not ds.same_set(2, 3)
    delta = {k: v - base[k] for k, v in ds.counters().items()}
    assert delta == {"find_calls": 2, "find_visits": 4, "link_calls": 0,
                     "isolate_calls": 0, "compactions": 0}
    assert ran == [2, 3]
    # compressed, the next query is answered inline and counts nothing
    after = ds.counters()
    assert ds.same_set(2, 1)
    assert ds.counters() == after
    assert ran == [2, 3]


def test_isolate_leaves_children_in_place():
    ds = DisjointSetForest(4)
    ds.link(2, 1)
    ds.link(3, 1)
    ds.link(1, 0)
    base = ds.counters()
    assert ds.isolate(1) == 0
    delta = {k: v - base[k] for k, v in ds.counters().items()}
    # isolate's own find walks 1 and 0, and nothing is linked
    assert delta == {"find_calls": 1, "find_visits": 2, "link_calls": 0,
                     "isolate_calls": 1, "compactions": 0}
    assert [ds.peek_root(v) for v in range(4)] == [0, 1, 0, 0]
    # 1's old record stays under 0 as a ghost, still holding 2 and 3
    assert ds._vid[1] == -1 and ds._parent[1] == ds._slot[0]
    assert _owner_of_parent(ds, 4) == [0, 1, -1, -1]
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


@given(st.integers(2, 12), st.data())
@settings(max_examples=150, deadline=None)
def test_split_off_matches_isolate_then_link(n, data):
    rng = random.Random(data.draw(st.integers(0, 10_000)))
    ds = DisjointSetForest(n)
    for _ in range(data.draw(st.integers(1, 3 * n))):
        a, b = rng.randrange(n), rng.randrange(n)
        op = rng.randrange(5)
        if op < 2:  # link two roots directly, so chains grow deep
            ra, rb = ds.peek_root(a), ds.peek_root(b)
            if ra != rb:
                ds.link(ra, rb)
        elif op == 2:
            ds.find(a)
        elif op == 3:
            ds.reroot(a)
        elif ds.peek_root(a) != a:  # leave a ghost behind
            ds.isolate(a)
    root = ds.peek_root(rng.randrange(n))
    rest = [v for v in range(n) if v != root and ds.peek_root(v) == root]
    assume(rest)
    members = rng.sample(rest, data.draw(st.integers(1, len(rest))))
    small = members[0]

    # the index's old path: isolate (with its find) then link
    old = copy.deepcopy(ds)
    for m in members:
        old.isolate(m)
    for m in members[1:]:
        old.link(m, small)

    records = len(ds._parent)
    parent = list(ds._parent)
    slot = list(ds._slot)
    base = ds.counters()
    ds.split_off(small, members, root)
    k = len(members)
    compacted = records + k > 2 * n
    delta = {c: v - base[c] for c, v in ds.counters().items()}
    assert delta == {"find_calls": 0, "find_visits": 0, "link_calls": k - 1,
                     "isolate_calls": k, "compactions": int(compacted)}
    for name in ("isolate_calls", "link_calls"):
        assert getattr(old, name) - base[name] == delta[name]
    if compacted:
        # flat: every vertex hangs directly under its representative
        assert len(ds._parent) == n
        assert _owner_of_parent(ds, n) == [ds.peek_root(v) for v in range(n)]
    else:
        # no record that existed moved: each member's old record is a
        # ghost where it was, and every other vertex kept its record
        assert ds._parent[:records] == parent
        assert all(ds._vid[slot[m]] == -1 for m in members)
        assert all(ds._slot[v] == slot[v] for v in range(n) if v not in members)
        # the members hang directly under small's fresh record
        assert [ds._vid[ds._parent[ds._slot[m]]] for m in members] == [small] * k
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


def _join_all(ds, n):
    """One set of every vertex, represented by 0."""
    for v in range(1, n):
        if isinstance(ds, SizedDisjointSet):
            ds.union(0, v)
        else:
            ds.link(v, 0)


@pytest.mark.parametrize("make", [DisjointSetForest, SizedDisjointSet])
def test_refused_split_off_changes_nothing(make):
    ds = make(4)
    _join_all(ds, 4)
    before = copy.deepcopy(vars(ds))
    with pytest.raises(IsRoot):
        ds.split_off(1, [1, 0], 0)  # the root is a member, after 1
    with pytest.raises(NotRoot):
        ds.split_off(1, [1, 2], 3)
    with pytest.raises(NotMember):
        ds.split_off(0, [], 0)  # no members at all
    with pytest.raises(NotMember):
        ds.split_off(2, [1], 0)  # small is not a member
    with pytest.raises(NotMember):
        ds.split_off(1, [1, 1], 0)  # a repeat would take two records
    with pytest.raises(NotMember):
        ds.split_off(1, [1, 2, 3, 2], 0)
    assert vars(ds) == before
    assert [ds.peek_root(v) for v in range(4)] == [0, 0, 0, 0]
    ds.check_integrity()


def _one_id_table(ds):
    """Every id the three record lists hold is one int object."""
    seen = {}
    for table in (ds._parent, ds._slot, ds._vid):
        for x in table:
            if seen.setdefault(x, x) is not x:
                return False
    return True


@pytest.mark.parametrize("make", [DisjointSetForest, SizedDisjointSet])
def test_record_lists_share_one_id_table(make):
    n = 600  # ids past the interpreter's small-int cache
    ds = make(n)
    parent, slot, vid = ds._parent, ds._slot, ds._vid
    assert parent is not slot and slot is not vid and vid is not parent
    assert all(parent[i] is slot[i] is vid[i] for i in range(n))
    assert _one_id_table(ds)
    ds._compact()
    assert all(ds._parent[i] is ds._slot[i] is ds._vid[i] for i in range(n))
    assert _one_id_table(ds)

    # ghosts and rerooted sets: the rebuilt lists still share one table
    rng = random.Random(5)
    for v in range(1, n):
        if isinstance(ds, SizedDisjointSet):
            ds.union(v, rng.randrange(v))
        else:
            ds.link(ds.find(v), ds.find(rng.randrange(v)))
    for v in rng.sample(range(n), 200):
        if ds.find(v) != v:
            ds.isolate(int(str(v)))  # an equal id that is another object
    ds.reroot(n - 1)
    before = [ds.peek_root(v) for v in range(n)]
    ds._compact()
    assert ds._parent is not ds._slot and ds._slot is not ds._vid
    assert ds._slot == ds._vid == list(range(n)) and _one_id_table(ds)
    assert [ds.peek_root(v) for v in range(n)] == before
    ds.check_integrity()


def _observed(ds, n):
    """Everything a caller reads: partition, member counts and counters."""
    return ([ds.peek_root(v) for v in range(n)], list(getattr(ds, "dsize", [])),
            ds.counters())


@pytest.mark.parametrize("make", [DisjointSetForest, SizedDisjointSet])
def test_compaction_changes_nothing_a_caller_reads(make):
    n = 6
    ds = make(n)
    _join_all(ds, n)
    # isolate a vertex and join it back, n times: the ghosts fill 2n records
    for i in range(n):
        v = 1 + i % (n - 1)
        r = ds.isolate(v)
        if isinstance(ds, SizedDisjointSet):
            ds.union(r, v)
        else:
            ds.link(v, r)
    assert len(ds._parent) == 2 * n and ds.compactions == 0
    ds.check_integrity()

    twin = copy.deepcopy(ds)
    before = _observed(twin, n)
    twin._compact()
    before[2]["compactions"] += 1
    assert _observed(twin, n) == before
    assert len(twin._parent) == n and twin._slot == twin._vid == list(range(n))
    assert _owner_of_parent(twin, n) == [0] * n
    twin.check_integrity()

    # a split past 2n records compacts by itself, ending where the same
    # split on the compacted twin ends
    for s in (ds, twin):
        s.split_off(3, [3, 4], 0)
        s.check_integrity()
    assert ds.compactions == 1 and len(ds._parent) == n
    assert _observed(ds, n) == _observed(twin, n)
    assert [ds.peek_root(v) for v in range(n)] == [0, 0, 0, 3, 3, 0]


class SetForestMachine(RuleBasedStateMachine):
    """The set forest against a reference partition with member counts.

    With n at most 10, splits pile ghosts up past 2n records, so most
    runs compact."""

    make = DisjointSetForest

    @initialize(n=st.integers(2, 10))
    def start(self, n):
        self.n = n
        self.ds = self.make(n)
        self.ref = {v: {v} for v in range(n)}  # representative -> members

    def rep(self, v):
        return next(r for r, members in self.ref.items() if v in members)

    @rule(a=st.integers(0, 9), b=st.integers(0, 9))
    def union(self, a, b):
        a, b = a % self.n, b % self.n
        ra, rb = self.rep(a), self.rep(b)
        if ra == rb:
            return
        if isinstance(self.ds, SizedDisjointSet):
            # smaller under larger, the first root surviving a tie
            small, big = (rb, ra) if len(self.ref[rb]) <= len(self.ref[ra]) else (ra, rb)
            assert self.ds.union(a, b) == big
        else:
            small, big = ra, rb
            self.ds.link(ra, rb)
        self.ref[big] |= self.ref.pop(small)

    @rule(a=st.integers(0, 9))
    def isolate(self, a):
        a = a % self.n
        r = self.rep(a)
        if r == a:
            with pytest.raises(IsRoot):
                self.ds.isolate(a)
            return
        assert self.ds.isolate(a) == r
        self.ref[r].discard(a)
        self.ref[a] = {a}

    @rule(data=st.data())
    def split_off(self, data):
        r = data.draw(st.sampled_from(sorted(self.ref)))
        rest = sorted(self.ref[r] - {r})
        if not rest:
            return
        members = data.draw(st.lists(st.sampled_from(rest), min_size=1, unique=True))
        base = self.ds.counters()
        records = len(self.ds._parent)
        self.ds.split_off(members[0], members, r)
        k = len(members)
        delta = {c: v - base[c] for c, v in self.ds.counters().items()}
        assert delta == {"find_calls": 0, "find_visits": 0, "link_calls": k - 1,
                         "isolate_calls": k,
                         "compactions": int(records + k > 2 * self.n)}
        self.ref[r] -= set(members)
        self.ref[members[0]] = set(members)

    @rule(a=st.integers(0, 9), b=st.integers(0, 9))
    def refused_split_off(self, a, b):
        # a representative among the members: refused, nothing changes
        a, r = a % self.n, self.rep(b % self.n)
        before = copy.deepcopy(vars(self.ds))
        with pytest.raises(IsRoot):
            self.ds.split_off(a, [a, r], r)
        assert vars(self.ds) == before

    @rule(a=st.integers(0, 9))
    def reroot(self, a):
        a = a % self.n
        r = self.rep(a)
        assert self.ds.reroot(a) == a
        self.ref[a] = self.ref.pop(r)

    @rule(a=st.integers(0, 9), b=st.integers(0, 9))
    def same_set(self, a, b):
        a, b = a % self.n, b % self.n
        assert self.ds.same_set(a, b) == (self.rep(a) == self.rep(b))

    @rule(a=st.integers(0, 9))
    def find(self, a):
        a = a % self.n
        assert self.ds.find(a) == self.rep(a)

    @invariant()
    def matches_reference(self):
        ds = self.ds
        ds.check_integrity()
        assert [ds.peek_root(v) for v in range(self.n)] == [self.rep(v) for v in range(self.n)]
        if isinstance(ds, SizedDisjointSet):
            assert {r: ds.dsize[r] for r in self.ref} == {r: len(m) for r, m in self.ref.items()}


class SizedSetMachine(SetForestMachine):
    make = SizedDisjointSet


_MACHINE_SETTINGS = settings(max_examples=60, stateful_step_count=40, deadline=None)
TestSetForestMachine = SetForestMachine.TestCase
TestSetForestMachine.settings = _MACHINE_SETTINGS
TestSizedSetMachine = SizedSetMachine.TestCase
TestSizedSetMachine.settings = _MACHINE_SETTINGS
