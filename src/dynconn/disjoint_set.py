"""Disjoint sets that support deletion, re-rooting and O(1) queries.

A classic union-find tree cannot remove a vertex from the middle of a
tree, so every node here also keeps its children in an intrusive
doubly-linked list.  That makes three extra moves possible, each O(1)
amortized or better:

* unlink: splice a node out of its parent's child list;
* isolate: pull a non-root node out entirely, re-hanging its children
  directly under the tree root;
* reroot: swap which vertex owns the root record, so the set keeps its
  shape but answers a different representative.

Records are parallel arrays indexed by handle.  Vertex u currently owns
record slot[u] and record h belongs to vertex vid[h]; reroot swaps that
ownership instead of moving any pointers.  Record h's child list runs
between sentinel cells n + h and 2n + h of the same pre/next arrays.

Roots are self-parented.  Find compresses with full re-linking, but a
node already hanging directly under the root is left where it is.
"""

from __future__ import annotations

from .errors import IsRoot, NotRoot


class DisjointSetForest:
    def __init__(self, n: int):
        self._n = n
        self._parent = list(range(n))
        self._slot = list(range(n))
        self._vid = list(range(n))
        pre = [-1] * (3 * n)
        nxt = [-1] * (3 * n)
        for h in range(n):
            nxt[n + h] = 2 * n + h
            pre[2 * n + h] = n + h
        self._pre = pre
        self._nxt = nxt
        # instrumentation (cheap ints, read by the benchmarks); the
        # find_calls and find_visits properties add up the first four
        self._finds = 0
        self._find_visits = 0
        self._inline_pairs = 0
        self._inline_roots = 0
        self.link_calls = 0
        self.isolate_calls = 0
        self.isolate_child_moves = 0

    # -- internal cell plumbing -----------------------------------------

    def _push_child(self, h, hp):
        """Insert record h at the head of record hp's child list."""
        nxt = self._nxt
        pre = self._pre
        head = self._n + hp
        first = nxt[head]
        pre[h] = head
        nxt[h] = first
        nxt[head] = h
        pre[first] = h

    def _splice(self, h):
        """Remove record h from whatever child list holds it."""
        nxt = self._nxt
        pre = self._pre
        hp = pre[h]
        hn = nxt[h]
        nxt[hp] = hn
        pre[hn] = hp
        pre[h] = -1
        nxt[h] = -1

    def _relink_path(self, h, hr):
        """Hang every record on the h..hr parent path directly under hr."""
        parent = self._parent
        x = h
        while x != hr:
            px = parent[x]
            if px != hr:
                self._splice(x)
                self._push_child(x, hr)
                parent[x] = hr
            x = px

    # -- queries ---------------------------------------------------------

    def peek_root(self, u):
        """Representative of u's set without compression or stat updates.

        For audits that must not disturb the structure or the counters."""
        parent = self._parent
        h = self._slot[u]
        p = parent[h]
        while p != h:
            h = p
            p = parent[h]
        return self._vid[h]

    def find(self, u):
        """Representative vertex of u's set; compresses the walked path."""
        parent = self._parent
        h = self._slot[u]
        p = parent[h]
        if p == h:
            self._finds += 1
            self._find_visits += 1
            return u
        r = p
        pr = parent[r]
        k = 2
        while pr != r:
            r = pr
            pr = parent[r]
            k += 1
        if p != r:
            self._relink_path(h, r)
        self._finds += 1
        self._find_visits += k
        return self._vid[r]

    # same_set's deep path binds this alias, not find, so a profiler that
    # wraps find on the class still sees only the update paths' finds.
    _find = find

    def same_set(self, u, v):
        """find(u) == find(v).

        Compression leaves almost every record at most one step below its
        root, and there neither find walks nor relinks, so that case is
        answered inline.  It counts once per pair, plus once per record
        that is itself a root, and find_calls/find_visits expand that."""
        parent = self._parent
        hu = self._slot[u]
        hv = self._slot[v]
        ru = parent[hu]
        rv = parent[hv]
        if parent[ru] != ru or parent[rv] != rv:
            return self._find(u) == self._find(v)
        self._inline_pairs += 1
        if ru == hu or rv == hv:
            self._inline_roots += (ru == hu) + (rv == hv)
        return ru == rv

    @property
    def find_calls(self):
        """Finds so far, each same_set counting as two."""
        return self._finds + 2 * self._inline_pairs

    @property
    def find_visits(self):
        """Records those finds walked, roots included: an inline pair
        walks two per side, one where the side's record is a root."""
        return self._find_visits + 4 * self._inline_pairs - self._inline_roots

    # -- structural operations --------------------------------------------

    def link(self, u, v):
        """Hang root u's record under root v's record.

        Both arguments must currently be representatives; the caller is
        responsible for putting the smaller set first when that matters.
        """
        parent = self._parent
        hu = self._slot[u]
        hv = self._slot[v]
        if parent[hu] != hu:
            raise NotRoot(f"{u} is not a representative")
        if parent[hv] != hv:
            raise NotRoot(f"{v} is not a representative")
        parent[hu] = hv
        self._push_child(hu, hv)
        self.link_calls += 1

    def unlink(self, u):
        """Detach u's record (with its subtree) from its parent."""
        h = self._slot[u]
        if self._parent[h] == h:
            raise IsRoot(f"{u} is already a representative")
        self._splice(h)
        self._parent[h] = h

    def isolate(self, u):
        """Turn non-root u into a fresh singleton, leaving its set intact.

        u's children are re-hung directly under the set's root, which is
        why u must not itself be the root.  Returns the representative of
        the set u was pulled out of.
        """
        ru = self.find(u)
        if ru == u:
            raise IsRoot(f"cannot isolate representative {u}")
        n = self._n
        parent = self._parent
        nxt = self._nxt
        h = self._slot[u]
        hr = self._slot[ru]
        self._splice(h)
        parent[h] = h
        head = n + h
        tail = 2 * n + h
        c = nxt[head]
        moves = 0
        while c != tail:
            cn = nxt[c]
            self._splice(c)
            self._push_child(c, hr)
            parent[c] = hr
            moves += 1
            c = cn
        self.isolate_calls += 1
        self.isolate_child_moves += moves
        return ru

    def reroot(self, u):
        """Make u the representative of its set by swapping record owners."""
        r = self.find(u)
        if r == u:
            return u
        self._swap_owner(u, r)
        return u

    def _swap_owner(self, u, r):
        slot = self._slot
        vid = self._vid
        hu = slot[u]
        hr = slot[r]
        slot[u] = hr
        slot[r] = hu
        vid[hr] = u
        vid[hu] = r

    # -- inspection --------------------------------------------------------

    def counters(self):
        return {
            "find_calls": self.find_calls,
            "find_visits": self.find_visits,
            "link_calls": self.link_calls,
            "isolate_calls": self.isolate_calls,
            "isolate_child_moves": self.isolate_child_moves,
        }

    def root_vertices(self):
        parent = self._parent
        vid = self._vid
        return [vid[h] for h in range(self._n) if parent[h] == h]

    def children_of(self, u):
        """Current child vertices of u's record, list order as stored."""
        n = self._n
        h = self._slot[u]
        nxt = self._nxt
        vid = self._vid
        out = []
        c = nxt[n + h]
        while c != 2 * n + h:
            out.append(vid[c])
            c = nxt[c]
        return out

    def check_integrity(self):
        """Full structural audit; test use only."""
        n = self._n
        parent, pre, nxt = self._parent, self._pre, self._nxt
        slot, vid = self._slot, self._vid
        assert sorted(slot) == list(range(n)) and sorted(vid) == list(range(n))
        for u in range(n):
            assert vid[slot[u]] == u
        listed = set()
        for h in range(n):
            if parent[h] == h:
                assert pre[h] == -1 and nxt[h] == -1
            head, tail = n + h, 2 * n + h
            fwd = []
            c = nxt[head]
            while c != tail:
                assert parent[c] == h and pre[nxt[c]] == c and nxt[pre[c]] == c
                fwd.append(c)
                assert len(fwd) <= n
                c = nxt[c]
            bwd = []
            c = pre[tail]
            while c != head:
                bwd.append(c)
                assert len(bwd) <= n
                c = pre[c]
            assert fwd == bwd[::-1]
            listed.update(fwd)
        nonroots = {h for h in range(n) if parent[h] != h}
        assert listed == nonroots
        for h in range(n):
            hops = 0
            x = h
            while parent[x] != x:
                x = parent[x]
                hops += 1
                assert hops <= n, "parent cycle"
