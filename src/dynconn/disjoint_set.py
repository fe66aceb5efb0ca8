"""Disjoint sets that support deletion, re-rooting and O(1) queries.

A classic union-find tree cannot remove a vertex from the middle of a
tree.  Here a vertex leaves its set by taking a fresh record instead:
its old record stays where it is as a ghost, so the children below it
never move (Kaplan, Shafrir & Tarjan, "Union-find with deletions",
SODA 2002).  That makes three extra moves possible, each O(1)
amortized:

* isolate: pull a non-root vertex out into a singleton of its own;
* split_off: carve a whole list of members out into a set of their own
  under a root the caller already knows, with no find: each member's
  old record turns ghost, and every other member's fresh record hangs
  directly under the new representative's;
* reroot: swap which vertex owns the root record, so the set keeps its
  shape but answers a different representative.

Records are parallel arrays indexed by handle.  Vertex u currently owns
record slot[u] and record h belongs to vertex vid[h], or to no vertex
when vid[h] == -1: a ghost, which is never a root.  reroot swaps that
ownership instead of moving any pointers.  Once a split leaves more
than 2n records, the forest is rebuilt flat on the n vertices' own
records, every vertex hanging directly under its representative; each
rebuild costs O(n) and follows at least n fresh records.  A fresh
forest and each rebuild fill the three lists from one table of id
objects, so an id in [0, n) is held once, not once per list (at
n = 100k, three range() lists would hold 6.4 MB of duplicate ints).

Roots are self-parented.  Find points every record on its path at the
root.
"""

from __future__ import annotations

from .errors import InvariantError, IsRoot, NotMember, NotRoot, OutOfRange


class DisjointSetForest:
    def __init__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise OutOfRange(f"set count {n!r} is not an int of at least 0")
        self._n = n
        ids = list(range(n))
        self._parent = ids
        self._slot = ids.copy()
        self._vid = ids.copy()
        # instrumentation (cheap ints, read by the benchmarks); the
        # find_calls and find_visits properties add up the first four
        self._finds = 0
        self._find_visits = 0
        self._inline_pairs = 0
        self._inline_roots = 0
        self.link_calls = 0
        self.isolate_calls = 0
        self.compactions = 0

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
        while p != r:
            parent[h] = r
            h = p
            p = parent[h]
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
        self.link_calls += 1

    def unlink(self, u):
        """Detach u's record (with its subtree) from its parent."""
        h = self._slot[u]
        if self._parent[h] == h:
            raise IsRoot(f"{u} is already a representative")
        self._parent[h] = h

    def isolate(self, u):
        """Turn non-root u into a fresh singleton, leaving its set intact.

        u's old record stays in the set as a ghost, which is why u must
        not itself be the root.  Returns the representative of the set u
        was pulled out of.
        """
        ru = self.find(u)
        if ru == u:
            raise IsRoot(f"cannot isolate representative {u}")
        self.split_off(u, (u,), ru)
        return ru

    def split_off(self, small, members, root):
        """Carve `members` out of root's set into a set represented by
        `small`, one of `members`.

        `members` must be distinct and must hold `small`, and `root` must
        be the representative of the set every member is in, and not a
        member itself; a refused call changes nothing.  Each
        member's old record stays in root's tree as a ghost, so nothing
        below it moves, and the member takes a fresh record: small's roots
        the new set and every other member's hangs directly under it.  No
        find runs, so the cost is O(1) per member, amortized over the
        compactions.  The counters are those of isolating the members in
        turn and then linking each under small: len(members) isolates and
        len(members) - 1 links.
        """
        parent = self._parent
        slot = self._slot
        vid = self._vid
        if small not in members:  # an empty list included
            raise NotMember(f"{small} is not among the members split off")
        hr = slot[root]
        if parent[hr] != hr:
            raise NotRoot(f"{root} is not a representative")
        for u in members:
            h = slot[u]
            if parent[h] == h:
                raise IsRoot(f"cannot split off representative {u}")
        for u in members:
            vid[slot[u]] = -1
            slot[u] = len(vid)
            vid.append(u)
        k = len(members)
        parent.extend([slot[small]] * k)
        self.isolate_calls += k
        self.link_calls += k - 1
        if len(parent) > 2 * self._n:
            self._compact()

    def _compact(self):
        """Rebuild the forest on the n vertices' own records, each hanging
        directly under its representative's, and drop the ghosts.  Each
        walk starts from a vertex's record and compresses what it walks,
        so the rebuild is linear in the records."""
        ids = list(range(self._n))
        parent = self._parent
        slot = self._slot
        vid = self._vid
        flat = []
        for h in slot:
            r = parent[h]
            if parent[r] != r:
                while parent[r] != r:
                    r = parent[r]
                while h != r:
                    p = parent[h]
                    parent[h] = r
                    h = p
            flat.append(ids[vid[r]])
        self._parent = flat
        self._slot = ids
        self._vid = ids.copy()
        self.compactions += 1

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
            "compactions": self.compactions,
        }

    def root_vertices(self):
        parent = self._parent
        vid = self._vid
        return [vid[h] for h in range(len(parent)) if parent[h] == h]

    def check_integrity(self):
        """Full structural audit (test use only); raises InvariantError, so
        python -O keeps the checks."""
        n = self._n
        parent, slot, vid = self._parent, self._slot, self._vid
        size = len(parent)
        if len(vid) != size or len(slot) != n or not n <= size <= 2 * n:
            raise InvariantError(f"{size} records and {len(vid)} owners for {n} vertices")
        owned = [False] * size
        for u in range(n):
            h = slot[u]
            if not 0 <= h < size or vid[h] != u:
                raise InvariantError(f"slot of vertex {u} does not map back")
            owned[h] = True
        for h in range(size):
            if not 0 <= parent[h] < size:
                raise InvariantError(f"record {h} has parent {parent[h]}")
            if not owned[h] and (vid[h] != -1 or parent[h] == h):
                raise InvariantError(f"unowned record {h} is not a ghost below a root")
        for h in range(size):
            hops = 0
            x = h
            while parent[x] != x:
                x = parent[x]
                hops += 1
                if hops > size:
                    raise InvariantError("parent cycle")
