"""Workload drivers: edge-list ingestion, benchmark protocols, fuzzing.

Both indexes answer `insert`, `delete` and `query`, so each driver
serves either; `MODES` maps a mode to its index class and its oracle.
Everything here speaks plain-text edge lists ("u v" or "u v t" per
line, '#' or '%' starting a comment line) and emits flat CSV so runs
can be diffed or plotted without bespoke tooling.

CSV layout, in order: a `metric,value` section (graph shape first, then
the structure statistics, then event counts, then mean timings), and,
when the run produced per-window data, a second section headed
`window_pct,op,mean_ns,count` with one row per window and operation
kind.  A window's rows are named with `_w{pct}` appended, so the
reports of several windows merge without overwriting one another.

All randomness flows through `random.Random(seed)` (the stdlib Mersenne
Twister), which is stable across platforms and Python versions, so any
report's counts replicate bit-for-bit from the seed.
"""

from __future__ import annotations

import random
import time
from collections import deque
from dataclasses import dataclass, field

from .connectivity import ConnectivityIndex
from .errors import (DynConnError, InvariantError, KTooLarge, MissingTimestamps,
                     OutOfRange, ParseError)
from .oracle import (
    Partition,
    oracle_components,
    oracle_rep,
    oracle_two_edge_components,
)
from .two_edge import TwoEdgeIndex


@dataclass
class WorkloadEvent:
    """One edge arrival, in dense vertex ids; `t` is its timestamp and
    `line` the source line it was read from, None for generated streams."""

    u: int
    v: int
    t: int | None = None
    line: int | None = None


@dataclass
class EdgeStream:
    """Parsed events in file order plus the dense vertex relabelling."""

    events: list
    n: int
    labels: list  # dense id -> original label
    mapping: dict  # original label -> dense id
    dropped_self_loops: int = 0

    @property
    def timestamped(self):
        return bool(self.events) and all(e.t is not None for e in self.events)


def parse_edge_stream(source):
    """Parse "u v [t]" rows into insert events with dense vertex ids.

    `source` is a binary or text file object, or any iterable of lines.
    Self loops are dropped from the event list (the indexes reject
    them) but their labels still claim vertex ids, keeping ids aligned
    with the dataset's own vocabulary.
    """
    mapping = {}
    labels = []
    events = []
    dropped = 0

    def vid(label):
        d = mapping.get(label)
        if d is None:
            d = len(labels)
            mapping[label] = d
            labels.append(label)
        return d

    for line_no, raw in enumerate(source, start=1):
        if isinstance(raw, bytes):
            raw = raw.decode("utf-8", "replace")
        line = raw.strip()
        if not line or line[0] in "#%":
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise ParseError(f"expected 'u v [t]', got {line!r}", line_no)
        try:
            a = int(parts[0])
            b = int(parts[1])
            t = int(parts[2]) if len(parts) == 3 else None
        except ValueError:
            raise ParseError(f"non-integer field in {line!r}", line_no) from None
        du = vid(a)
        dv = vid(b)
        if du == dv:
            dropped += 1
            continue
        events.append(WorkloadEvent(du, dv, t, line_no))
    return EdgeStream(events, len(labels), labels, mapping, dropped)


def load_edge_file(path):
    with open(path, "rb") as fh:
        return parse_edge_stream(fh)


def random_edge_stream(n, m, seed=0, timestamps=False):
    """Seeded uniform simple graph as an insert stream.

    With `timestamps`, arrival times are strictly increasing integers
    with seeded gaps, so the stream is valid sliding-window input.
    """
    _check_count("n", n, 0)
    _check_count("m", m, 0)
    if m > n * (n - 1) // 2:
        raise OutOfRange(f"m={m} exceeds the simple-graph maximum for n={n}")
    rng = random.Random(seed)
    chosen = set()
    while len(chosen) < m:
        a = rng.randrange(n)
        b = rng.randrange(n)
        if a != b:
            chosen.add((a, b) if a < b else (b, a))
    order = sorted(chosen)
    rng.shuffle(order)
    events = []
    t = 0
    for u, v in order:
        ts = None
        if timestamps:
            t += rng.randrange(1, 4)
            ts = t
        events.append(WorkloadEvent(u, v, ts))
    return EdgeStream(events, n, list(range(n)), {v: v for v in range(n)})


# -- reports -------------------------------------------------------------------


@dataclass
class MetricsReport:
    """Flat run statistics: named rows, event counts, mean timings."""

    extras: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    timings_ns: dict = field(default_factory=dict)  # phase -> (mean_ns, count)
    window_rows: list = field(default_factory=list)  # (pct, op, mean_ns, count)

    def merge(self, other):
        """Fold another report in; counts add up, rows of the same name
        prefer the newcomer."""
        self.extras.update(other.extras)
        for k, v in other.counts.items():
            self.counts[k] = self.counts.get(k, 0) + v
        self.timings_ns.update(other.timings_ns)
        self.window_rows.extend(other.window_rows)
        return self

    def write_csv(self, fh):
        fh.write("metric,value\n")
        for k, v in self.extras.items():
            fh.write(f"{k},{_fmt(v)}\n")
        for k, v in self.counts.items():
            fh.write(f"count_{k},{v}\n")
        for k, (mean, _cnt) in self.timings_ns.items():
            fh.write(f"{k}_mean_ns,{_fmt(mean)}\n")
        if self.window_rows:
            fh.write("window_pct,op,mean_ns,count\n")
            for pct, op, mean, cnt in self.window_rows:
                fh.write(f"{pct},{op},{_fmt(mean)},{cnt}\n")


def _fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


# -- index plumbing ------------------------------------------------------------


# mode -> (index class, oracle partition of a graph)
MODES = {
    "conn": (ConnectivityIndex, oracle_components),
    "2ec": (TwoEdgeIndex, oracle_two_edge_components),
}


def new_index(n, mode="conn"):
    try:
        cls = MODES[mode][0]
    except (KeyError, TypeError):  # TypeError: an unhashable mode
        raise OutOfRange(f"unknown mode {mode!r}, expected one of "
                         f"{', '.join(MODES)}") from None
    return cls(n)


def _check_count(name, x, lo):
    """OutOfRange unless x is an int, not a bool, of at least lo."""
    if type(x) is not int or x < lo:
        raise OutOfRange(f"{name} must be an int of at least {lo}, got {x!r}")


def build_index(stream, mode="conn"):
    """Replay a stream's inserts into a fresh index.

    Returns (index, duplicate event count); re-inserting a live edge is
    a no-op event, as temporal datasets repeat edges freely.
    """
    idx = new_index(stream.n, mode)
    ins = idx.insert
    g = idx.graph
    dup = 0
    for ev in stream.events:
        if g.has_edge(ev.u, ev.v):
            dup += 1
        else:
            ins(ev.u, ev.v)
    return idx, dup


def _apply_structure_stats(report, idx, before, tag=""):
    """Depth plus per-phase means derived from counter deltas, as rows
    named with `tag` appended; a mean with no samples is left out."""
    rows = report.extras
    rows["avg_depth_id" + tag] = idx.forest.average_depth()
    d = {k: v - before[k] for k, v in idx.counters().items()}
    for name, total, samples in (("avg_S", "split_visited_total", "splits"),
                                 ("avg_search", "probe_total", "tree_deletes"),
                                 ("avg_finds_len", "find_visits", "find_calls")):
        if d[samples]:
            rows[name + tag] = d[total] / d[samples]


_QUERY_BATCH = 10_000


def time_queries(idx, count, seed=0):
    """Mean ns per query over `count` seeded uniform vertex pairs.  The
    pairs are drawn in batches, each before its clock starts, so only
    the queries are timed and memory stays bounded."""
    _check_count("query count", count, 1)
    n = idx.graph.n
    if n == 0:
        raise OutOfRange("no vertices to query")
    query = idx.query
    rng = random.Random(seed)
    total = 0
    for start in range(0, count, _QUERY_BATCH):
        pairs = [(rng.randrange(n), rng.randrange(n))
                 for _ in range(min(_QUERY_BATCH, count - start))]
        t0 = time.perf_counter_ns()
        for u, v in pairs:
            query(u, v)
        total += time.perf_counter_ns() - t0
    return total / count


# -- benchmark protocols -------------------------------------------------------


def run_random_cycle(idx, k, seed=0):
    """Delete k seeded-random live edges, then re-insert them in the same
    order, timing both phases.

    The connectivity (or 2-edge class) partition must come back exactly;
    on graphs up to 1000 vertices it is additionally compared against
    the BFS oracle.  Either failure raises InvariantError.
    """
    g = idx.graph
    _check_count("k", k, 0)
    if k > g.m:
        raise KTooLarge(f"k={k} exceeds live edge count {g.m}")
    ins, delete = idx.insert, idx.delete
    rng = random.Random(seed)
    victims = rng.sample(sorted(g.edges()), k)

    before = Partition(idx.partition())
    snap = idx.counters()
    t0 = time.perf_counter_ns()
    for u, v in victims:
        delete(u, v)
    t1 = time.perf_counter_ns()
    for u, v in victims:
        ins(u, v)
    t2 = time.perf_counter_ns()

    after = Partition(idx.partition())
    if after != before:
        raise InvariantError("delete/re-insert cycle failed to restore the partition")
    if g.n <= 1000:
        if after != MODES[idx.mode][1](g):
            raise InvariantError("restored partition disagrees with the oracle")

    report = MetricsReport()
    report.extras["vertices"] = g.n
    report.extras["edges"] = g.m
    report.extras["cycle_k"] = k
    report.counts = {"delete": k, "insert": k}
    if k:
        report.timings_ns = {
            "delete": ((t1 - t0) / k, k),
            "insert": ((t2 - t1) / k, k),
        }
    _apply_structure_stats(report, idx, snap)
    return report


def run_sliding_window(stream, pct, mode="conn", queries=0, seed=0):
    """Temporal replay with eviction at one window size.

    After each arrival, edges older than pct% of the stream's time span
    are deleted, oldest first (strictly older: age * 100 > span * pct).
    A duplicate arrival of a live edge is a no-op and does not refresh
    the edge's age.  With `queries`, a seeded query batch runs against
    the final window.  Timestamps must not decrease along the stream, or
    the window's front would not be its oldest edge.
    """
    if type(pct) is not int or not 0 < pct <= 100:
        raise OutOfRange(f"pct must be an int in (0, 100], got {pct!r}")
    events = stream.events
    labels = stream.labels
    for i, e in enumerate(events):
        if e.t is None:
            raise MissingTimestamps("sliding windows need 'u v t' rows throughout")
        if i and e.t < events[i - 1].t:
            # a parsed row is named by its line, a generated one by its index
            where = f" at event {i}" if e.line is None else ""
            raise ParseError(f"timestamps decrease{where} ({labels[e.u]} "
                             f"{labels[e.v]} {e.t}, after {events[i - 1].t})",
                             e.line)
    idx = new_index(stream.n, mode)
    ins, delete = idx.insert, idx.delete
    g = idx.graph
    span = events[-1].t - events[0].t if events else 0
    snap = idx.counters()

    window = deque()
    ins_ns = del_ns = 0
    ins_n = del_n = noop = 0
    for ev in events:
        if g.has_edge(ev.u, ev.v):
            noop += 1
        else:
            t0 = time.perf_counter_ns()
            ins(ev.u, ev.v)
            ins_ns += time.perf_counter_ns() - t0
            ins_n += 1
            window.append((ev.t, ev.u, ev.v))
        while window and (ev.t - window[0][0]) * 100 > span * pct:
            _, a, b = window.popleft()
            t0 = time.perf_counter_ns()
            delete(a, b)
            del_ns += time.perf_counter_ns() - t0
            del_n += 1

    report = MetricsReport()
    report.extras["vertices"] = stream.n
    report.extras[f"final_edges_w{pct}"] = g.m
    report.counts = {"insert": ins_n, "delete": del_n, "noop": noop}
    rows = [
        (pct, "insert", ins_ns / ins_n if ins_n else 0.0, ins_n),
        (pct, "delete", del_ns / del_n if del_n else 0.0, del_n),
    ]
    if queries:
        report.counts["query"] = queries
        rows.append((pct, "query", time_queries(idx, queries, seed), queries))
    report.window_rows = rows
    _apply_structure_stats(report, idx, snap, f"_w{pct}")
    return report


# -- differential fuzz ---------------------------------------------------------


@dataclass
class FuzzOutcome:
    ops: int
    queries: int
    checks: int
    violations: list
    violation_count: int
    elapsed_s: float
    find_calls: int = 0
    find_visits: int = 0
    root_violations: int = 0  # root-pairing audit failures, a subset of the count

    @property
    def ok(self):
        return self.violation_count == 0


class _LiveEdges:
    """Edge multiset with O(1) seeded uniform choice (swap-remove list)."""

    def __init__(self, n):
        self.n = n
        self.items = []
        self.pos = {}

    def add(self, e):
        self.pos[e] = len(self.items)
        self.items.append(e)

    def remove(self, e):
        i = self.pos.pop(e)
        last = self.items.pop()
        if last != e:
            self.items[i] = last
            self.pos[last] = i

    def choose(self, rng):
        return self.items[rng.randrange(len(self.items))]

    def mutate(self, rng, inserting, insert, delete):
        """Insert a seeded absent edge or delete a seeded live one through
        the index's `insert`/`delete`; flipped when the graph is complete
        or empty."""
        n = self.n
        if inserting and len(self.items) == n * (n - 1) // 2:
            inserting = False
        elif not inserting and not self.items:
            inserting = True
        if inserting:
            while True:
                u = rng.randrange(n)
                v = rng.randrange(n)
                if u == v:
                    continue
                e = (u, v) if u < v else (v, u)
                if e not in self.pos:
                    break
            insert(*e)
            self.add(e)
        else:
            e = self.choose(rng)
            self.remove(e)
            delete(*e)


def run_fuzz(mode="conn", n=64, ops=50_000, seed=0, check_every=100,
             tail_queries=0):
    """Random inserts/deletes/queries (40/40/20) with an oracle watching.

    `mode` picks the relation, as in `new_index`: "conn" (BFS oracle) or
    "2ec" (bridge oracle).  Every query is answered four ways (set
    forest, forest walk, oracle partition cached between mutations, then
    two set-forest finds, which check same_set's inline answer against
    the walk it stands in for) and must agree.  Every `check_every`-th
    op, both full partitions are compared against the oracle.  One audit
    depends on the mode: in conn mode every spanning tree root must be
    its own set representative after every op; in 2ec mode every stored
    cover count is re-derived from scratch at each check.  Partitions are
    read without compression or counting, so the walk stats hold only
    the ops' and the probes' finds.  `tail_queries` extra queries run
    afterwards to pile up find traffic for walk-length statistics.  A
    DynConnError raised inside an op or a check counts as one violation
    at that op and ends the run there; a failed root audit does not end
    it.
    """
    _check_count("n", n, 2)
    _check_count("ops", ops, 0)
    _check_count("check_every", check_every, 1)
    _check_count("tail_queries", tail_queries, 0)
    rng = random.Random(seed)
    idx = new_index(n, mode)
    oracle = MODES[mode][1]
    insert, delete, query = idx.insert, idx.delete, idx.query
    find = idx.dsets.find
    g = idx.graph
    forest = idx.forest
    live = _LiveEdges(n)
    violations = []
    vcount = root_vcount = 0

    def note(msg, root=False):
        nonlocal vcount, root_vcount
        vcount += 1
        if root:
            root_vcount += 1
        if len(violations) < 20:
            violations.append(msg)

    if mode == "conn":
        walk = forest._root

        def audit(step, checking):
            try:
                idx._audit()
            except InvariantError as exc:
                note(f"op {step}: {exc}", root=True)
    else:
        walk = forest.ecc_root

        def audit(step, checking):
            if not checking:
                return
            parent = forest.parent
            stored = {(x, p) if x < p else (p, x): forest.rep[x]
                      for x in range(n) if (p := parent[x]) != -1}
            if stored != oracle_rep(g, parent):
                note(f"op {step}: stored cover counts diverged from oracle")

    cached = None
    queries = checks = 0

    def truth():
        nonlocal cached
        if cached is None:
            cached = oracle(g)
        return cached

    def probe(where, i, u, v):
        nonlocal queries
        queries += 1
        a = query(u, v)
        b = walk(u) == walk(v)
        c = truth().same_block(u, v)
        d = find(u) == find(v)
        if not (a == b == c == d):
            note(f"{where} {i}: query({u},{v}) sets={a} walk={b} oracle={c} find={d}")

    t_start = time.perf_counter()
    where, step = "op", 0
    try:
        for step in range(ops):
            r = rng.random()
            if r < 0.8:
                live.mutate(rng, r < 0.4, insert, delete)
                cached = None
            else:
                probe("op", step, rng.randrange(n), rng.randrange(n))
            checking = (step + 1) % check_every == 0
            audit(step, checking)
            if checking:
                checks += 1
                if Partition(idx.partition()) != truth():
                    note(f"op {step}: set partition diverged from oracle")
                if Partition([walk(v) for v in range(n)]) != truth():
                    note(f"op {step}: walk partition diverged from oracle")

        where = "tail"
        for step in range(tail_queries):
            probe("tail", step, rng.randrange(n), rng.randrange(n))
    except DynConnError as exc:
        # every generated op is valid, so an error is an internal check
        # firing on a corrupt index: count it at its op and stop the run
        note(f"{where} {step}: {type(exc).__name__}: {exc}")

    found = idx.counters()
    return FuzzOutcome(
        ops=ops,
        queries=queries,
        checks=checks,
        violations=violations,
        violation_count=vcount,
        elapsed_s=time.perf_counter() - t_start,
        find_calls=found["find_calls"],
        find_visits=found["find_visits"],
        root_violations=root_vcount,
    )
