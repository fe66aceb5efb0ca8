"""Stream parsing, benchmark protocols, CSV shape, fuzz determinism."""

import io
import random
import types

import pytest

from dynconn import workload
from dynconn.connectivity import ConnectivityIndex
from dynconn.disjoint_set import DisjointSetForest
from dynconn.errors import (InvariantError, KTooLarge, MissingTimestamps, OutOfRange,
                            ParseError)
from dynconn.graph import DynamicGraph
from dynconn.oracle import Partition
from dynconn.spanning_forest import InsertKind, SpanningForest
from dynconn.two_edge import TwoEdgeForest, TwoEdgeIndex
from dynconn.workload import (
    MODES,
    EdgeStream,
    MetricsReport,
    build_index,
    load_edge_file,
    new_index,
    parse_edge_stream,
    random_edge_stream,
    run_fuzz,
    run_random_cycle,
    run_sliding_window,
    time_queries,
    WorkloadEvent,
)


# -- parsing -------------------------------------------------------------------


def test_parse_plain_rows():
    s = parse_edge_stream(["0 1", "1 2"])
    assert s.n == 3
    assert [(e.u, e.v, e.t) for e in s.events] == [(0, 1, None), (1, 2, None)]


def test_parse_remaps_densely_and_keeps_timestamps():
    s = parse_edge_stream(["# c", "5 9 100"])
    assert s.n == 2
    assert s.mapping == {5: 0, 9: 1}
    assert s.labels == [5, 9]
    e = s.events[0]
    assert (e.u, e.v, e.t) == (0, 1, 100)


def test_parse_empty_and_comments_and_bytes():
    assert parse_edge_stream([]).n == 0
    s = parse_edge_stream(io.BytesIO(b"% header\n\n7 3\n"))
    assert s.n == 2
    assert len(s.events) == 1


def test_parse_drops_self_loops_but_claims_their_label():
    s = parse_edge_stream(["4 4", "4 6"])
    assert s.dropped_self_loops == 1
    assert s.n == 2
    assert s.mapping == {4: 0, 6: 1}
    assert len(s.events) == 1


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_edge_stream(["0 1", "0 1 2 3"])
    assert err.value.line_no == 2
    with pytest.raises(ParseError) as err:
        parse_edge_stream(["a b"])
    assert err.value.line_no == 1


def test_load_edge_file(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("# t\n0 1\n1 2\n")
    assert load_edge_file(p).n == 3


def test_random_edge_stream_is_simple_exact_and_seeded():
    s1 = random_edge_stream(30, 80, seed=5, timestamps=True)
    s2 = random_edge_stream(30, 80, seed=5, timestamps=True)
    assert [(e.u, e.v, e.t) for e in s1.events] == [(e.u, e.v, e.t) for e in s2.events]
    edges = {(min(e.u, e.v), max(e.u, e.v)) for e in s1.events}
    assert len(edges) == 80
    ts = [e.t for e in s1.events]
    assert all(a < b for a, b in zip(ts, ts[1:]))
    with pytest.raises(OutOfRange):
        random_edge_stream(4, 7)


@pytest.mark.parametrize("n, m", [(-2, 1), (2.5, 1), ("4", 1), (None, 0), (4, -1),
                                  (4, 1.5), (4, None), (True, 0), (4, True)])
def test_random_edge_stream_bad_sizes_are_out_of_range(n, m):
    with pytest.raises(OutOfRange):
        random_edge_stream(n, m)


# -- index protocol ------------------------------------------------------------


@pytest.mark.parametrize("mode", ["conn", "2ec"])
def test_protocol_alone_tracks_the_mode_oracle(mode):
    # seeded random ops through insert/delete/query only, checked against
    # the mode's oracle on a graph the index never sees
    n = 10
    idx = new_index(n, mode)
    assert idx.mode == mode
    oracle = MODES[mode][1]
    shadow = DynamicGraph(n)
    rng = random.Random(21)
    for _ in range(800):
        u, v = rng.sample(range(n), 2)
        if rng.random() < 0.7:
            if shadow.remove_edge(u, v):
                idx.delete(u, v)
            else:
                shadow.add_edge(u, v)
                idx.insert(u, v)
        else:
            assert idx.query(u, v) == oracle(shadow).same_block(u, v)
    assert Partition(idx.partition()) == oracle(shadow)


def test_unknown_mode_is_out_of_range():
    stream = parse_edge_stream(["0 1 0", "1 2 10"])
    for mode in ("3ec", None, ["conn"]):
        for make in (lambda: new_index(4, mode), lambda: build_index(stream, mode),
                     lambda: run_sliding_window(stream, 50, mode),
                     lambda: run_fuzz(mode, n=4, ops=10)):
            with pytest.raises(OutOfRange, match="expected one of conn, 2ec"):
                make()


# -- build ---------------------------------------------------------------------


def test_build_counts_duplicate_arrivals():
    s = parse_edge_stream(["0 1 5", "1 2 6", "0 1 7"])
    idx, dup = build_index(s)
    assert dup == 1
    assert idx.graph.m == 2
    assert idx.connected(0, 2)


def test_partition_read_leaves_counters_alone():
    # the cycle report reads the partition between its counter snapshots,
    # so a read must neither compress nor count
    stream = random_edge_stream(40, 80, seed=2)
    for mode in ("conn", "2ec"):
        idx, _ = build_index(stream, mode)
        before = idx.counters()
        assert len(idx.partition()) == 40
        assert idx.counters() == before


# -- random cycle ----------------------------------------------------------


def test_cycle_zero_k_changes_nothing():
    idx, _ = build_index(parse_edge_stream(["0 1", "1 2"]))
    before = (list(idx.forest.parent), idx.graph.m)
    rep = run_random_cycle(idx, 0, seed=3)
    assert (list(idx.forest.parent), idx.graph.m) == before
    assert rep.counts == {"delete": 0, "insert": 0}


def test_cycle_full_tree_teardown_restores_partition():
    stream = parse_edge_stream([f"{v} {v + 1}" for v in range(30)])
    idx, _ = build_index(stream)
    rep = run_random_cycle(idx, idx.graph.m, seed=1)
    assert idx.graph.m == 30
    assert idx.connected(0, 30)
    assert "avg_depth_id" in rep.extras


def test_cycle_on_seeded_graph_restores_partition_both_modes():
    stream = random_edge_stream(200, 500, seed=9)
    for mode in ("conn", "2ec"):
        idx, _ = build_index(stream, mode)
        rep = run_random_cycle(idx, 100, seed=4)
        assert rep.extras["cycle_k"] == 100
        assert rep.timings_ns["delete"][1] == 100
        assert "avg_finds_len" in rep.extras


def test_cycle_k_too_large():
    idx, _ = build_index(parse_edge_stream(["0 1"]))
    with pytest.raises(KTooLarge):
        run_random_cycle(idx, 2)


@pytest.mark.parametrize("k", [-1, 1.5, "1", None, True])
def test_cycle_bad_k_is_out_of_range_and_changes_nothing(k):
    idx, _ = build_index(parse_edge_stream(["0 1", "1 2"]))
    before = (list(idx.forest.parent), idx.partition(), idx.counters())
    with pytest.raises(OutOfRange):
        run_random_cycle(idx, k)
    assert (list(idx.forest.parent), idx.partition(), idx.counters()) == before


def _lose_reinserts(monkeypatch):
    # inserts go through until the first tree delete; after it they are
    # dropped, so a cycle's re-inserts never restore what it deleted
    real = ConnectivityIndex.insert

    def insert(self, u, v):
        if not self.tree_deletes:
            return real(self, u, v)

    monkeypatch.setattr(ConnectivityIndex, "insert", insert)


def test_cycle_that_does_not_restore_raises_invariant_error(monkeypatch):
    _lose_reinserts(monkeypatch)
    idx, _ = build_index(parse_edge_stream(["0 1", "1 2", "2 3"]))
    with pytest.raises(InvariantError, match="failed to restore the partition"):
        run_random_cycle(idx, 3)


def test_cycle_that_disagrees_with_the_oracle_raises_invariant_error(monkeypatch):
    monkeypatch.setitem(MODES, "conn",
                        (ConnectivityIndex, lambda g: Partition(range(g.n))))
    idx, _ = build_index(parse_edge_stream(["0 1", "1 2", "2 3"]))
    with pytest.raises(InvariantError, match="disagrees with the oracle"):
        run_random_cycle(idx, 2)


@pytest.mark.parametrize("count", [0, -3, 2.5, True])
def test_query_batch_bad_count_is_out_of_range(count):
    idx, _ = build_index(parse_edge_stream(["0 1"]))
    with pytest.raises(OutOfRange):
        time_queries(idx, count)


def test_query_batch_times_only_the_queries(monkeypatch):
    # the stub clock ticks 1000 ns per seeded draw and 1 ns per query, so
    # a mean of 1 ns means every batch drew its pairs before its clock
    # started; 40 queries in batches of 16 make three batches
    clock = [0]

    class TickingRandom(random.Random):
        def randrange(self, *args):
            clock[0] += 1000
            return super().randrange(*args)

    asked = []

    def query(u, v):
        clock[0] += 1
        asked.append((u, v))

    monkeypatch.setattr(workload, "random", types.SimpleNamespace(Random=TickingRandom))
    monkeypatch.setattr(workload, "time", types.SimpleNamespace(perf_counter_ns=lambda: clock[0]))
    monkeypatch.setattr(workload, "_QUERY_BATCH", 16)
    idx = types.SimpleNamespace(graph=types.SimpleNamespace(n=50), query=query)
    assert time_queries(idx, 40, seed=5) == 1.0
    rng = random.Random(5)
    assert asked == [(rng.randrange(50), rng.randrange(50)) for _ in range(40)]


# -- sliding window --------------------------------------------------------


def test_window_full_span_never_evicts():
    s = parse_edge_stream(["0 1 0", "1 2 10", "2 3 20"])
    rep = run_sliding_window(s, 100)
    assert rep.counts["delete"] == 0
    assert rep.extras["final_edges_w100"] == 3


def test_window_eviction_rule_is_strict():
    # span 20, window 50% = 10: inserting t=20 evicts only the t=0 edge
    s = parse_edge_stream(["0 1 0", "1 2 10", "2 3 20"])
    rep = run_sliding_window(s, 50)
    assert rep.counts["delete"] == 1
    assert rep.extras["final_edges_w50"] == 2


def test_window_duplicate_is_noop_and_age_not_refreshed():
    s = parse_edge_stream(["0 1 0", "0 1 50", "2 3 100"])
    rep = run_sliding_window(s, 50)
    assert rep.counts["noop"] == 1
    # (0,1) aged from t=0, not t=50, so the t=100 arrival evicts it
    assert rep.counts["delete"] == 1
    assert rep.extras["final_edges_w50"] == 1


def test_window_requires_timestamps():
    s = parse_edge_stream(["0 1 5", "1 2"])
    with pytest.raises(MissingTimestamps):
        run_sliding_window(s, 50)


def test_window_rejects_decreasing_timestamps():
    # out of order, the window's front is not its oldest edge, so eviction
    # would stop early: in time order these rows evict two edges at 10%
    rows = ["2 3 100", "4 5 50", "0 1 0"]
    assert run_sliding_window(parse_edge_stream(rows[::-1]), 10).counts["delete"] == 2
    with pytest.raises(ParseError, match=r"^line 2: timestamps decrease \(4 5 50, after 100\)$"):
        run_sliding_window(parse_edge_stream(rows), 10)
    # equal timestamps are in order
    rep = run_sliding_window(parse_edge_stream(["0 1 5", "1 2 5", "2 3 5"]), 50)
    assert rep.counts == {"insert": 3, "delete": 0, "noop": 0}


def test_window_names_the_source_line_of_a_decreasing_timestamp():
    # comment lines and dropped self loops shift rows away from event ids
    rows = ["# c", "2 3 100", "7 7 80", "4 5 50"]
    with pytest.raises(ParseError) as err:
        run_sliding_window(parse_edge_stream(rows), 10)
    assert err.value.line_no == 4
    assert str(err.value) == "line 4: timestamps decrease (4 5 50, after 100)"
    # a stream built in memory has no lines, so its event index stands in
    events = [WorkloadEvent(0, 1, 100), WorkloadEvent(2, 3, 50)]
    with pytest.raises(ParseError) as err:
        run_sliding_window(EdgeStream(events, 4, [0, 1, 2, 3], {}), 10)
    assert err.value.line_no is None
    assert str(err.value) == "timestamps decrease at event 1 (2 3 50, after 100)"


@pytest.mark.parametrize("pct", [0, -5, 101, 2.5, "x", None, True])
def test_window_bad_pct_is_out_of_range(pct):
    s = parse_edge_stream(["0 1 0", "1 2 10", "2 3 20"])
    with pytest.raises(OutOfRange):
        run_sliding_window(s, pct)


def test_window_query_batch_rows():
    s = parse_edge_stream(["0 1 0", "1 2 10", "2 3 20"])
    rep = run_sliding_window(s, 80, mode="2ec", queries=50, seed=2)
    ops = [row[1] for row in rep.window_rows]
    assert ops == ["insert", "delete", "query"]
    assert rep.window_rows[2][0] == 80
    assert rep.window_rows[2][3] == 50


# -- report shape ------------------------------------------------------------


def test_csv_layout_is_exact():
    rep = MetricsReport(
        extras={"vertices": 4, "avg_depth_id": 1.5},
        counts={"insert": 2},
        timings_ns={"insert": (123.456, 2)},
        window_rows=[(5, "insert", 10.0, 2)],
    )
    out = io.StringIO()
    rep.write_csv(out)
    assert out.getvalue() == (
        "metric,value\n"
        "vertices,4\n"
        "avg_depth_id,1.5\n"
        "count_insert,2\n"
        "insert_mean_ns,123.456\n"
        "window_pct,op,mean_ns,count\n"
        "5,insert,10,2\n"
    )


def test_report_merge_accumulates():
    a = MetricsReport(counts={"insert": 1}, window_rows=[(5, "insert", 1.0, 1)])
    b = MetricsReport(extras={"avg_S": 2.0}, counts={"insert": 2},
                      window_rows=[(10, "insert", 1.0, 2)])
    a.merge(b)
    assert a.extras["avg_S"] == 2.0
    assert a.counts["insert"] == 3
    assert [r[0] for r in a.window_rows] == [5, 10]


# -- fuzz engines ------------------------------------------------------------


def test_connectivity_fuzz_clean_and_deterministic():
    a = run_fuzz("conn", n=12, ops=600, seed=7, check_every=50, tail_queries=200)
    b = run_fuzz("conn", n=12, ops=600, seed=7, check_every=50, tail_queries=200)
    assert a.ok and b.ok
    assert a.violations == []
    assert (a.queries, a.checks, a.find_calls) == (b.queries, b.checks, b.find_calls)
    assert a.find_calls > 0


def test_two_ec_fuzz_clean_and_deterministic():
    a = run_fuzz("2ec", n=10, ops=400, seed=3, check_every=25)
    b = run_fuzz("2ec", n=10, ops=400, seed=3, check_every=25)
    assert a.ok
    assert a.checks == 16
    assert (a.queries, a.find_calls) == (b.queries, b.find_calls)


@pytest.mark.parametrize("kwargs", [{"n": 1}, {"n": 0}, {"n": 2.5}, {"n": True},
                                    {"ops": -1}, {"check_every": 0},
                                    {"check_every": True}, {"tail_queries": -1}])
@pytest.mark.parametrize("mode", ["conn", "2ec"])
def test_fuzz_bad_sizes_are_out_of_range(mode, kwargs):
    with pytest.raises(OutOfRange):
        run_fuzz(mode, **{"n": 8, "ops": 10, **kwargs})


def test_fuzz_root_audit_failure_counts_and_the_run_goes_on(monkeypatch):
    def broken(self):
        raise InvariantError("tree root 0 is not its set representative")

    monkeypatch.setattr(ConnectivityIndex, "_audit", broken)
    out = run_fuzz("conn", n=6, ops=30, seed=1, check_every=10)
    assert out.root_violations == out.violation_count == 30
    assert out.checks == 3
    assert out.violations[0] == "op 0: tree root 0 is not its set representative"


def test_fuzz_counts_a_raising_op_and_stops(monkeypatch):
    # a reroot that leaves every cover count where it was corrupts the
    # forest until an op's own check raises
    monkeypatch.setattr(TwoEdgeForest, "reroot", SpanningForest.reroot)
    out = run_fuzz("2ec", n=10, ops=400, seed=3, check_every=100)
    assert out.violation_count == 1
    assert out.violations == ["op 50: RepUnderflow: cover count below zero above 6"]
    assert out.checks == 0  # stopped before the first check at op 99


@pytest.mark.parametrize("n", [4, 6, 8, 16, 30, 80])
def test_two_ec_fuzz_takes_the_rewire_path(monkeypatch, n):
    # every rewire lifts a subtree of two or more vertices.  At n = 4 no
    # run rewires: a tree that shallow leaves a leaf at the deep end of
    # every gap, so n = 4 is a clean run and rewires are required from 6 up
    rewires = []
    real = TwoEdgeIndex._rewire

    def checked(self, u, v, w):
        assert self.forest.size[w] >= 2, (u, v, w)
        rewires.append((u, v, w))
        return real(self, u, v, w)

    monkeypatch.setattr(TwoEdgeIndex, "_rewire", checked)
    for seed in range(3):
        out = run_fuzz("2ec", n=n, ops=3000, seed=seed, check_every=3)
        assert out.ok, out.violations
    assert bool(rewires) == (n >= 6)


# -- the fuzzer catches wrong answers ------------------------------------------


@pytest.mark.parametrize("mode", ["conn", "2ec"])
def test_fuzz_catches_a_wrong_set_answer(monkeypatch, mode):
    real = DisjointSetForest.same_set
    monkeypatch.setattr(DisjointSetForest, "same_set",
                        lambda self, u, v: not real(self, u, v))
    out = run_fuzz(mode, n=8, ops=200, seed=1, check_every=50, tail_queries=10)
    # every query is now wrong, and nothing else is
    assert out.violation_count == out.queries == 47
    assert out.violations[0] == "op 8: query(0,3) sets=True walk=False oracle=False find=False"
    assert all("query(" in msg for msg in out.violations)


def test_fuzz_catches_a_lying_forest_walk(monkeypatch):
    monkeypatch.setattr(SpanningForest, "_root", lambda self, u: u)
    out = run_fuzz("conn", n=8, ops=200, seed=1, check_every=50)
    walks = [m for m in out.violations if "partition" in m]
    assert walks == [f"op {s}: walk partition diverged from oracle"
                     for s in (49, 99, 149, 199)]
    assert out.violation_count == 17  # 4 checks plus 13 wrong walk answers
    assert all("sets=False walk=False" not in m for m in out.violations)


@pytest.mark.parametrize("mode, steps", [("conn", (49, 99, 149, 199)),
                                         ("2ec", (99, 149))])
def test_fuzz_catches_a_wrong_set_partition(monkeypatch, mode, steps):
    # every vertex reported alone: wrong at each check whose truth has a
    # class of two or more (in 2ec mode every class at ops 49 and 199 is
    # a single vertex)
    monkeypatch.setattr(MODES[mode][0], "partition",
                        lambda self: list(range(self.graph.n)))
    out = run_fuzz(mode, n=8, ops=200, seed=1, check_every=50)
    assert out.violations == [f"op {s}: set partition diverged from oracle"
                              for s in steps]
    assert out.violation_count == len(steps)


def test_fuzz_catches_a_wrong_cover_count(monkeypatch):
    # the first tree edge is stored one cover too high
    real = TwoEdgeIndex.insert2

    def insert(self, u, v):
        kind = real(self, u, v)
        if kind is InsertKind.TREE_EDGE and not hasattr(self, "bumped"):
            self.bumped = u if self.forest.parent[u] == v else v
            self.forest.rep[self.bumped] += 1
        return kind

    monkeypatch.setattr(TwoEdgeIndex, "insert", insert)
    out = run_fuzz("2ec", n=8, ops=200, seed=1, check_every=1)
    assert out.violation_count >= 1
    assert out.violations[0] == "op 0: stored cover counts diverged from oracle"
