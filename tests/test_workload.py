"""Stream parsing, benchmark protocols, CSV shape, fuzz determinism."""

import io

import pytest

from dynconn.errors import KTooLarge, MissingTimestamps, ParseError
from dynconn.workload import (
    EventKind,
    MetricsReport,
    build_index,
    load_edge_file,
    parse_edge_stream,
    random_edge_stream,
    run_connectivity_fuzz,
    run_random_cycle,
    run_sliding_window,
    run_two_ec_fuzz,
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
    assert (e.kind, e.u, e.v, e.t) == (EventKind.INSERT, 0, 1, 100)


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
    with pytest.raises(ValueError):
        random_edge_stream(4, 7)


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
    assert rep.avg_depth_id is not None


def test_cycle_on_seeded_graph_restores_partition_both_modes():
    stream = random_edge_stream(200, 500, seed=9)
    for mode in ("conn", "2ec"):
        idx, _ = build_index(stream, mode)
        rep = run_random_cycle(idx, 100, seed=4)
        assert rep.extras["cycle_k"] == 100
        assert rep.timings_ns["delete"][1] == 100
        assert rep.avg_finds_len is not None


def test_cycle_k_too_large():
    idx, _ = build_index(parse_edge_stream(["0 1"]))
    with pytest.raises(KTooLarge):
        run_random_cycle(idx, 2)


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
        avg_depth_id=1.5,
        extras={"vertices": 4},
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
    b = MetricsReport(avg_S=2.0, counts={"insert": 2}, window_rows=[(10, "insert", 1.0, 2)])
    a.merge(b)
    assert a.avg_S == 2.0
    assert a.counts["insert"] == 3
    assert [r[0] for r in a.window_rows] == [5, 10]


# -- fuzz engines ------------------------------------------------------------


def test_connectivity_fuzz_clean_and_deterministic():
    a = run_connectivity_fuzz(n=12, ops=600, seed=7, check_every=50, tail_queries=200)
    b = run_connectivity_fuzz(n=12, ops=600, seed=7, check_every=50, tail_queries=200)
    assert a.ok and b.ok
    assert a.violations == []
    assert (a.queries, a.checks, a.find_calls) == (b.queries, b.checks, b.find_calls)
    assert a.find_calls > 0


def test_two_ec_fuzz_clean_and_deterministic():
    a = run_two_ec_fuzz(n=10, ops=400, seed=3, check_every=25)
    b = run_two_ec_fuzz(n=10, ops=400, seed=3, check_every=25)
    assert a.ok
    assert a.checks == 16
    assert (a.queries, a.find_calls) == (b.queries, b.find_calls)
