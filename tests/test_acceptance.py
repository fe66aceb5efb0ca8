"""Acceptance gate: eleven contract criteria, one printed line each.

Run `pytest tests/test_acceptance.py -v -s` to see the lines.  Every
tolerance is pinned here as a constant; seeds are fixed so reruns are
bit-identical (timings excepted).

The 900-vertex / 33,720-edge graph used for the split-cost and depth
criteria is a seeded uniform random graph standing in for the fb-forum
interaction dataset of the same shape, which cannot be fetched here.
"""

import random
import time

import pytest

from dynconn.oracle import Partition
from dynconn.workload import (
    MODES,
    build_index,
    random_edge_stream,
    run_fuzz,
    run_random_cycle,
    run_sliding_window,
)

# criterion 1/2/4 shared run
C1_N = 64
C1_OPS = 50_000
C1_SEED = 2026
C1_MAX_SECONDS = 10.0
C1_TAIL_QUERIES = 500_000
# criterion 3
C3_N = 48
C3_OPS = 20_000
C3_SEED = 2026
C3_MAX_SECONDS = 30.0
# criterion 4
C4_MIN_FINDS = 1_000_000
C4_MAX_MEAN_VISITS = 5.0
# criteria 5/6 (fb-forum-shaped surrogate)
FO_N = 900
FO_M = 33_720
FO_SEED = 900
C5_K = 10_000
C5_SEED = 10
C5_MAX_AVG_S = 2.5
C5_MAX_AVG_SEARCH = 3.0
# the random cycle on the dense surrogate splits no tree, so split size is
# gated on the paper's sliding-window protocol over the same surrogate,
# where every window size splits
C5_WINDOW_PCTS = (1, 2, 5, 10)
C6_DEPTH_LO = 1.0
C6_DEPTH_HI = 6.0
# criterion 7
C7_N = 120
C7_M = 360
C7_SEED = 14
# criterion 8
C8_N = 100_000
C8_M = 500_000
C8_SEED = 88
C8_K = 100_000
C8_MAX_CYCLE_SECONDS = 10.0
C8_QUERIES = 1_000_000
C8_MAX_QUERY_SECONDS = 1.0
# criterion 9
C9_QUERIES = 1_000_000
# criterion 10 (the ROADMAP baseline graph in 2ec mode); the bound is about
# 4x the 106-125 us measured after tree deletes became one swap, and about
# a quarter of the 1.96-2.09 ms that withdrawing and re-placing every
# crossing edge took.  With inserts rewiring through the halfway edge the
# mean read 35-43 us, with the fallback to a lower subtree 22-38 us, and
# with one rule that lifts only subtrees of two or more vertices 19-24 us
# over 388 tree deletions (2-vCPU VM, Python 3.11.7)
C10_N = 20_000
C10_M = 100_000
C10_SEED = 88
C10_K = 2_000
C10_MAX_DELETE_US = 500.0
# criterion 11 (same graph): 2ec forest depth against conn's.  The 2ec
# forest read about 10x conn's before its inserts rewired, 3.2x when they
# rewired through the halfway edge only, 2.06x (10.79 against 5.25) with
# the fallback to a lower subtree, and 2.06x (10.83) with one rule that
# never lifts a lone vertex
C11_MAX_DEPTH_RATIO = 2.5


def _line(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    return ok


@pytest.fixture(scope="module")
def conn_fuzz():
    return run_fuzz(
        "conn", n=C1_N, ops=C1_OPS, seed=C1_SEED, check_every=100,
        tail_queries=C1_TAIL_QUERIES,
    )


@pytest.fixture(scope="module")
def fo_index():
    stream = random_edge_stream(FO_N, FO_M, seed=FO_SEED)
    idx, _ = build_index(stream, "conn")
    return idx, idx.forest.average_depth()


@pytest.fixture(scope="module")
def baseline_2ec():
    """The ROADMAP baseline graph in 2ec mode, with its depth after build."""
    stream = random_edge_stream(C10_N, C10_M, seed=C10_SEED)
    idx, _ = build_index(stream, "2ec")
    return stream, idx, idx.forest.average_depth()


def test_criterion_1_connectivity_differential_fuzz(conn_fuzz):
    out = conn_fuzz
    agree = out.violation_count - out.root_violations
    ok = agree == 0 and out.elapsed_s < C1_MAX_SECONDS
    assert _line(
        1, ok,
        f"{out.ops} mixed ops, {out.queries} queries triple-checked, "
        f"{out.checks} partition checks, {agree} disagreements, "
        f"{out.elapsed_s:.2f}s (limit {C1_MAX_SECONDS:.0f}s)",
    ), out.violations


def test_criterion_2_root_consistency(conn_fuzz):
    out = conn_fuzz
    ok = out.root_violations == 0
    assert _line(
        2, ok,
        f"root pairing audited after every one of {out.ops} ops, "
        f"{out.root_violations} violations",
    ), out.violations


def test_criterion_3_two_ec_differential_fuzz():
    out = run_fuzz("2ec", n=C3_N, ops=C3_OPS, seed=C3_SEED, check_every=50)
    ok = out.violation_count == 0 and out.elapsed_s < C3_MAX_SECONDS
    assert _line(
        3, ok,
        f"{out.ops} mixed ops, {out.queries} probes, {out.checks} full "
        f"cover-count audits, {out.violation_count} disagreements, "
        f"{out.elapsed_s:.2f}s (limit {C3_MAX_SECONDS:.0f}s)",
    ), out.violations


def test_criterion_4_find_walk_length(conn_fuzz):
    out = conn_fuzz
    mean = out.find_visits / out.find_calls if out.find_calls else float("inf")
    ok = out.find_calls >= C4_MIN_FINDS and mean <= C4_MAX_MEAN_VISITS
    assert _line(
        4, ok,
        f"{out.find_calls} finds, mean {mean:.3f} nodes visited "
        f"(limit {C4_MAX_MEAN_VISITS})",
    )


def test_criterion_5_split_cost_statistics(fo_index):
    idx, _ = fo_index
    rep = run_random_cycle(idx, C5_K, seed=C5_SEED)
    avg_s = rep.extras.get("avg_S")
    avg_search = rep.extras.get("avg_search")
    s_ok = avg_s is None or avg_s <= C5_MAX_AVG_S
    search_ok = avg_search is not None and avg_search <= C5_MAX_AVG_SEARCH
    # the window half: each window size must split, within the size bound;
    # its search cost is printed without a bound
    stream = random_edge_stream(FO_N, FO_M, seed=FO_SEED, timestamps=True)
    windows = []
    for pct in C5_WINDOW_PCTS:
        w = run_sliding_window(stream, pct, mode="conn")
        windows.append((pct, w.extras.get(f"avg_S_w{pct}"),
                        w.extras.get(f"avg_search_w{pct}")))
    window_ok = all(a is not None and a <= C5_MAX_AVG_S for _, a, _ in windows)
    ok = s_ok and search_ok and window_ok
    s_text = "no splits sampled" if avg_s is None else f"{avg_s:.3f}"
    w_text = ", ".join(
        f"pct {pct}: split size {'none' if a is None else f'{a:.3f}'}, "
        f"search {'none' if q is None else f'{q:.3f}'}"
        for pct, a, q in windows
    )
    assert _line(
        5, ok,
        f"k={C5_K} cycle on {FO_N}v/{FO_M}e surrogate: mean split size "
        f"{s_text} (limit {C5_MAX_AVG_S}), mean search probes "
        f"{avg_search:.3f} over {idx.tree_deletes} tree deletions "
        f"(limit {C5_MAX_AVG_SEARCH}); sliding windows ({w_text}; split "
        f"size limit {C5_MAX_AVG_S}, search unbounded)",
    )


def test_criterion_6_average_depth_after_build(fo_index):
    _, depth = fo_index
    ok = C6_DEPTH_LO <= depth <= C6_DEPTH_HI
    assert _line(
        6, ok,
        f"forest depth {depth:.3f} after full {FO_N}v/{FO_M}e build "
        f"(range [{C6_DEPTH_LO}, {C6_DEPTH_HI}])",
    )


def test_criterion_7_round_trip_restoration():
    stream = random_edge_stream(C7_N, C7_M, seed=C7_SEED)
    results = []
    for mode in ("conn", "2ec"):
        idx, _ = build_index(stream, mode)
        # the cycle driver itself asserts partition restoration and, at
        # this size, agreement with the BFS oracle
        run_random_cycle(idx, idx.graph.m, seed=C7_SEED + 1)
        got = Partition([idx.dsets.peek_root(v) for v in range(C7_N)])
        results.append(got == MODES[mode][1](idx.graph))
    ok = all(results)
    assert _line(
        7, ok,
        f"delete-all/re-insert-all of {C7_M} edges restored the exact "
        f"partition in both modes (oracle-checked at n={C7_N})",
    )


def test_criterion_8_performance_smoke():
    stream = random_edge_stream(C8_N, C8_M, seed=C8_SEED)
    idx, _ = build_index(stream, "conn")
    rep = run_random_cycle(idx, C8_K, seed=C8_SEED)
    d_mean, k = rep.timings_ns["delete"]
    i_mean, _ = rep.timings_ns["insert"]
    cycle_s = (d_mean + i_mean) * k / 1e9

    rng = random.Random(C8_SEED + 1)
    pairs = [(rng.randrange(C8_N), rng.randrange(C8_N)) for _ in range(C8_QUERIES)]
    query = idx.connected
    t0 = time.perf_counter()
    for u, v in pairs:
        query(u, v)
    query_s = time.perf_counter() - t0

    ok = cycle_s < C8_MAX_CYCLE_SECONDS and query_s < C8_MAX_QUERY_SECONDS
    assert _line(
        8, ok,
        f"{C8_K} delete+insert cycles on {C8_N}v/{C8_M}e in {cycle_s:.2f}s "
        f"(limit {C8_MAX_CYCLE_SECONDS:.0f}s); {C8_QUERIES} queries in "
        f"{query_s:.2f}s (limit {C8_MAX_QUERY_SECONDS:.0f}s)",
    )


def test_criterion_9_query_purity(fo_index):
    idx, _ = fo_index
    forest = idx.forest
    before = (list(forest.parent), list(forest.size))
    rng = random.Random(7)
    n = idx.graph.n
    for _ in range(C9_QUERIES):
        forest.query(rng.randrange(n), rng.randrange(n))
    after = (list(forest.parent), list(forest.size))
    ok = before == after
    assert _line(
        9, ok,
        f"{C9_QUERIES} tree-walk queries left parent/size arrays "
        f"bit-identical: {ok}",
    )


def test_criterion_10_two_edge_delete_performance(baseline_2ec):
    _, idx, _ = baseline_2ec
    rep = run_random_cycle(idx, C10_K, seed=C10_SEED)
    d_mean, k = rep.timings_ns["delete"]
    i_mean, _ = rep.timings_ns["insert"]
    delete_us = d_mean / 1e3
    ok = delete_us < C10_MAX_DELETE_US
    assert _line(
        10, ok,
        f"{k} 2ec delete+insert cycles on {C10_N}v/{C10_M}e: mean delete "
        f"{delete_us:.1f}us (limit {C10_MAX_DELETE_US:.0f}us) over "
        f"{idx.tree_deletes} tree deletions, mean insert {i_mean / 1e3:.1f}us",
    )


def test_criterion_11_two_edge_depth_after_build(baseline_2ec):
    stream, _, depth = baseline_2ec
    conn, _ = build_index(stream, "conn")
    conn_depth = conn.forest.average_depth()
    ratio = depth / conn_depth
    ok = ratio <= C11_MAX_DEPTH_RATIO
    assert _line(
        11, ok,
        f"forest depth after the {C10_N}v/{C10_M}e build: 2ec {depth:.2f}, "
        f"conn {conn_depth:.2f}, ratio {ratio:.2f} (limit {C11_MAX_DEPTH_RATIO})",
    )
