#!/usr/bin/env python3
"""Seeded end-to-end and per-layer benchmark of the dynconn indexes.

    python3 perfbench/run.py --workload conn-window --seed 1 --seconds 20 --trace 0

One client replays a workload's op stream in a closed loop: each op is
sent when the previous one has returned, and each is timed alone.

With `--trace 0` the index is built `replays` times, and each build
replays the same op stream, drawn from the seed: `segments_per_s`
segments per second of `--seconds`, and at least MIN_SAMPLES calls of
every op kind.  Since every replay does the same work, each op's latency
is its minimum over the replays, and each segment's wall time likewise;
ops_per_s is the stream's ops over the sum of those segment times, and
the percentiles are taken over the per-op minima.  On a shared host
whose speed drifts in bursts of seconds, the best of several replays
holds steady where a median or mean follows the drift.  setup_s is the
median build time.

With `--trace 1` a fixed number of segments is replayed on three fresh
builds: untraced, then with each layer's public methods wrapped in spans
(see layertrace.py), then untraced again.  The per-layer metrics come
from the traced replay and do not depend on `--seconds`.

Correctness is checked outside the timed region, on every traced
replay and on the first end-to-end one.  Every `probe_every` segments,
the segment's final query is checked against the oracle on the index's
adjacency.  Every `checkpoint_every` segments, and at the end, the
index's whole partition is checked against the oracle on the edge set
the stream expects.  Each later end-to-end replay must end in the same
partition as the first.  Each raised op and each disagreement counts as
a failure; any failure makes the exit code 1.
The last line of stdout is one JSON object with the metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from array import array
from pathlib import Path

from layertrace import LAYERS, Tracer
from opstream import OP_NAMES, QUERY, WORKLOADS, OpStream, churn_graph

ROOT = Path(__file__).resolve().parent.parent
MIN_SAMPLES = 1000  # per op kind, so p99 has ten samples beyond it

# (name, unit); reported with --trace 0
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("insert_p50_us", "us"),
    ("insert_p99_us", "us"),
    ("delete_p50_us", "us"),
    ("delete_p99_us", "us"),
    ("query_p50_us", "us"),
    ("query_p99_us", "us"),
    ("peak_rss_mb", "MB"),
)

# (name, unit, exact); reported with --trace 1.  Exact metrics are counts,
# or ratios of counts, that repeat bit for bit for a given seed; the
# others are timings.
PER_LAYER = (
    ("graph.self_ms", "ms", False),
    ("graph.add_edge.self_ms", "ms", False),
    ("graph.remove_edge.self_ms", "ms", False),
    ("spanning_forest.self_ms", "ms", False),
    ("spanning_forest.delete_edge.self_ms", "ms", False),
    ("spanning_forest.probes_per_tree_delete", "probe/delete", True),
    ("spanning_forest.visited_per_tree_delete", "vertex/delete", True),
    ("spanning_forest.replaced_share", "ratio", True),
    ("spanning_forest.link.self_ms", "ms", False),
    ("spanning_forest.unlink.self_ms", "ms", False),
    ("spanning_forest.reroot.self_ms", "ms", False),
    ("spanning_forest.insert_nontree.self_ms", "ms", False),
    ("spanning_forest.rewired_share", "ratio", True),
    ("spanning_forest.avg_depth_end", "hops", True),
    ("disjoint_set.self_ms", "ms", False),
    ("disjoint_set.same_set.self_ms", "ms", False),
    ("disjoint_set.find_visits_per_find", "visit/find", True),
    ("disjoint_set.isolate.self_ms", "ms", False),
    ("disjoint_set.isolate_child_moves", "count", True),
    ("disjoint_set.link.self_ms", "ms", False),
    ("disjoint_set.find.calls", "count", True),
    ("disjoint_set.reroot.self_ms", "ms", False),
    ("disjoint_set.find_calls", "count", True),
    ("disjoint_set.find_visits", "count", True),
    ("disjoint_set.link_calls", "count", True),
    ("disjoint_set.isolate_calls", "count", True),
    ("connectivity.self_ms", "ms", False),
    ("connectivity.insert.self_ms", "ms", False),
    ("connectivity.delete.self_ms", "ms", False),
    ("connectivity.splits_per_tree_delete", "ratio", True),
    ("connectivity.split_size_mean", "vertices", True),
    ("connectivity.tree_deletes", "count", True),
    ("connectivity.splits", "count", True),
    ("connectivity.split_visited_total", "count", True),
    ("connectivity.probe_total", "count", True),
    ("two_edge.self_ms", "ms", False),
    ("two_edge.insert2.self_ms", "ms", False),
    ("two_edge.delete2.self_ms", "ms", False),
    ("two_edge.getrep.self_ms", "ms", False),
    ("two_edge.cut_bridge.self_ms", "ms", False),
    ("two_edge.crossings_per_tree_delete", "edge/delete", True),
    ("two_edge.class_merges", "count", True),
    ("two_edge.class_isolates", "count", True),
    ("two_edge.avg_depth_end", "hops", True),
    ("trace.stream_s", "s", False),
    ("trace.overhead_s", "s", False),
)

SET_COUNTERS = ("find_calls", "find_visits", "link_calls", "isolate_calls",
                "isolate_child_moves")
INDEX_COUNTERS = ("tree_deletes", "splits", "split_visited_total", "probe_total")


def import_package():
    """Import dynconn from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import dynconn
    if Path(dynconn.__file__).resolve().parent.parent != src:
        raise ImportError(f"dynconn resolved outside {src}: {dynconn.__file__}")
    return dynconn


class Bench:
    """One workload's index plumbing: build, bind, check."""

    def __init__(self, dc, workload):
        from dynconn.oracle import (
            Partition,
            oracle_components,
            oracle_connected,
            oracle_two_edge_components,
        )
        self.dc = dc
        self.w = workload
        self.Partition = Partition
        if workload.mode == "conn":
            self.index_cls = dc.ConnectivityIndex
            self.truth = oracle_components
            self.probe = oracle_connected
        else:
            self.index_cls = dc.TwoEdgeIndex
            self.truth = oracle_two_edge_components
            self.probe = lambda g, u, v: oracle_two_edge_components(g).same_block(u, v)
        self.failures = 0

    @staticmethod
    def ops(idx):
        """(insert, delete, query) for the indexed relation: the 2-edge
        names where the index has them, the plain names otherwise."""
        def pick(*names):
            return next(getattr(idx, n) for n in names if hasattr(idx, n))
        return (pick("insert2", "insert"), pick("delete2", "delete"),
                pick("two_edge_connected", "connected"))

    @staticmethod
    def sets(idx):
        """The set forest whose partition is the indexed relation."""
        return idx.csets if hasattr(idx, "csets") else idx.dsets

    def build(self, stream):
        """Fresh index holding the stream's initial edges; (index, seconds)."""
        gc.collect()
        iu, iv = stream.initial
        t0 = time.perf_counter()
        idx = self.index_cls(self.w.n)
        insert = self.ops(idx)[0]
        for u, v in zip(iu, iv):
            insert(u, v)
        return idx, time.perf_counter() - t0

    def fail(self, what):
        self.failures += 1
        if self.failures <= 5:
            print(f"FAIL {self.w.name}: {what}", file=sys.stderr)

    def partition(self, idx):
        """The index's relation, read without compressing or counting."""
        peek = self.sets(idx).peek_root
        return self.Partition([peek(v) for v in range(self.w.n)])

    def check_partition(self, idx, stream, where):
        shadow = _Shadow(self.w.n, stream.live_edges())
        if self.partition(idx) != self.truth(shadow):
            self.fail(f"partition differs from the oracle {where}")

    def replay(self, idx, stream, segments, need=(0, 0, 0), checks=True):
        """Replay at least `segments` segments, and more until each op kind
        has as many calls as `need` asks, checking answers unless
        `checks` is off.  Returns [(latencies in ns per op kind,
        seconds)] per segment."""
        fns = self.ops(idx)
        clock = time.perf_counter_ns
        w = self.w
        out = []
        counts = [0, 0, 0]
        gc.collect()
        while True:
            kinds, us, vs = stream.segment()
            lat = (array("q"), array("q"), array("q"))
            answer = None
            t_seg = clock()
            for k, u, v in zip(kinds, us, vs):
                t = clock()
                try:
                    answer = fns[k](u, v)
                except Exception:
                    answer = None
                    self.fail(f"{OP_NAMES[k]}({u}, {v}) raised\n{traceback.format_exc()}")
                lat[k].append(clock() - t)
            out.append((lat, (clock() - t_seg) / 1e9))
            for k in range(3):
                counts[k] += len(lat[k])
            done = len(out)
            if checks and done % w.probe_every == 0:
                u, v = us[-1], vs[-1]
                if kinds[-1] != QUERY or answer != self.probe(idx.graph, u, v):
                    self.fail(f"query({u}, {v}) answered {answer} in segment {done}")
            finished = done >= segments and all(c >= n for c, n in zip(counts, need))
            if checks and (finished or done % w.checkpoint_every == 0):
                self.check_partition(idx, stream, f"after segment {done}")
            if finished:
                return out


def totals(segments):
    """(stream seconds, ops per kind) over all segments."""
    return (sum(wall for _, wall in segments),
            {name: sum(len(lat[i]) for lat, _ in segments)
             for i, name in enumerate(OP_NAMES)})


class _Shadow:
    """Adjacency sets built from an edge list, in the shape the oracle reads."""

    def __init__(self, n, edges):
        self.n = n
        self.adj = [set() for _ in range(n)]
        for u, v in edges:
            self.adj[u].add(v)
            self.adj[v].add(u)


def quantile(sorted_ns, p):
    """Nearest-rank quantile in microseconds."""
    return sorted_ns[max(0, math.ceil(len(sorted_ns) * p) - 1)] / 1e3


def run_end_to_end(bench, seed, seconds):
    """Build the index `replays` times and replay the same op stream on
    each build; keep each op's and each segment's best time."""
    w = bench.w
    graph = churn_graph(w) if w.stream == "churn" else None
    segments = math.ceil(seconds * w.segments_per_s)
    need = (MIN_SAMPLES,) * 3
    setups = []
    best = None
    for i in range(w.replays):
        stream = OpStream(w, seed, graph)
        idx = None  # free the previous build before timing the next
        idx, dt = bench.build(stream)
        setups.append(dt)
        if i == 0:
            # the index and the inputs, before latency samples and checks
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        # the first replay is checked against the oracle as it runs; the
        # later ones repeat its ops and must end in its partition
        replayed = bench.replay(idx, stream, segments, need, checks=best is None)
        if best is None:
            best = replayed
            segments, need = len(replayed), (0, 0, 0)  # the later replays match it
            final = bench.partition(idx)
            continue
        if bench.partition(idx) != final:
            bench.fail(f"replay {i + 1} ends in another partition than replay 1")
        best = [(tuple(array("q", map(min, a, b)) for a, b in zip(lat, new_lat)),
                 min(wall, new_wall))
                for (lat, wall), (new_lat, new_wall) in zip(best, replayed)]
    stream_s, samples = totals(best)
    metrics = {"setup_s": statistics.median(setups),
               "ops_per_s": sum(samples.values()) / stream_s,
               "peak_rss_mb": peak_rss_mb}
    max_us = {}
    for i, name in enumerate(OP_NAMES):
        ns = sorted(x for lat, _ in best for x in lat[i])
        metrics[f"{name}_p50_us"] = quantile(ns, 0.50)
        metrics[f"{name}_p99_us"] = quantile(ns, 0.99)
        max_us[name] = ns[-1] / 1e3
    info = {
        "samples": samples,
        "segments": len(best),
        "replays": w.replays,
        "max_us": max_us,
        "best_stream_s": stream_s,
        "setup_runs_s": setups,
    }
    units = dict(END_TO_END)
    return ({k: (metrics[k], units[k]) for k, _ in END_TO_END},
            w.replays * sum(samples.values()), info)


def counters(idx):
    """The index's own counters; a counter this build lacks reads 0."""
    sets = Bench.sets(idx)
    out = {c: getattr(sets, c, 0) for c in SET_COUNTERS}
    out.update({c: getattr(idx, c, 0) for c in INDEX_COUNTERS})
    return out


def run_traced(bench, seed):
    """Replay the same `trace_segments` segments on three fresh builds:
    untraced, traced, untraced.  The overhead is the traced stream time
    minus the mean of the untraced ones, so warm-up and drift do not all
    land on one side."""
    w = bench.w
    graph = churn_graph(w) if w.stream == "churn" else None

    def fresh():
        stream = OpStream(w, seed, graph)
        idx, _ = bench.build(stream)
        return idx, stream

    def untraced():
        idx, stream = fresh()
        return totals(bench.replay(idx, stream, segments=w.trace_segments))[0]

    plain_before = untraced()
    idx, stream = fresh()
    before = counters(idx)
    tracer = Tracer(bench.dc)
    with tracer.installed():
        traced_wall, samples = totals(bench.replay(idx, stream, segments=w.trace_segments))
    delta = {c: v - before[c] for c, v in counters(idx).items()}
    depth = idx.forest.average_depth()
    idx = None  # free the traced index before the last build
    plain_wall = (plain_before + untraced()) / 2

    ms = {name: ns / 1e6 for name, ns in tracer.self_ns.items()}
    cnt = tracer.counts

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for name, _, _ in PER_LAYER:
        if name.endswith(".self_ms"):
            span = name.removesuffix(".self_ms")
            if span in LAYERS:
                m[name] = sum(v for k, v in ms.items() if k.split(".")[0] == span)
            else:
                m[name] = ms.get(span, 0.0)
    td = cnt["forest_tree_deletes"]
    m["spanning_forest.probes_per_tree_delete"] = ratio(cnt["forest_probes"], td)
    m["spanning_forest.visited_per_tree_delete"] = ratio(cnt["forest_visited"], td)
    m["spanning_forest.replaced_share"] = ratio(cnt["forest_replaced"], td)
    m["spanning_forest.rewired_share"] = ratio(cnt["nontree_rewired"], cnt["nontree_inserts"])
    m["spanning_forest.avg_depth_end"] = depth if w.mode == "conn" else 0.0
    m["two_edge.avg_depth_end"] = depth if w.mode == "2ec" else 0.0
    m["disjoint_set.find_visits_per_find"] = ratio(delta["find_visits"], delta["find_calls"])
    m["disjoint_set.find.calls"] = tracer.calls.get("disjoint_set.find", 0)
    for c in SET_COUNTERS:
        m[f"disjoint_set.{c}"] = delta[c]
    for c in INDEX_COUNTERS:
        m[f"connectivity.{c}"] = delta[c]
    m["connectivity.splits_per_tree_delete"] = ratio(delta["splits"], delta["tree_deletes"])
    m["connectivity.split_size_mean"] = ratio(delta["split_visited_total"], delta["splits"])
    m["two_edge.crossings_per_tree_delete"] = ratio(cnt["crossings"], cnt["getrep_calls"])
    m["two_edge.class_merges"] = cnt["class_merges"]
    m["two_edge.class_isolates"] = tracer.calls.get("two_edge.class_isolate", 0)
    m["trace.stream_s"] = traced_wall
    m["trace.overhead_s"] = traced_wall - plain_wall

    info = {
        "samples": samples,
        "untraced_stream_s": plain_wall,
        "self_total_s": sum(tracer.self_ns.values()) / 1e9,
        "absent_spans": tracer.absent,
        "spans": {k: {"calls": tracer.calls[k], "self_ms": ms[k]}
                  for k in sorted(tracer.calls)},
    }
    return {k: (m[k], u) for k, u, _ in PER_LAYER}, 3 * sum(samples.values()), info


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        dc = import_package()
    except ImportError as exc:
        print(f"cannot import dynconn from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2

    bench = Bench(dc, WORKLOADS[args.workload])
    if args.trace:
        metrics, attempted, info = run_traced(bench, args.seed)
        exact = [name for name, _, is_exact in PER_LAYER if is_exact]
        info["exact_counts"] = exact
        info["timings"] = [name for name, _, is_exact in PER_LAYER if not is_exact]
    else:
        metrics, attempted, info = run_end_to_end(bench, args.seed, args.seconds)
    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": info.pop("samples"),
    }
    print("env " + json.dumps(env))
    print("info " + json.dumps(info))
    for name, (value, unit) in metrics.items():
        print(f"{name:42s} {value:14.6f} {unit}")
    print(f"ops_failed {bench.failures} of ops_attempted {attempted}")
    print(json.dumps({
        "correct": bench.failures == 0,
        "attempted": attempted,
        "failed": bench.failures,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if bench.failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
