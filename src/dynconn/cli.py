"""Command line front end.

Subcommands: build, bench, window, fuzz, stats.  All flags are
long-form.  Reports are CSV (see workload module docstring for the
column order), written to --output or stdout.

Exit codes: 0 success, 1 I/O or data error, 2 usage error (bad flag
values included), 3 fuzz found at least one invariant violation or
oracle disagreement.
"""

from __future__ import annotations

import argparse
import sys
import time

from .errors import DynConnError, KTooLarge, MissingTimestamps, ParseError
from .workload import (
    MODES,
    MetricsReport,
    build_index,
    load_edge_file,
    run_fuzz,
    run_random_cycle,
    run_sliding_window,
    time_queries,
)


def _pcts(text):
    """--pct: comma-separated window sizes, each in (0, 100]."""
    try:
        pcts = tuple(int(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be comma-separated integers, got {text!r}") from None
    if not pcts or any(not 0 < x <= 100 for x in pcts):
        raise argparse.ArgumentTypeError("values must lie in (0, 100]")
    return pcts


def _int_from(lo):
    """Type for an integer flag whose values start at `lo`."""

    def parse(text):
        try:
            x = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
        if x < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}, got {x}")
        return x

    return parse


def _build_parser():
    p = argparse.ArgumentParser(
        prog="dynconn",
        description="dynamic connectivity / 2-edge connectivity benchmarks",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, needs_input=True):
        if needs_input:
            sp.add_argument("--input", required=True, help="edge list file")
        sp.add_argument("--mode", choices=tuple(MODES), default="conn")
        sp.add_argument("--output", default=None, help="CSV path (default stdout)")

    b = sub.add_parser("build", help="ingest an edge list, report index statistics")
    common(b)

    bench = sub.add_parser("bench", help="random delete/re-insert cycle benchmark")
    common(bench)
    bench.add_argument("--k", type=_int_from(0), required=True, help="edges to cycle")
    bench.add_argument("--queries", type=_int_from(0), default=100_000,
                       help="query batch after the cycle (0 to skip)")

    w = sub.add_parser("window", help="temporal sliding-window replay")
    common(w)
    w.add_argument("--pct", type=_pcts, default="5,10,20,40,80",
                   help="comma-separated window sizes as %% of the time span")
    w.add_argument("--queries", type=_int_from(0), default=100_000,
                   help="query batch on each final window (0 to skip)")

    f = sub.add_parser("fuzz", help="differential fuzz against BFS oracles")
    common(f, needs_input=False)
    f.add_argument("--n", type=_int_from(2), default=64)
    f.add_argument("--ops", type=_int_from(0), default=50_000)
    f.add_argument("--check-every", type=_int_from(1), default=100)

    for sp in (bench, w, f):  # build draws nothing at random
        sp.add_argument("--seed", type=int, default=0)

    s = sub.add_parser("stats", help="stream statistics without building an index")
    s.add_argument("--input", required=True)
    s.add_argument("--output", default=None)
    return p


# -- subcommands -------------------------------------------------------------


def _cmd_build(ns):
    stream = load_edge_file(ns.input)
    t0 = time.perf_counter()
    idx, dup = build_index(stream, ns.mode)
    wall = time.perf_counter() - t0
    stats = idx.stats()
    depth = stats.pop("avg_depth")
    rep = MetricsReport()
    rep.extras["vertices"] = stream.n
    rep.extras["edges"] = idx.graph.m
    rep.extras["events"] = len(stream.events)
    rep.extras["duplicate_events"] = dup
    rep.extras["dropped_self_loops"] = stream.dropped_self_loops
    # vertices and edges keep their slots; the relation's counts follow
    rep.extras.update(stats)
    rep.extras["build_seconds"] = wall
    rep.extras["avg_depth_id"] = depth
    return rep, 0


def _cmd_bench(ns):
    stream = load_edge_file(ns.input)
    idx, _ = build_index(stream, ns.mode)
    rep = run_random_cycle(idx, ns.k, ns.seed)
    if ns.queries:
        rep.timings_ns["query"] = (time_queries(idx, ns.queries, ns.seed), ns.queries)
        rep.counts["query"] = ns.queries
    return rep, 0


def _cmd_window(ns):
    stream = load_edge_file(ns.input)
    rep = MetricsReport()
    for pct in ns.pct:
        rep.merge(run_sliding_window(stream, pct, ns.mode, ns.queries, ns.seed))
    return rep, 0


def _cmd_fuzz(ns):
    out = run_fuzz(ns.mode, ns.n, ns.ops, ns.seed, ns.check_every)
    rep = MetricsReport()
    rep.extras["fuzz_n"] = ns.n
    rep.extras["fuzz_ops"] = out.ops
    rep.extras["fuzz_queries"] = out.queries
    rep.extras["fuzz_checks"] = out.checks
    rep.extras["fuzz_violations"] = out.violation_count
    rep.extras["fuzz_seconds"] = out.elapsed_s
    if out.find_calls:
        rep.extras["avg_finds_len"] = out.find_visits / out.find_calls
    for msg in out.violations:
        print(f"violation: {msg}", file=sys.stderr)
    return rep, (0 if out.ok else 3)


def _cmd_stats(ns):
    stream = load_edge_file(ns.input)
    rep = MetricsReport()
    edges = set()
    dup = 0
    for ev in stream.events:
        e = (ev.u, ev.v) if ev.u < ev.v else (ev.v, ev.u)
        if e in edges:
            dup += 1
        edges.add(e)
    rep.extras["vertices"] = stream.n
    rep.extras["events"] = len(stream.events)
    rep.extras["unique_edges"] = len(edges)
    rep.extras["duplicate_events"] = dup
    rep.extras["dropped_self_loops"] = stream.dropped_self_loops
    rep.extras["timestamped"] = int(stream.timestamped)
    if stream.timestamped and stream.events:
        ts = [e.t for e in stream.events]
        rep.extras["time_span"] = max(ts) - min(ts)
    return rep, 0


_COMMANDS = {
    "build": _cmd_build,
    "bench": _cmd_bench,
    "window": _cmd_window,
    "fuzz": _cmd_fuzz,
    "stats": _cmd_stats,
}


def main(argv=None):
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:  # argparse signals usage errors via exit(2)
        return int(exc.code or 0)

    try:
        report, rc = _COMMANDS[ns.command](ns)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (MissingTimestamps, KTooLarge) as exc:
        # inconsistent flags for the given input (window without
        # timestamps, k beyond the edge count): usage, not I/O
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DynConnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        if ns.output:
            with open(ns.output, "w") as fh:
                report.write_csv(fh)
        else:
            report.write_csv(sys.stdout)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return rc


if __name__ == "__main__":
    sys.exit(main())
