#!/usr/bin/env python3
"""Write a seeded random edge list, optionally timestamped.

Example:
    python scripts/gen_graph.py --n 900 --m 33720 --seed 900 --timestamps -o fo_like.txt
"""

import argparse
import sys
from contextlib import nullcontext

from dynconn.cli import _int_from
from dynconn.workload import random_edge_stream


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--n", type=_int_from(0), required=True, help="vertex count")
    p.add_argument("--m", type=_int_from(0), required=True, help="edge count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--timestamps", action="store_true",
                   help="emit increasing integer arrival times")
    p.add_argument("-o", "--output", default=None, help="default stdout")
    try:
        args = p.parse_args(argv)
        if args.m > args.n * (args.n - 1) // 2:
            p.error(f"--m {args.m} exceeds the simple-graph maximum for --n {args.n}")
    except SystemExit as exc:  # argparse signals usage errors via exit(2)
        return int(exc.code or 0)

    stream = random_edge_stream(args.n, args.m, args.seed, args.timestamps)
    try:
        with open(args.output, "w") if args.output else nullcontext(sys.stdout) as out:
            out.write(f"# random graph n={args.n} m={args.m} seed={args.seed}\n")
            for ev in stream.events:
                if ev.t is None:
                    out.write(f"{ev.u} {ev.v}\n")
                else:
                    out.write(f"{ev.u} {ev.v} {ev.t}\n")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
