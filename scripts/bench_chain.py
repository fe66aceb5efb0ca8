#!/usr/bin/env python3
"""Chain the committed BENCH_pr*.json files into one trajectory per metric.

Raw medians cannot be compared across files, because the host's speed
drifts between sessions: the same commit read 2ec-churn ops_per_s 159.6k
in one file and 144.6k in the next.  Each file's own parent and change
ran in alternating pairs, so their ratio holds.  For every workload and
end-to-end metric, this prints each file's change.median / parent.median
in the order of the files' numbers, with the running product of those
ratios, as CSV.

Example:
    python scripts/bench_chain.py               # files at the repo root
    python scripts/bench_chain.py --dir DIR
"""

import argparse
import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory):
    """(N, parsed file) for every BENCH_pr<N>.json, in order of N."""
    found = []
    for path in Path(directory).glob("BENCH_pr*.json"):
        m = re.fullmatch(r"BENCH_pr(\d+)\.json", path.name)
        if m:
            found.append((int(m.group(1)), json.loads(path.read_text())))
    return sorted(found, key=lambda x: x[0])


def chain(files):
    """{(workload, metric): [(pr, ratio, chained ratio), ...]}, keyed in
    order of first appearance.  A file that lacks a metric leaves its
    chain as it was."""
    out = {}
    for pr, data in files:
        for workload, w in data["end_to_end"]["workloads"].items():
            for metric, m in w["metrics"].items():
                ratio = m["change"]["median"] / m["parent"]["median"]
                rows = out.setdefault((workload, metric), [])
                rows.append((pr, ratio, (rows[-1][2] if rows else 1.0) * ratio))
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--dir", default=str(ROOT),
                   help="directory holding the BENCH_pr*.json files")
    args = p.parse_args(argv)
    print("workload,metric,pr,ratio,chained")
    for (workload, metric), rows in chain(load(args.dir)).items():
        for pr, ratio, chained in rows:
            print(f"{workload},{metric},{pr},{ratio:.4f},{chained:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
