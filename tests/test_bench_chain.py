"""scripts/bench_chain.py over the committed BENCH_pr*.json files."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _bench_chain():
    path = ROOT / "scripts" / "bench_chain.py"
    spec = importlib.util.spec_from_file_location("bench_chain", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_chain_of_the_committed_files(capsys):
    mod = _bench_chain()
    files = mod.load(ROOT)
    prs = [pr for pr, _ in files]
    assert prs == sorted(prs)
    assert {5, 7, 15, 17, 18, 19, 20} <= set(prs)
    chains = mod.chain(files)
    for rows in chains.values():
        product = 1.0
        for _, ratio, chained in rows:
            product *= ratio
            assert chained == product
    assert mod.main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "workload,metric,pr,ratio,chained"
    # BENCH_pr19.json: conn-window peak RSS 69.19 -> 58.22 MB
    assert any(line.startswith("conn-window,peak_rss_mb,19,0.8414,") for line in lines)


def test_every_committed_file_is_complete():
    # chain() passes over a metric a file lacks, so a gap would never show
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in spec["workloads"]}
    metrics = {m["name"] for m in spec["end_to_end"]}
    files = _bench_chain().load(ROOT)
    assert len(files) >= 8
    for pr, data in files:
        got = data["end_to_end"]["workloads"]
        assert workloads <= got.keys(), pr
        for workload in workloads:
            have = got[workload]["metrics"]
            assert metrics <= have.keys(), (pr, workload, metrics - have.keys())
            for metric in metrics:
                for side in ("parent", "change"):
                    median = have[metric][side]["median"]
                    assert isinstance(median, (int, float)) and median > 0, \
                        (pr, workload, metric, side)
