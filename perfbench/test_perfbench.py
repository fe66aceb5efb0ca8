"""Smoke test of the benchmark: every workload at a tiny size, checks on.

    python -m pytest perfbench

It fails when a metric named in BENCHMARK.json stops being printed, when
exact counts stop repeating for a seed, or when a deliberately broken
index no longer makes the benchmark exit nonzero.
"""

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import layertrace
import run
from opstream import WORKLOADS

dc = run.import_package()
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def tiny(monkeypatch):
    for name, w in WORKLOADS.items():
        monkeypatch.setitem(WORKLOADS, name, dataclasses.replace(
            w, n=300, m=200 if w.stream == "window" else 900, lag=50,
            segment_ops=500, probe_every=1, checkpoint_every=2, replays=2,
            segments_per_s=0,
            trace_segments=3))


def bench(capsys, workload, trace, seed=7):
    code = run.main(["--workload", workload, "--seed", str(seed),
                     "--seconds", "0", "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1]), lines


def test_spec_matches_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in SPEC["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == [
        (name, unit) for name, unit, _ in run.PER_LAYER]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_end_to_end_prints_every_metric(capsys, workload):
    code, res, lines = bench(capsys, workload, trace=0)
    assert code == 0 and res["correct"] and res["failed"] == 0
    assert res["attempted"] >= 2 * 3 * run.MIN_SAMPLES
    for m in SPEC["end_to_end"]:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0
        assert any(line.startswith(m["name"] + " ") for line in lines)
    assert set(res["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    env = json.loads(lines[0].split(" ", 1)[1])
    info = json.loads(lines[1].split(" ", 1)[1])
    assert env["seed"] == 7 and env["nproc"] >= 1 and env["python"]
    assert min(env["samples"].values()) >= run.MIN_SAMPLES
    assert 2 * sum(env["samples"].values()) == res["attempted"]
    assert info["replays"] == 2


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_counts_repeat_and_self_time_fits(capsys, workload):
    code, first, lines = bench(capsys, workload, trace=1)
    code2, second, _ = bench(capsys, workload, trace=1)
    assert code == code2 == 0 and first["correct"] and second["correct"]
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    a, b = first["metrics"], second["metrics"]
    for name, _, exact in run.PER_LAYER:
        if exact:
            assert a[name] == b[name], name
    layers = {layer: a[f"{layer}.self_ms"]["value"] for layer in layertrace.LAYERS}
    assert sum(layers.values()) <= a["trace.stream_s"]["value"] * 1e3
    if WORKLOADS[workload].mode == "2ec":
        assert layers["two_edge"] > sum(layers.values()) / 2
    else:
        assert layers["two_edge"] == 0 and a["two_edge.class_merges"]["value"] == 0
    info = json.loads(lines[1].split(" ", 1)[1])
    assert info["absent_spans"] == []
    assert set(info["exact_counts"]) | set(info["timings"]) == set(a)


def test_wrong_query_answer_fails_the_run(capsys, monkeypatch):
    real = dc.ConnectivityIndex.connected
    monkeypatch.setattr(dc.ConnectivityIndex, "connected",
                        lambda self, u, v: not real(self, u, v))
    code, res, _ = bench(capsys, "conn-window", trace=0)
    assert code == 1 and not res["correct"] and res["failed"] > 0


def test_lost_split_fails_the_run(capsys, monkeypatch):
    # deleting from the graph and forest but never splitting the set
    # forest leaves stale components behind
    def delete(self, u, v):
        self.graph.remove_edge(u, v)
        return self.forest.delete_edge(u, v).kind
    monkeypatch.setattr(dc.ConnectivityIndex, "delete", delete)
    code, res, _ = bench(capsys, "conn-window", trace=0)
    assert code == 1 and res["failed"] > 0


def test_later_replay_that_diverges_fails_the_run(capsys, monkeypatch):
    # the second build holds one edge too many, which only the comparison
    # of each later replay with the first one can catch
    builds = []
    real_init = dc.ConnectivityIndex.__init__

    def init(self, n):
        real_init(self, n)
        builds.append(self)
        if len(builds) == 2:
            self.insert(0, 1)
    monkeypatch.setattr(dc.ConnectivityIndex, "__init__", init)
    code = run.main(["--workload", "conn-window", "--seed", "7",
                     "--seconds", "0", "--trace", "0"])
    out, err = capsys.readouterr()
    assert len(builds) == 2
    assert code == 1 and json.loads(out.splitlines()[-1])["failed"] == 1
    assert "replay 2 ends in another partition than replay 1" in err


def test_raising_op_fails_the_run(capsys, monkeypatch):
    def boom(self, u, v):
        raise dc.RepUnderflow("injected")
    monkeypatch.setattr(dc.TwoEdgeIndex, "delete2", boom)
    code, res, _ = bench(capsys, "2ec-churn", trace=1)
    assert code == 1 and res["failed"] > 0


def test_missing_method_is_reported_absent(capsys, monkeypatch):
    spans = layertrace.SPANS + (("two_edge.gone", "two_edge", "TwoEdgeForest", "gone"),)
    monkeypatch.setattr(layertrace, "SPANS", spans)
    code, res, lines = bench(capsys, "2ec-churn", trace=1)
    assert code == 0
    assert json.loads(lines[1].split(" ", 1)[1])["absent_spans"] == ["two_edge.gone"]


def test_binds_two_edge_names_first():
    two, conn = dc.TwoEdgeIndex(4), dc.ConnectivityIndex(4)
    assert [f.__name__ for f in run.Bench.ops(two)] == [
        "insert2", "delete2", "two_edge_connected"]
    assert [f.__name__ for f in run.Bench.ops(conn)] == ["insert", "delete", "connected"]


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "conn-window",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"})
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
