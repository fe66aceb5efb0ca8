"""Exit codes, CSV emission, flag handling."""

import importlib.util
from pathlib import Path

import pytest

from dynconn import cli
from dynconn.connectivity import ConnectivityIndex
from dynconn.spanning_forest import SpanningForest
from dynconn.two_edge import TwoEdgeForest
from dynconn.workload import FuzzOutcome, random_edge_stream


@pytest.fixture
def graph_file(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("# toy\n0 1\n1 2\n2 0\n3 4\n")
    return str(p)


@pytest.fixture
def temporal_file(tmp_path):
    p = tmp_path / "t.txt"
    p.write_text("0 1 0\n1 2 10\n2 3 20\n")
    return str(p)


def run(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_build_happy_path(capsys, graph_file):
    rc, out, _ = run(capsys, "build", "--input", graph_file)
    assert rc == 0
    assert out.startswith("metric,value\n")
    assert "vertices,5\n" in out
    assert "components,2\n" in out


def test_build_2ec_mode(capsys, graph_file):
    rc, out, _ = run(capsys, "build", "--input", graph_file, "--mode", "2ec")
    assert rc == 0
    assert "classes,3\n" in out
    assert "bridges,1\n" in out


def test_bench_writes_csv_file(capsys, graph_file, tmp_path):
    out_path = tmp_path / "r.csv"
    rc, out, _ = run(capsys, "bench", "--input", graph_file, "--k", "2",
                     "--seed", "7", "--queries", "10", "--output", str(out_path))
    assert rc == 0
    assert out == ""
    text = out_path.read_text()
    assert text.startswith("metric,value\n")
    assert "cycle_k,2\n" in text
    assert "query_mean_ns," in text


def test_bench_2ec_reports_tree_delete_statistics(capsys, tmp_path):
    p = tmp_path / "g300.txt"
    stream = random_edge_stream(300, 1200, seed=5)
    p.write_text("".join(f"{ev.u} {ev.v}\n" for ev in stream.events))
    rc, out, _ = run(capsys, "bench", "--input", str(p), "--mode", "2ec",
                     "--k", "600", "--seed", "3", "--queries", "0")
    assert rc == 0
    stats = dict(line.split(",") for line in out.splitlines()[1:])
    assert float(stats["avg_search"]) > 0
    assert float(stats["avg_S"]) > 0


def test_window_row_group_per_pct(capsys, temporal_file):
    rc, out, _ = run(capsys, "window", "--input", temporal_file,
                     "--pct", "50,100", "--queries", "0")
    assert rc == 0
    assert "window_pct,op,mean_ns,count\n" in out
    body = out.split("window_pct,op,mean_ns,count\n")[1]
    pcts = {line.split(",")[0] for line in body.strip().splitlines()}
    assert pcts == {"50", "100"}


def test_window_without_timestamps_is_usage_error(capsys, graph_file):
    rc, _, err = run(capsys, "window", "--input", graph_file)
    assert rc == 2
    assert "error:" in err


def test_window_with_decreasing_timestamps_is_data_error(capsys, tmp_path):
    p = tmp_path / "late.txt"
    p.write_text("2 3 100\n4 5 50\n0 1 0\n")
    rc, out, err = run(capsys, "window", "--input", str(p), "--pct", "10")
    assert rc == 1
    assert out == ""
    assert err == "error: line 2: timestamps decrease (4 5 50, after 100)\n"


def test_bad_pct_is_usage_error(capsys, temporal_file):
    rc, _, _ = run(capsys, "window", "--input", temporal_file, "--pct", "0,5")
    assert rc == 2
    rc, _, _ = run(capsys, "window", "--input", temporal_file, "--pct", "x")
    assert rc == 2


def test_missing_input_is_io_error(capsys, tmp_path):
    rc, _, err = run(capsys, "build", "--input", str(tmp_path / "nope.txt"))
    assert rc == 1
    assert "error:" in err


def test_malformed_file_is_io_error(capsys, tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("0 1\n0 1 2 3\n")
    rc, _, err = run(capsys, "build", "--input", str(p))
    assert rc == 1
    assert "line 2" in err


def test_k_too_large_is_usage_error(capsys, graph_file):
    rc, _, err = run(capsys, "bench", "--input", graph_file, "--k", "99")
    assert rc == 2


def test_unknown_flag_is_usage_error(capsys, graph_file):
    rc, _, _ = run(capsys, "build", "--input", graph_file, "--bogus")
    assert rc == 2
    # build draws nothing at random, so it takes no --seed
    rc, out, err = run(capsys, "build", "--input", graph_file, "--seed", "1")
    assert rc == 2
    assert out == ""
    assert "unrecognized arguments: --seed 1" in err


def test_output_to_a_directory_is_io_error(capsys, graph_file, tmp_path):
    rc, out, err = run(capsys, "build", "--input", graph_file, "--output", str(tmp_path))
    assert rc == 1
    assert out == ""
    assert err.startswith("error: ")


def test_bench_whose_cycle_does_not_restore_is_data_error(capsys, monkeypatch, tmp_path):
    # inserts after the first tree delete are lost, so the cycle's
    # re-inserts never restore the path it cut
    real = ConnectivityIndex.insert

    def insert(self, u, v):
        if not self.tree_deletes:
            return real(self, u, v)

    monkeypatch.setattr(ConnectivityIndex, "insert", insert)
    p = tmp_path / "path.txt"
    p.write_text("0 1\n1 2\n2 3\n")
    rc, out, err = run(capsys, "bench", "--input", str(p), "--k", "3")
    assert rc == 1
    assert out == ""
    assert err == "error: delete/re-insert cycle failed to restore the partition\n"


def test_fuzz_small_clean_run(capsys):
    rc, out, err = run(capsys, "fuzz", "--n", "10", "--ops", "300", "--seed", "1")
    assert rc == 0
    assert "fuzz_violations,0\n" in out
    assert err == ""


def test_fuzz_2ec_small_clean_run(capsys):
    rc, out, _ = run(capsys, "fuzz", "--n", "8", "--ops", "200", "--mode", "2ec",
                     "--check-every", "20")
    assert rc == 0
    assert "fuzz_violations,0\n" in out


def test_fuzz_violations_exit_3(capsys, monkeypatch):
    fake = FuzzOutcome(ops=5, queries=1, checks=1,
                       violations=["op 3: query(0,1) sets=True tree=False oracle=False"],
                       violation_count=1, elapsed_s=0.0)
    monkeypatch.setattr(cli, "run_fuzz", lambda *a, **k: fake)
    rc, out, err = run(capsys, "fuzz", "--n", "4", "--ops", "5")
    assert rc == 3
    assert "fuzz_violations,1\n" in out
    assert "violation: op 3" in err


def test_fuzz_op_that_raises_exits_3_with_its_op(capsys, monkeypatch):
    monkeypatch.setattr(TwoEdgeForest, "reroot", SpanningForest.reroot)
    rc, out, err = run(capsys, "fuzz", "--mode", "2ec", "--n", "10", "--ops", "400",
                       "--seed", "3")
    assert rc == 3
    assert "fuzz_violations,1\n" in out
    assert err == "violation: op 50: RepUnderflow: cover count below zero above 6\n"


@pytest.mark.parametrize("argv", [
    ("fuzz", "--n", "1"),
    ("fuzz", "--n", "0"),
    ("fuzz", "--check-every", "0"),
    ("fuzz", "--ops", "-1"),
    ("bench", "--k", "-1"),
    ("bench", "--k", "1", "--queries", "-3"),
    ("window", "--queries", "-1"),
])
def test_bad_integer_flag_is_usage_error(capsys, graph_file, argv):
    if argv[0] != "fuzz":
        argv = (argv[0], "--input", graph_file) + argv[1:]
    rc, out, err = run(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert f"argument {argv[-2]}: must be" in err


@pytest.mark.parametrize("argv", [("bench", "--k", "0"), ("window",)])
def test_query_batch_on_vertex_free_input_is_data_error(capsys, tmp_path, argv):
    p = tmp_path / "empty.txt"
    p.write_text("# nothing\n")
    rc, out, err = run(capsys, argv[0], "--input", str(p), *argv[1:])
    assert rc == 1
    assert out == ""
    assert err == "error: no vertices to query\n"


def test_stats_reports_stream_shape(capsys, tmp_path):
    p = tmp_path / "s.txt"
    p.write_text("0 1 5\n1 0 9\n2 2 4\n3 4 20\n")
    rc, out, _ = run(capsys, "stats", "--input", str(p))
    assert rc == 0
    assert "vertices,5\n" in out
    assert "unique_edges,2\n" in out
    assert "duplicate_events,1\n" in out
    assert "dropped_self_loops,1\n" in out
    assert "timestamped,1\n" in out
    assert "time_span,15\n" in out


def _gen_graph():
    path = Path(__file__).resolve().parent.parent / "scripts" / "gen_graph.py"
    spec = importlib.util.spec_from_file_location("gen_graph", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize("argv", [["--n", "3", "--m", "10"], ["--n", "-2", "--m", "1"],
                                  ["--n", "4", "--m", "-1"], ["--n", "x", "--m", "1"]])
def test_gen_graph_bad_sizes_are_usage_errors(capsys, argv):
    assert _gen_graph().main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


def test_gen_graph_unwritable_output_is_an_io_error(capsys, tmp_path):
    out = tmp_path / "missing" / "x.txt"
    assert _gen_graph().main(["--n", "3", "--m", "1", "-o", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert not out.parent.exists()


def test_gen_graph_writes_the_seeded_edges(capsys):
    assert _gen_graph().main(["--n", "3", "--m", "3", "--seed", "1"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[0] == "# random graph n=3 m=3 seed=1"
    assert sorted(rows[1:]) == ["0 1", "0 2", "1 2"]
