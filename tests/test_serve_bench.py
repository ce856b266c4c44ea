"""Tests for the serve-bench runner and its CLI subcommand."""

import json

import pytest

from repro.cli import main
from repro.graph.generators import social_graph
from repro.pregel.cost_model import CostModel
from repro.serve import COLUMNS, caching_speedup, run_serve_bench

_NO_LIMIT = CostModel(time_limit_seconds=None)


@pytest.fixture(scope="module")
def graph():
    return social_graph(400, seed=6)


def test_run_serve_bench_table_shape(graph):
    table, reports = run_serve_bench(
        graph, shards=4, requests=2000, cost_model=_NO_LIMIT
    )
    assert set(reports) == {"cached", "uncached"}
    for row in ("cached", "uncached"):
        for column in COLUMNS:
            assert table.get(row, column) is not None
    assert reports["cached"].cache_hits > 0
    assert reports["uncached"].cache_hits == 0
    assert "serve-bench" in table.title


def test_run_serve_bench_is_deterministic(graph):
    kwargs = dict(shards=4, requests=1500, cost_model=_NO_LIMIT)
    table_a, _ = run_serve_bench(graph, **kwargs)
    table_b, _ = run_serve_bench(graph, **kwargs)
    for row in ("cached", "uncached"):
        for column in COLUMNS:
            assert table_a.get(row, column) == table_b.get(row, column)


def test_caching_beats_uncached_under_saturation(graph):
    _, reports = run_serve_bench(
        graph, shards=4, requests=4000, rate=2_000_000.0, zipf=1.4,
        cost_model=_NO_LIMIT,
    )
    speedup = caching_speedup(reports)
    assert speedup is not None and speedup > 1.0


def test_caching_speedup_requires_both_rows(graph):
    _, reports = run_serve_bench(
        graph, shards=2, requests=500, without_cache=False,
        cost_model=_NO_LIMIT,
    )
    assert set(reports) == {"cached"}
    assert caching_speedup(reports) is None


def test_closed_arrival_mode(graph):
    _, reports = run_serve_bench(
        graph, shards=2, requests=800, arrival="closed", clients=8,
        without_cache=False, cost_model=_NO_LIMIT,
    )
    report = reports["cached"]
    assert report.mode == "closed"
    assert report.shed == 0 and report.served == 800


def test_invalid_options_rejected(graph):
    with pytest.raises(ValueError, match="partitioner"):
        run_serve_bench(graph, partitioner="voronoi", cost_model=_NO_LIMIT)
    with pytest.raises(ValueError, match="arrival"):
        run_serve_bench(graph, arrival="bursty", cost_model=_NO_LIMIT)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_serve_bench_generated_graph(capsys):
    assert main(["serve-bench", "--vertices", "300", "--requests", "2000",
                 "--shards", "4"]) == 0
    out = capsys.readouterr().out
    assert "[cached]" in out and "[uncached]" in out
    assert "throughput" in out and "p99" in out
    assert "hit rate" in out and "load skew" in out
    assert "caching speedup" in out


def test_cli_serve_bench_on_edge_list_file(tmp_path, capsys):
    path = tmp_path / "g.txt"
    assert main(["generate", str(path), "--kind", "social",
                 "--vertices", "200", "--seed", "3"]) == 0
    assert main(["serve-bench", str(path), "--requests", "1000",
                 "--shards", "2", "--arrival", "uniform"]) == 0
    assert "uniform workload" in capsys.readouterr().out


def test_cli_serve_bench_cache_only_and_no_cache(capsys):
    assert main(["serve-bench", "--vertices", "150", "--requests", "500",
                 "--cache-only"]) == 0
    out = capsys.readouterr().out
    assert "[cached]" in out and "[uncached]" not in out
    assert "caching speedup" not in out  # needs both rows
    assert main(["serve-bench", "--vertices", "150", "--requests", "500",
                 "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert "[uncached]" in out and "[cached]" not in out


def test_cli_serve_bench_conflicting_flags(capsys):
    assert main(["serve-bench", "--vertices", "100",
                 "--cache-only", "--no-cache"]) == 2
    assert "exclude each other" in capsys.readouterr().err


def test_cli_serve_bench_missing_graph_file(tmp_path, capsys):
    assert main(["serve-bench", str(tmp_path / "none.txt")]) == 2
    assert "no such file" in capsys.readouterr().err


def test_cli_serve_bench_baseline_roundtrip(tmp_path, capsys):
    baseline = tmp_path / "serve.json"
    args = ["serve-bench", "--vertices", "300", "--requests", "1500",
            "--shards", "4", "--seed", "5"]
    assert main(args + ["--save-baseline", str(baseline)]) == 0
    assert "baseline saved" in capsys.readouterr().err
    doc = json.loads(baseline.read_text())
    assert doc["experiment"] == "serve-bench" and doc["metrics"]
    # Deterministic simulator: an unchanged tree reproduces exactly.
    assert main(args + ["--check-baseline", str(baseline)]) == 0
    assert "0 failure(s)" in capsys.readouterr().out


def test_cli_serve_bench_baseline_detects_drift(tmp_path, capsys):
    baseline = tmp_path / "serve.json"
    args = ["serve-bench", "--vertices", "300", "--requests", "1500",
            "--shards", "4", "--seed", "5"]
    assert main(args + ["--save-baseline", str(baseline)]) == 0
    capsys.readouterr()
    doc = json.loads(baseline.read_text())
    key = next(k for k in sorted(doc["metrics"]) if "throughput" in k)
    doc["metrics"][key] *= 2.0
    baseline.write_text(json.dumps(doc))
    assert main(args + ["--check-baseline", str(baseline)]) == 1
    assert f"FAIL {key}" in capsys.readouterr().out


def test_cli_serve_bench_deadline_and_telemetry(tmp_path, capsys):
    trace_file = tmp_path / "serve.jsonl"
    assert main(["serve-bench", "--vertices", "200", "--requests", "1000",
                 "--deadline", "1e-4", "--trace-out", str(trace_file)]) == 0
    capsys.readouterr()
    records = [json.loads(line) for line in trace_file.read_text().splitlines()]
    span_names = {r["name"] for r in records if r["kind"] == "span"}
    assert "serve.run" in span_names and "serve.build" in span_names
    assert {r["kind"] for r in records} == {"span", "event"}
    runs = [r["attrs"] for r in records if r["name"] == "serve.run"]
    assert runs and all(run["deadline_dropped"] > 0 for run in runs)
