"""Tests for the serve-bench runner and its CLI subcommand."""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.cli import _build_parser, _serve_bench_spec, main
from repro.graph.generators import social_graph
from repro.scenarios import ScenarioSpecError
from repro.scenarios.bench import COLUMNS, caching_speedup, serve_bench

_BASELINES = Path(__file__).resolve().parents[1] / "benchmarks" / "baselines"


def _spec(*flags):
    """The spec ``repro serve-bench FLAGS`` runs."""
    return _serve_bench_spec(_build_parser().parse_args(["serve-bench", *flags]))


@pytest.fixture(scope="module")
def graph():
    return social_graph(400, seed=6)


def test_run_serve_bench_table_shape(graph):
    table, results = serve_bench(_spec("--shards", "4", "--requests", "2000"), graph)
    assert set(results) == {"cached", "uncached"}
    for row in ("cached", "uncached"):
        for column in COLUMNS:
            assert table.get(row, column) is not None
        # Every served answer went through the runner's audit.
        assert results[row].audited == results[row].report.served > 0
        assert results[row].incorrect_answers == 0
    assert results["cached"].report.cache_hits > 0
    assert results["uncached"].report.cache_hits == 0
    assert "serve-bench" in table.title


def test_run_serve_bench_is_deterministic(graph):
    spec = _spec("--shards", "4", "--requests", "1500")
    table_a, _ = serve_bench(spec, graph)
    table_b, _ = serve_bench(spec, graph)
    for row in ("cached", "uncached"):
        for column in COLUMNS:
            assert table_a.get(row, column) == table_b.get(row, column)


def test_caching_beats_uncached_under_saturation(graph):
    _, results = serve_bench(
        _spec("--shards", "4", "--requests", "4000", "--rate", "2000000",
              "--zipf", "1.4"),
        graph,
    )
    speedup = caching_speedup(results)
    assert speedup is not None and speedup > 1.0


def test_caching_speedup_requires_both_rows(graph):
    _, results = serve_bench(
        _spec("--shards", "2", "--requests", "500"), graph, ("cached",)
    )
    assert set(results) == {"cached"}
    assert caching_speedup(results) is None


def test_closed_arrival_mode(graph):
    _, results = serve_bench(
        _spec("--shards", "2", "--requests", "800", "--arrival", "closed",
              "--clients", "8"),
        graph, ("cached",),
    )
    report = results["cached"].report
    assert report.mode == "closed"
    assert report.shed == 0 and report.served == 800


def test_rows_name_the_graph_they_served(graph, monkeypatch):
    import repro.scenarios.bench as bench
    from repro.scenarios.spec import GraphSpec

    builds = []
    serving_index = bench.serving_index
    monkeypatch.setattr(
        bench, "serving_index",
        lambda spec, g: builds.append(g) or serving_index(spec, g),
    )
    spec = _spec("--kind", "social", "--vertices", "300", "--seed", "4",
                 "--shards", "2", "--requests", "300")
    table, results = serve_bench(spec)
    assert "n=300 " in table.title
    for result in results.values():
        assert result.spec.graph == GraphSpec(kind="social", vertices=300, seed=4)
        assert not result.spec.description
    # The static index is built once and served by both rows.
    assert len(builds) == 1
    _, results = serve_bench(spec, graph)
    assert all("given by the caller" in r.spec.description for r in results.values())


def test_invalid_options_rejected():
    spec = _spec()
    with pytest.raises(ScenarioSpecError, match="partitioner"):
        replace(spec.serving, partitioner="voronoi")
    with pytest.raises(ScenarioSpecError, match="arrival"):
        replace(spec.traffic, shape="bursty")


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


def test_cli_serve_bench_refuses_more_clients_than_queue_slots(capsys):
    assert main(["serve-bench", "--vertices", "100", "--arrival", "closed",
                 "--clients", "48", "--queue-depth", "16"]) == 2
    err = capsys.readouterr().err
    assert err == "error: closed-loop clients (48) exceed serving.queue_depth (16)\n"


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


# The table `serve-bench --mode mixed --writes 0` printed when serve-bench
# still built its own stack: with no writes the runner's dynamic stack
# serves the reads exactly as that one did.
_NO_WRITES_TABLE = """\
serve-bench mixed — n=150 m=675 shards=2 x2 (600 reads + 0 writes)
==================================================================
Name     | read q/s | update u/s | p50 s    | p99 s    | write p99 s | staleness s | hit rate | stale reads | served   | applied 
---------+----------+------------+----------+----------+-------------+-------------+----------+-------------+----------+---------
cached   | 1.73e+06 | 0.00e+00   | 5.41e-05 | 6.48e-05 | 0.00e+00    | 0.00e+00    | 5.62e-01 | 0.00e+00    | 6.00e+02 | 0.00e+00
uncached | 6.59e+05 | 0.00e+00   | 3.15e-04 | 6.14e-04 | 0.00e+00    | 0.00e+00    | 0.00e+00 | 0.00e+00    | 6.00e+02 | 0.00e+00
"""


def test_cli_mixed_serve_bench_without_writes(capsys):
    assert main(["serve-bench", "--vertices", "150", "--requests", "600",
                 "--mode", "mixed", "--writes", "0", "--shards", "2"]) == 0
    out = capsys.readouterr().out
    assert _NO_WRITES_TABLE in out
    assert out.count("audit: 600 answers checked against the oracle, 0 incorrect") == 2


def test_cli_serve_bench_report_carries_the_audit(tmp_path, capsys):
    report = tmp_path / "r.json"
    assert main(["serve-bench", "--vertices", "200", "--requests", "1500",
                 "--mode", "mixed", "--writes", "150", "--shards", "2",
                 "--report", str(report)]) == 0
    capsys.readouterr()
    rows = json.loads(report.read_text())["rows"]
    assert set(rows) == {"cached", "uncached"}
    for row in rows.values():
        # The ServeReport fields come first, the audit is one added key.
        assert list(row)[-1] == "audit"
        assert row["audit"]["audited"] == row["served"] > 0
        assert row["audit"]["incorrect_answers"] == 0


def test_cli_serve_bench_partitioners_are_the_registry():
    from repro.cli import _build_parser
    from repro.graph.partition import PARTITIONER_STRATEGIES

    serve_bench = _build_parser()._subparsers._group_actions[0].choices[
        "serve-bench"
    ]
    (action,) = [a for a in serve_bench._actions if a.dest == "partitioner"]
    assert action.choices == sorted(PARTITIONER_STRATEGIES)


def test_cli_mixed_serve_bench_takes_the_arrival_shape(capsys):
    args = ["serve-bench", "--vertices", "300", "--requests", "2000",
            "--mode", "mixed", "--writes", "100", "--cache-only"]
    assert main(args) == 0
    poisson = capsys.readouterr().out
    assert main(args + ["--arrival", "uniform"]) == 0
    uniform = capsys.readouterr().out
    assert uniform != poisson
    # Served writes ride an open loop only.
    assert main(args + ["--arrival", "closed"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: closed-loop traffic cannot carry served writes\n"
    assert captured.out == ""


def test_mixed_title_names_a_non_poisson_arrival_shape(graph):
    """Baseline keys are the title, so a uniform run must not read as a
    Poisson one; the Poisson title keeps the committed baseline's keys."""
    flags = ("--mode", "mixed", "--requests", "200", "--writes", "10",
             "--shards", "2")
    titles = {
        shape: serve_bench(
            _spec(*flags, "--arrival", shape), graph, rows=("cached",)
        )[0].title
        for shape in ("poisson", "uniform")
    }
    assert titles["poisson"].endswith(" shards=2 x2 (200 reads + 10 writes)")
    assert titles["uniform"].endswith(" shards=2 x2 (200 uniform reads + 10 writes)")


_MIXED_ONLY_FLAGS = (
    ("--writes", "7"), ("--write-rate", "5"), ("--insert-ratio", "0.5"),
    ("--node-ratio", "0.2"), ("--promote-ratio", "0.1"), ("--replicas", "3"),
    ("--replication-delay", "0"), ("--max-lag", "8"), ("--drift-threshold", "4"),
)


def test_cli_serve_bench_refuses_mixed_flags_in_read_mode(capsys):
    """Read mode reads none of the write, replication and drift flags, so
    naming one is refused before any work rather than ignored."""
    args = ["serve-bench", "--vertices", "200", "--requests", "500", "--cache-only"]
    assert main(args + ["--replicas", "3", "--writes", "7", "--write-rate", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: only --mode mixed takes --replicas, --writes, --write-rate\n"
    )
    for flag, value in _MIXED_ONLY_FLAGS:
        assert main(args + [flag, value]) == 2, flag
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: only --mode mixed takes {flag}\n"


@pytest.mark.parametrize("flags, baseline", [
    ([], "serve-bench.json"),
    (["--vertices", "600", "--requests", "8000", "--mode", "mixed",
      "--writes", "800", "--shards", "4", "--drift-threshold", "48",
      "--rate", "1000000", "--seed", "0"], "serve-bench-mixed.json"),
])
def test_cli_serve_bench_passes_the_committed_baseline(flags, baseline, capsys):
    assert main(["serve-bench", *flags,
                 "--check-baseline", str(_BASELINES / baseline)]) == 0
    assert "0 failure(s)" in capsys.readouterr().out
