"""Tests for the JSONL trace summarizer behind ``repro trace``."""

import pytest

from repro import telemetry
from repro.bench import EXPERIMENTS, sweep
from repro.telemetry import session, trace_span
from repro.telemetry.reader import Trace, TraceReadError, read_trace
from repro.telemetry.report import (
    bench_cell_tables,
    metrics_lines,
    summarize_trace,
    superstep_table,
    top_spans_section,
)
from repro.telemetry.sinks import JsonlSink


def _write_trace(tmp_path, body):
    path = tmp_path / "trace.jsonl"
    with session([JsonlSink(path)]):
        body()
    return path


def test_read_trace_roundtrip(tmp_path):
    def body():
        with trace_span("a", dataset="GO"):
            telemetry.trace_event("tick", n=1)

    trace = read_trace(_write_trace(tmp_path, body))
    assert [r["kind"] for r in trace.records] == ["event", "span"]
    assert [r["name"] for r in trace.spans] == ["a"]
    assert [r["attrs"] for r in trace.events("tick")] == [{"n": 1}]
    assert trace.skipped == []


def test_read_trace_skips_garbage_lines(tmp_path):
    """Malformed lines are tolerated and counted, not fatal."""
    bad = tmp_path / "bad.jsonl"
    bad.write_text(
        '{"kind":"span","name":"x","id":1,"start":0.0}\n'
        'not json\n{"no_kind": true}\n'
    )
    trace = read_trace(bad)
    assert [r["name"] for r in trace.records] == ["x"]
    assert len(trace.skipped) == 2
    assert "bad.jsonl:2" in trace.skipped[0]
    assert "bad.jsonl:3" in trace.skipped[1]


def test_read_trace_rejects_file_with_no_valid_records(tmp_path):
    """All-garbage means 'not a trace file', which is still an error."""
    bad = tmp_path / "bad.jsonl"
    bad.write_text('not json\n{"no_kind": true}\n')
    with pytest.raises(TraceReadError):
        read_trace(bad)


def test_read_trace_truncated_export_still_summarizes(tmp_path):
    """A trace cut off mid-line (killed run) loses only the tail."""
    def body():
        with trace_span("a") as span:
            span.add_simulated(1.0)
        with trace_span("b") as span:
            span.add_simulated(2.0)

    path = _write_trace(tmp_path, body)
    full = path.read_bytes()
    truncated = tmp_path / "truncated.jsonl"
    truncated.write_bytes(full[: len(full) - 25])
    trace = read_trace(truncated)
    assert len(trace.skipped) == 1
    assert len(trace.records) >= 1
    assert "Top spans by simulated time" in summarize_trace(trace)


def test_top_spans_ranked_by_simulated_time(tmp_path):
    def body():
        with trace_span("slow") as span:
            span.add_simulated(2.0)
        with trace_span("fast") as span:
            span.add_simulated(0.5)

    section = top_spans_section(read_trace(_write_trace(tmp_path, body)))
    lines = section.splitlines()
    assert lines[0] == "Top spans by simulated time"
    slow_line = next(i for i, l in enumerate(lines) if l.startswith("slow"))
    fast_line = next(i for i, l in enumerate(lines) if l.startswith("fast"))
    assert slow_line < fast_line


def test_superstep_table_absent_without_events():
    assert superstep_table(Trace()) is None


def test_metrics_lines_render_histograms(tmp_path):
    def body():
        registry = telemetry.current_metrics()
        registry.counter("queries").inc(3)
        hist = registry.histogram("lat")
        hist.observe(2e-7)
        hist.observe(3e-6)

    lines = metrics_lines(read_trace(_write_trace(tmp_path, body)))
    assert any(l.startswith("queries: 3") for l in lines)
    latency = next(l for l in lines if l.startswith("lat:"))
    assert "count=2" in latency and "p95=" in latency


def test_fig5_table_reproducible_from_trace_alone(tmp_path):
    """The acceptance check: the exported spans carry enough to rebuild
    the experiment's comp/comm table, cell for cell."""
    path = tmp_path / "fig5.jsonl"
    with session([JsonlSink(path)]):
        (rendered,) = sweep(EXPERIMENTS["fig5"], ["GO"])
    tables = bench_cell_tables(read_trace(path))
    fig5 = next(t for t in tables if "fig5" in t.title)
    assert fig5.rows == rendered.rows
    for column in rendered.columns:
        assert column in fig5.columns
        for row in rendered.rows:
            expected = rendered.get(row, column)
            actual = fig5.get(row, column)
            if expected.ok:
                assert actual.value == pytest.approx(expected.value)
            else:
                assert actual.marker == expected.marker


def test_summarize_trace_has_all_sections(tmp_path):
    path = tmp_path / "full.jsonl"
    with session([JsonlSink(path)]):
        sweep(EXPERIMENTS["fig5"], ["GO"])
    text = summarize_trace(read_trace(path))
    assert "Top spans by simulated time" in text
    assert "Experiment fig5" in text
    assert "Super-steps of the longest run" in text
    assert "Metrics" in text
    assert "pregel.supersteps" in text
