"""Tests for the telemetry subsystem: spans, events, sinks, sessions."""

import json
import logging

import pytest

from repro import telemetry
from repro.core.drl import drl_index
from repro.core.drl_basic import drl_basic_index
from repro.core.drl_batch import drl_batch_index
from repro.errors import TimeLimitExceeded
from repro.graph.generators import random_digraph
from repro.graph.order import degree_order
from repro.observe.openmetrics import exponential_buckets
from repro.pregel.cost_model import CostModel
from repro.pregel.engine import Cluster
from repro.pregel.vertex_program import VertexProgram
from repro.query.service import IndexBackend
from repro.telemetry import Tracer, current_tracer, session, trace_span
from repro.telemetry.sinks import InMemorySink, JsonlSink, LoggingSink
from repro.telemetry.spans import NULL_TRACER

_NO_LIMIT = CostModel(time_limit_seconds=None)


class _Flood(VertexProgram):
    """Flood from vertex 0; no finalize work."""

    def __init__(self):
        self.visited: set[int] = set()

    def compute(self, ctx, v, messages):
        if ctx.superstep == 1 and v != 0:
            return
        if v in self.visited:
            return
        self.visited.add(v)
        for w in ctx.graph.out_neighbors(v):
            ctx.charge()
            ctx.send(w, None)


# ----------------------------------------------------------------------
# Spans and tracer
# ----------------------------------------------------------------------
def test_spans_nest_and_record_parents():
    sink = InMemorySink()
    tracer = Tracer([sink])
    with tracer.span("outer", dataset="X") as outer:
        with tracer.span("inner") as inner:
            inner.add_simulated(1.5)
        outer.set(entries=7)
    assert [s.name for s in sink.spans] == ["inner", "outer"]  # finish order
    inner, outer = sink.spans
    assert inner.parent_id == outer.span_id
    assert outer.parent_id is None
    assert inner.simulated_seconds == 1.5
    assert outer.attrs == {"dataset": "X", "entries": 7}
    assert outer.wall_seconds >= inner.wall_seconds >= 0


def test_span_records_exception_status():
    sink = InMemorySink()
    tracer = Tracer([sink])
    with pytest.raises(ValueError):
        with tracer.span("doomed"):
            raise ValueError("boom")
    assert sink.spans[0].status == "ValueError"
    assert sink.spans[0].end_wall is not None


def test_events_attach_to_current_span():
    sink = InMemorySink()
    tracer = Tracer([sink])
    with tracer.span("run") as span:
        tracer.event("tick", superstep=1)
    assert sink.events[0].span_id == span.span_id
    assert sink.events[0].attrs == {"superstep": 1}
    tracer.event("orphan")
    assert sink.events[1].span_id is None


def test_null_tracer_is_default_and_noop():
    assert current_tracer() is NULL_TRACER
    assert not telemetry.enabled()
    with trace_span("nothing", x=1) as span:
        span.set(y=2)
        span.add_simulated(3.0)
    assert current_tracer() is NULL_TRACER


def test_session_installs_and_restores():
    sink = InMemorySink()
    with session([sink]) as tracer:
        assert telemetry.enabled()
        assert current_tracer() is tracer
        with trace_span("work"):
            pass
    assert not telemetry.enabled()
    assert current_tracer() is NULL_TRACER
    # The session's record is its spans and events, nothing else.
    assert [s.name for s in sink.spans] == ["work"]
    assert [r["kind"] for r in sink.records] == ["span"]


def test_sessions_nest():
    outer_sink, inner_sink = InMemorySink(), InMemorySink()
    with session([outer_sink]):
        with trace_span("outer-span"):
            pass
        with session([inner_sink]):
            with trace_span("inner-span"):
                pass
        with trace_span("outer-span-2"):
            pass
    assert [s.name for s in inner_sink.spans] == ["inner-span"]
    assert [s.name for s in outer_sink.spans] == ["outer-span", "outer-span-2"]


# ----------------------------------------------------------------------
# Sinks
# ----------------------------------------------------------------------
def test_jsonl_sink_writes_schema(tmp_path):
    path = tmp_path / "trace.jsonl"
    with session([JsonlSink(path)]):
        with trace_span("outer", dataset="GO"):
            telemetry.trace_event("tick", n=1)
    records = [json.loads(line) for line in path.read_text().splitlines()]
    kinds = [r["kind"] for r in records]
    assert kinds == ["event", "span"]
    event, span = records
    assert event["name"] == "tick" and event["attrs"] == {"n": 1}
    assert event["span"] == span["id"]
    assert span["name"] == "outer"
    assert span["attrs"] == {"dataset": "GO"}
    assert span["wall_seconds"] >= 0
    assert "simulated_seconds" in span and "status" in span


def test_logging_sink_bridges_to_stdlib(caplog):
    logger = logging.getLogger("repro.telemetry.test")
    with caplog.at_level(logging.INFO, logger=logger.name):
        with session([LoggingSink(logger)]):
            with trace_span("logged.span", dataset="GO"):
                telemetry.trace_event("tick", n=2)
    messages = [r.getMessage() for r in caplog.records]
    assert any("span logged.span" in m and "dataset=GO" in m for m in messages)
    assert any("event tick n=2" in m for m in messages)


# ----------------------------------------------------------------------
# Latency buckets
# ----------------------------------------------------------------------
def test_exponential_buckets_validation():
    assert exponential_buckets(1, 2, 3) == (1, 2, 4)
    with pytest.raises(ValueError):
        exponential_buckets(0, 2, 3)
    with pytest.raises(ValueError):
        exponential_buckets(1, 1, 3)
    with pytest.raises(ValueError):
        exponential_buckets(1, 2, 0)
    with pytest.raises(ValueError):
        exponential_buckets(-1, 2, 3)


# ----------------------------------------------------------------------
# Engine instrumentation
# ----------------------------------------------------------------------
def test_cluster_run_emits_span_and_superstep_events():
    g = random_digraph(40, 120, seed=3)
    sink = InMemorySink()
    with session([sink]):
        stats = Cluster(num_nodes=4, cost_model=_NO_LIMIT).run(g, _Flood())
    runs = sink.spans_named("pregel.run")
    assert len(runs) == 1
    span = runs[0]
    assert span.attrs["program"] == "_Flood"
    assert span.attrs["num_nodes"] == 4
    assert span.attrs["vertices"] == g.num_vertices
    assert span.simulated_seconds == pytest.approx(stats.simulated_seconds)
    events = [e for e in sink.events if e.name == "pregel.superstep"]
    assert len(events) == stats.supersteps  # no finalize charges
    assert [e.attrs["superstep"] for e in events] == list(
        range(1, stats.supersteps + 1)
    )
    assert sum(e.attrs["compute_units"] for e in events) == stats.compute_units
    assert (
        sum(e.attrs["remote_messages"] for e in events) == stats.remote_messages
    )
    assert all(e.attrs["active_vertices"] > 0 for e in events)


def test_cluster_run_span_marks_time_limit():
    g = random_digraph(60, 240, seed=5)
    tight = CostModel(time_limit_seconds=1e-9)
    sink = InMemorySink()
    with session([sink]):
        with pytest.raises(TimeLimitExceeded):
            Cluster(num_nodes=2, cost_model=tight).run(g, _Flood())
    assert sink.spans_named("pregel.run")[0].status == "TimeLimitExceeded"


def test_no_telemetry_no_records():
    g = random_digraph(40, 120, seed=3)
    sink = InMemorySink()
    with session([sink]):
        pass
    records = len(sink.records)
    stats = Cluster(num_nodes=4, cost_model=_NO_LIMIT).run(g, _Flood())
    assert stats.supersteps > 0
    assert len(sink.records) == records  # outside a session: no events


# ----------------------------------------------------------------------
# Builder instrumentation
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def small_graph():
    return random_digraph(60, 180, seed=7)


def test_drl_basic_emits_phase_spans(small_graph):
    sink = InMemorySink()
    with session([sink]):
        result = drl_basic_index(
            small_graph, num_nodes=4, cost_model=_NO_LIMIT
        )
    names = [s.name for s in sink.spans]
    assert "drl-.filtering" in names
    assert "drl-.refinement" in names
    assert "drl-.collection" in names
    build = sink.spans_named("drl-.build")[0]
    assert build.simulated_seconds == pytest.approx(
        result.stats.simulated_seconds
    )
    filtering = sink.spans_named("drl-.filtering")[0]
    refinement = sink.spans_named("drl-.refinement")[0]
    assert filtering.simulated_seconds + refinement.simulated_seconds == (
        pytest.approx(result.stats.simulated_seconds)
    )
    assert build.attrs["entries"] == result.index.num_entries


def test_drl_emits_flood_span(small_graph):
    sink = InMemorySink()
    with session([sink]):
        result = drl_index(small_graph, num_nodes=4, cost_model=_NO_LIMIT)
    flood = sink.spans_named("drl.flood")[0]
    assert flood.simulated_seconds == pytest.approx(
        result.stats.simulated_seconds
    )
    assert sink.spans_named("drl.build")[0].attrs["entries"] == (
        result.index.num_entries
    )


def test_drl_batch_emits_one_span_per_batch(small_graph):
    order = degree_order(small_graph)
    from repro.core.batching import batch_sequence

    batches = batch_sequence(order, 2, 2.0)
    sink = InMemorySink()
    with session([sink]):
        result = drl_batch_index(
            small_graph, order, num_nodes=4, cost_model=_NO_LIMIT
        )
    batch_spans = sink.spans_named("drl_b.batch")
    assert len(batch_spans) == len(batches)
    assert [s.attrs["batch"] for s in batch_spans] == list(
        range(1, len(batches) + 1)
    )
    assert [s.attrs["sources"] for s in batch_spans] == [
        len(b) for b in batches
    ]
    total = sum(s.simulated_seconds for s in batch_spans)
    assert total == pytest.approx(result.stats.simulated_seconds)
    # The build span carries the final index size.
    build = sink.spans_named("drl_b.build")[0]
    assert build.attrs["entries"] == result.index.num_entries


# ----------------------------------------------------------------------
# Overhead guard: telemetry off => no per-request tracing work
# ----------------------------------------------------------------------
def _overhead_workload():
    from repro.graph.generators import social_graph
    from repro.core.build import build_index

    graph = social_graph(120, seed=5)
    index = build_index(graph, cost_model=_NO_LIMIT).index
    pairs = [(i % 120, (i * 7) % 120) for i in range(4000)]
    arrivals = [i * 1e-7 for i in range(4000)]
    return IndexBackend(index, _NO_LIMIT), pairs, arrivals


def test_disabled_telemetry_allocates_no_request_traces(monkeypatch):
    from repro.telemetry import tracing
    from repro.serve import QueryServer, pipeline as pipeline_module

    created = []
    original = tracing.RequestTrace

    class Counting(original):
        def __init__(self, *args, **kwargs):
            created.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(pipeline_module, "RequestTrace", Counting)
    backend, pairs, arrivals = _overhead_workload()
    assert current_tracer() is NULL_TRACER  # telemetry off
    report = QueryServer(backend, cost_model=_NO_LIMIT).run_open(pairs, arrivals)
    assert report.served + report.shed == len(pairs)
    assert created == []  # the hot path allocated zero trace objects


def test_disabled_telemetry_wall_time_overhead_under_5_percent():
    import time
    from contextlib import nullcontext
    from repro.serve import QueryServer, pipeline as pipeline_module

    backend, pairs, arrivals = _overhead_workload()

    def run_once():
        server = QueryServer(backend, cost_model=_NO_LIMIT)
        start = time.perf_counter()
        server.run_open(pairs, arrivals)
        return time.perf_counter() - start

    class _Bare:
        simulated_seconds = 0.0

        def set(self, **attrs):
            return self

        def add_simulated(self, seconds):
            pass

    def run_stripped():
        # The same pipeline with the telemetry hooks stripped out
        # entirely: what an uninstrumented build would run.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(pipeline_module, "enabled", lambda: False)
            patch.setattr(
                pipeline_module,
                "trace_span",
                lambda name, **attrs: nullcontext(_Bare()),
            )
            return run_once()

    def best_of(n):
        # The two sides alternate, so a change in host load between
        # runs reaches both instead of one.
        instrumented = stripped = float("inf")
        for _ in range(n):
            instrumented = min(instrumented, run_once())
            stripped = min(stripped, run_stripped())
        return instrumented, stripped

    # The instrumented-but-disabled pipeline, as shipped, against the
    # stripped one.
    instrumented, stripped = best_of(5)
    # Generous bound with re-measurement: timing on shared CI boxes is
    # noisy, and the contract is <5% added wall time.
    for _ in range(3):
        if instrumented <= stripped * 1.05:
            break
        more_instrumented, more_stripped = best_of(5)
        instrumented = min(instrumented, more_instrumented)
        stripped = min(stripped, more_stripped)
    assert instrumented <= stripped * 1.05, (
        f"disabled-telemetry overhead too high: "
        f"{instrumented:.4f}s vs {stripped:.4f}s uninstrumented"
    )
