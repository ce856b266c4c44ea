"""Tests for the telemetry subsystem: spans, metrics, sinks, report."""

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
from repro.pregel.cost_model import CostModel
from repro.pregel.engine import Cluster
from repro.pregel.vertex_program import VertexProgram
from repro.query.service import IndexBackend
from repro.telemetry import (
    MetricsRegistry,
    Tracer,
    current_tracer,
    exponential_buckets,
    session,
    trace_span,
)
from repro.telemetry.metrics import percentile_from_record
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
    outside_metrics = telemetry.current_metrics()
    with session([sink]) as tracer:
        assert telemetry.enabled()
        assert current_tracer() is tracer
        assert telemetry.current_metrics() is not outside_metrics
        telemetry.current_metrics().counter("c").inc(3)
        with trace_span("work"):
            pass
    assert not telemetry.enabled()
    assert telemetry.current_metrics() is outside_metrics
    # Metrics were flushed into the sink at session end.
    assert sink.metrics == [
        {"kind": "metric", "metric": "counter", "name": "c", "value": 3}
    ]
    assert [s.name for s in sink.spans] == ["work"]


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


def test_attached_joins_the_active_session_and_leaves_it_on_exit():
    outer, joined = InMemorySink(), InMemorySink()
    with session([outer]) as tracer:
        telemetry.trace_event("before")
        with telemetry.attached(joined) as same:
            assert same is tracer
            telemetry.trace_event("during")
        telemetry.trace_event("after")
        assert tracer.sinks == [outer]
    assert [e.name for e in joined.events] == ["during"]
    assert [e.name for e in outer.events] == ["before", "during", "after"]
    # The session owns the registry: only its own sinks get the flush.
    assert joined.metrics == []


def test_attached_restores_the_sink_list_when_the_block_raises():
    outer, joined = InMemorySink(), InMemorySink()
    with session([outer]) as tracer:
        with pytest.raises(RuntimeError):
            with telemetry.attached(joined):
                telemetry.trace_event("seen")
                raise RuntimeError("boom")
        assert tracer.sinks == [outer]
        telemetry.trace_event("unseen")
    assert [e.name for e in joined.events] == ["seen"]


def test_attached_alone_opens_a_session_of_its_own():
    sink = InMemorySink()
    assert not telemetry.enabled()
    with telemetry.attached(sink):
        assert telemetry.enabled()
        telemetry.trace_event("tick", at=1.0)
    assert not telemetry.enabled()
    assert current_tracer() is NULL_TRACER
    assert [(e.name, e.attrs) for e in sink.events] == [("tick", {"at": 1.0})]


# ----------------------------------------------------------------------
# Sinks
# ----------------------------------------------------------------------
def test_jsonl_sink_writes_schema(tmp_path):
    path = tmp_path / "trace.jsonl"
    with session([JsonlSink(path)]):
        with trace_span("outer", dataset="GO"):
            telemetry.trace_event("tick", n=1)
        telemetry.current_metrics().histogram("h").observe(2e-7)
    records = [json.loads(line) for line in path.read_text().splitlines()]
    kinds = [r["kind"] for r in records]
    assert kinds == ["event", "span", "metric"]
    event, span, metric = records
    assert event["name"] == "tick" and event["attrs"] == {"n": 1}
    assert event["span"] == span["id"]
    assert span["name"] == "outer"
    assert span["attrs"] == {"dataset": "GO"}
    assert span["wall_seconds"] >= 0
    assert "simulated_seconds" in span and "status" in span
    assert metric["metric"] == "histogram" and metric["count"] == 1


def test_logging_sink_bridges_to_stdlib(caplog):
    logger = logging.getLogger("repro.telemetry.test")
    with caplog.at_level(logging.INFO, logger=logger.name):
        with session([LoggingSink(logger)]):
            with trace_span("logged.span", dataset="GO"):
                pass
            telemetry.current_metrics().counter("queries").inc(2)
    messages = [r.getMessage() for r in caplog.records]
    assert any("span logged.span" in m and "dataset=GO" in m for m in messages)
    assert any("metric queries=2" in m for m in messages)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def test_counter_gauge_basics():
    registry = MetricsRegistry()
    registry.counter("c").inc()
    registry.counter("c").inc(4)
    registry.gauge("g").set(2.5)
    registry.gauge("g").add(-0.5)
    assert registry.as_dict() == {"c": 5, "g": 2.0}
    with pytest.raises(ValueError):
        registry.counter("c").inc(-1)
    with pytest.raises(TypeError):
        registry.gauge("c")  # already a counter


def test_histogram_observe_and_percentiles():
    registry = MetricsRegistry()
    hist = registry.histogram("lat", buckets=(1.0, 10.0, 100.0))
    for value in (0.5, 0.6, 5.0, 50.0):
        hist.observe(value)
    assert hist.count == 4
    assert hist.min == 0.5 and hist.max == 50.0
    assert hist.mean == pytest.approx(14.025)
    # Ranks 1-2 land in the first bucket (bound 1.0), rank 3 in the
    # second (bound 10.0), rank 4 in the third (capped at the max).
    assert hist.percentile(0.50) == 1.0
    assert hist.percentile(0.75) == 10.0
    assert hist.percentile(1.0) == 50.0
    overflow = registry.histogram("lat", buckets=(1.0, 10.0, 100.0))
    assert overflow is hist  # get-or-create
    hist.observe(1e6)
    assert hist.percentile(1.0) == 1e6  # overflow bucket -> exact max
    flat = registry.as_dict()
    assert flat["lat.count"] == 5
    assert flat["lat.p50"] == 1.0


def test_histogram_record_roundtrip():
    registry = MetricsRegistry()
    hist = registry.histogram("h", buckets=exponential_buckets(1e-8, 10, 6))
    for value in (2e-8, 3e-7, 4e-6, 5e-5):
        hist.observe(value)
    record = hist.to_record()
    assert record["count"] == 4
    for fraction in (0.5, 0.9, 0.99, 1.0):
        assert percentile_from_record(record, fraction) == pytest.approx(
            hist.percentile(fraction)
        )
    assert percentile_from_record({"count": 0}, 0.5) == 0.0


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


def test_gauge_int_values_roundtrip_without_float_coercion():
    """An int-valued gauge exports as an int: 120, not 120.0 — so
    JSONL diffs of repeated runs stay byte-identical."""
    registry = MetricsRegistry()
    gauge = registry.gauge("entries")
    gauge.set(120)
    record = gauge.to_record()
    assert record["value"] == 120
    assert isinstance(record["value"], int)
    assert json.loads(json.dumps(record)) == record
    assert "120.0" not in json.dumps(record)
    gauge.add(5)
    assert isinstance(gauge.to_record()["value"], int)
    # Float-valued gauges still behave as before.
    gauge.set(2.5)
    assert isinstance(gauge.to_record()["value"], float)


def test_percentile_paths_agree_on_random_data():
    """Property-style check: the live histogram and its exported record
    estimate identical percentiles, across shapes and fractions."""
    import random

    for seed in range(10):
        rng = random.Random(seed)
        registry = MetricsRegistry()
        hist = registry.histogram(
            "h", buckets=exponential_buckets(1e-8, 10 ** 0.5, 12)
        )
        for _ in range(rng.randrange(1, 200)):
            hist.observe(10 ** rng.uniform(-9, 0))
        record = json.loads(json.dumps(hist.to_record()))
        for fraction in (0.0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0):
            assert percentile_from_record(record, fraction) == pytest.approx(
                hist.percentile(fraction)
            ), (seed, fraction)


def test_histogram_overflow_bucket_percentiles():
    """Every rank above the last bound reports the exact observed max."""
    registry = MetricsRegistry()
    hist = registry.histogram("h", buckets=(1.0, 2.0))
    for value in (5.0, 7.0, 11.0):  # all overflow
        hist.observe(value)
    assert hist.percentile(0.5) == 11.0
    assert hist.percentile(1.0) == 11.0
    assert percentile_from_record(hist.to_record(), 0.5) == 11.0


def test_histogram_single_observation_min_equals_max():
    registry = MetricsRegistry()
    hist = registry.histogram("h", buckets=(1.0, 10.0))
    hist.observe(3.0)
    assert hist.min == hist.max == 3.0
    assert hist.mean == 3.0
    # The single rank lands in the 10.0 bucket; the estimate is clamped
    # to the observed maximum.
    assert hist.percentile(0.5) == 3.0
    assert hist.percentile(1.0) == 3.0


def test_registry_as_dict_expands_sum_and_min():
    registry = MetricsRegistry()
    hist = registry.histogram("lat", buckets=(1.0, 10.0))
    hist.observe(0.5)
    hist.observe(4.5)
    flat = registry.as_dict()
    assert flat["lat.sum"] == pytest.approx(5.0)
    assert flat["lat.min"] == 0.5
    assert flat["lat.max"] == 4.5
    assert flat["lat.count"] == 2


def test_active_vertex_buckets_cover_seed_datasets():
    """The engine's active-vertex histogram must not overflow on any
    stand-in dataset: super-step 1 observes every vertex at once."""
    from repro.telemetry import ACTIVE_VERTEX_BUCKETS
    from repro.workloads.datasets import DATASETS

    top = ACTIVE_VERTEX_BUCKETS[-1]
    for spec in DATASETS.values():
        if spec.medium:
            assert spec.load().num_vertices <= top, spec.name


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
    metrics = telemetry.current_metrics()  # session over: outer registry
    assert "pregel.supersteps" not in metrics
    counters = {m["name"]: m for m in sink.metrics}
    assert counters["pregel.supersteps"]["value"] == stats.supersteps
    assert counters["pregel.remote_messages"]["value"] == stats.remote_messages
    assert counters["pregel.active_vertices"]["count"] == stats.supersteps


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
    # Label-entry growth gauge lands at the final index size.
    gauges = {m["name"]: m for m in sink.metrics}
    assert gauges["drl_b.label_entries"]["value"] == result.index.num_entries


# ----------------------------------------------------------------------
# Exemplars
# ----------------------------------------------------------------------
def test_exemplars_land_in_the_right_buckets():
    hist = telemetry.Histogram("lat", buckets=(1.0, 10.0), exemplar_slots=4)
    hist.observe(0.5, exemplar="t-low")
    hist.observe(5.0, exemplar="t-mid")
    hist.observe(50.0, exemplar="t-high")
    assert hist.exemplars(0) == [("t-low", 0.5)]
    assert hist.exemplars(1) == [("t-mid", 5.0)]
    assert hist.exemplars(2) == [("t-high", 50.0)]  # overflow bucket


def test_exemplar_reservoir_is_bounded_and_deterministic():
    def fill(seed):
        hist = telemetry.Histogram(
            "lat", buckets=(100.0,), exemplar_slots=3, exemplar_seed=seed
        )
        for i in range(500):
            hist.observe(float(i % 100), exemplar=f"t-{i:03d}")
        return hist.exemplars(0)

    first, second = fill(0), fill(0)
    assert len(first) == 3  # bounded at exemplar_slots
    assert first == second  # same seed, same sequence -> same sample
    assert fill(1) != first  # a different seed samples differently
    counts_only = telemetry.Histogram("lat", buckets=(100.0,))
    for i in range(500):
        counts_only.observe(float(i % 100), exemplar=f"t-{i:03d}")
    assert counts_only.count == 500  # sampling never affects the counts


def test_observe_without_exemplar_keeps_record_stable():
    hist = telemetry.Histogram("lat", buckets=(1.0,))
    hist.observe(0.5)
    record = hist.to_record()
    assert "exemplars" not in record
    with_exemplar = telemetry.Histogram("lat", buckets=(1.0,))
    with_exemplar.observe(0.5, exemplar="t-0")
    record = with_exemplar.to_record()
    assert record["exemplars"] == {"0": [{"exemplar": "t-0", "value": 0.5}]}
    json.dumps(record)  # JSONL-exportable


def test_exemplar_slots_validation():
    with pytest.raises(ValueError):
        telemetry.Histogram("lat", exemplar_slots=-1)
    zero = telemetry.Histogram("lat", exemplar_slots=0)
    zero.observe(0.5, exemplar="t-0")
    assert zero.exemplars(0) == []


def test_serve_latency_histogram_carries_trace_exemplars():
    from repro.graph.generators import social_graph
    from repro.core.build import build_index
    from repro.serve import QueryServer
    from repro.query.service import IndexBackend as _IB

    graph = social_graph(60, seed=3)
    index = build_index(graph, cost_model=_NO_LIMIT).index
    sink = InMemorySink()
    with session([sink]):
        server = QueryServer(_IB(index, _NO_LIMIT), cost_model=_NO_LIMIT)
        server.run_open([(0, 1)] * 20, [0.0] * 20)
    record = next(
        m for m in sink.metrics if m["name"] == "serve.latency_seconds"
    )
    exemplars = record["exemplars"]
    assert exemplars
    ids = {
        entry["exemplar"]
        for reservoir in exemplars.values()
        for entry in reservoir
    }
    event_ids = {
        r["attrs"]["trace_id"]
        for r in sink.records
        if r.get("kind") == "event" and r.get("name") == "serve.request"
    }
    assert ids <= event_ids  # every exemplar is a real request trace


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
    from repro.observe import tracing
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


def test_disabled_telemetry_wall_time_overhead_under_5_percent(monkeypatch):
    import time
    from contextlib import nullcontext
    from repro.serve import QueryServer, pipeline as pipeline_module

    backend, pairs, arrivals = _overhead_workload()

    def run_once():
        server = QueryServer(backend, cost_model=_NO_LIMIT)
        start = time.perf_counter()
        server.run_open(pairs, arrivals)
        return time.perf_counter() - start

    def best_of(n):
        return min(run_once() for _ in range(n))

    class _Bare:
        simulated_seconds = 0.0

        def set(self, **attrs):
            return self

        def add_simulated(self, seconds):
            pass

    # The instrumented-but-disabled pipeline, as shipped.
    instrumented = best_of(5)
    # The same pipeline with the telemetry hooks stripped out entirely:
    # what an uninstrumented build would run.
    monkeypatch.setattr(pipeline_module, "enabled", lambda: False)
    monkeypatch.setattr(
        pipeline_module,
        "trace_span",
        lambda name, **attrs: nullcontext(_Bare()),
    )
    stripped = best_of(5)
    # Generous bound with re-measurement: timing on shared CI boxes is
    # noisy, and the ISSUE's contract is <5% added wall time.
    for _ in range(3):
        if instrumented <= stripped * 1.05:
            break
        instrumented = min(instrumented, best_of(5))
    assert instrumented <= stripped * 1.05, (
        f"disabled-telemetry overhead too high: "
        f"{instrumented:.4f}s vs {stripped:.4f}s uninstrumented"
    )
