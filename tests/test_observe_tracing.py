"""Tests for request-scoped tracing through the serving pipeline."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.build import build_index
from repro.graph.generators import social_graph
from repro.telemetry import tracing
from repro.telemetry.tracing import RequestTrace, TraceIdGenerator
from repro.pregel.cost_model import CostModel
from repro.serve import (
    CachingBackend,
    QueryServer,
    ShardedIndexBackend,
    ShardedLabelStore,
)
from repro.telemetry import session
from repro.telemetry.sinks import InMemorySink
from repro.workloads.traffic import poisson_arrivals, zipf_pairs
from tests.test_serve_store import READ_PATH_CELLS, serve_cell

_NO_LIMIT = CostModel(time_limit_seconds=None)


@pytest.fixture(scope="module")
def graph():
    return social_graph(150, seed=4)


@pytest.fixture(scope="module")
def backend(graph):
    index = build_index(graph, cost_model=_NO_LIMIT).index
    store = ShardedLabelStore(index, num_shards=4, cost_model=_NO_LIMIT)
    return CachingBackend(ShardedIndexBackend(store))


def _request_events(sink):
    return [
        record for record in sink.records
        if record.get("kind") == "event" and record.get("name") == "serve.request"
    ]


def _serve(backend, pairs, arrivals, **kwargs):
    sink = InMemorySink()
    with session([sink]):
        server = QueryServer(backend, **kwargs)
        report = server.run_open(pairs, arrivals)
    return report, _request_events(sink)


class TestTraceIds:
    def test_ids_are_unique_and_deterministic_per_run(self):
        gen = TraceIdGenerator(run_id=7)
        ids = [gen.next_id() for _ in range(5)]
        assert len(set(ids)) == 5
        assert ids == [f"0007-{i:06d}" for i in range(5)]

    def test_distinct_generators_never_collide(self):
        a, b = TraceIdGenerator(), TraceIdGenerator()
        assert a.run_id != b.run_id
        assert a.next_id() != b.next_id()


class TestRequestTrace:
    def test_stage_order_and_attrs_round_trip(self):
        trace = RequestTrace("0001-000000", 3, 9, 0.5)
        trace.add_stage("admission", 1e-6)
        trace.add_stage("cache", 1e-8, hit=False)
        trace.finish("served", 2e-6)
        attrs = trace.to_attrs()
        assert attrs["trace_id"] == "0001-000000"
        assert attrs["outcome"] == "served"
        assert "reason" not in attrs
        assert [s["stage"] for s in attrs["stages"]] == ["admission", "cache"]
        assert attrs["stages"][1]["hit"] is False

    def test_drop_reason_is_exported(self):
        trace = RequestTrace("0001-000001", 0, 1, 0.0)
        trace.finish("shed", reason="queue_full")
        assert trace.to_attrs()["reason"] == "queue_full"

    def test_active_slot_begin_end(self):
        trace = RequestTrace("0001-000002", 0, 1, 0.0)
        assert tracing.ACTIVE is None
        tracing.begin_request(trace)
        tracing.add_stage("store", 1e-6, home=2)
        tracing.end_request()
        assert tracing.ACTIVE is None
        assert trace.stage_names() == ["store"]

    def test_add_stage_without_active_request_is_noop(self):
        tracing.add_stage("cache", 1e-8)  # must not raise

    @given(
        outcome=st.sampled_from(["served", "shed", "deadline", "error"]),
        reason=st.none() | st.sampled_from(["queue_full", "deadline", "unavailable"]),
        latency=st.floats(0, 1, allow_nan=False),
        stages=st.lists(
            st.tuples(
                st.sampled_from(["admission", "cache", "store", "backend"]),
                st.floats(0, 1, allow_nan=False),
                st.dictionaries(
                    st.sampled_from(["hit", "home", "remote", "lag", "answer"]),
                    st.booleans() | st.integers(0, 64),
                ),
            ),
            max_size=6,
        ),
        span=st.none() | st.integers(1, 10_000),
        op=st.none() | st.sampled_from(["insert", "delete", "add_node"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_one_class_on_both_sides_of_the_file(
        self, outcome, reason, latency, stages, span, op
    ):
        """What the writer emits, the reader parses back into an equal
        record — through JSON, as a trace file would carry it."""
        written = RequestTrace("0001-000003", 4, 7, 0.25, op)
        for name, seconds, attrs in stages:
            written.add_stage(name, seconds, **attrs)
        written.finish(outcome, latency, reason)
        record = json.loads(json.dumps({"attrs": written.to_attrs(), "span": span}))
        read = RequestTrace.from_event(record)
        assert (read.run, read.op) == (span, op)
        assert read.to_attrs() == written.to_attrs()
        assert read.stage_names() == [name for name, _, _ in stages]


class TestServerTracing:
    def test_every_request_gets_a_terminal_event(self, graph, backend):
        pairs = zipf_pairs(graph.num_vertices, 800, seed=1)
        arrivals = poisson_arrivals(800, rate=2_000_000, seed=2)
        report, events = _serve(
            backend, pairs, arrivals, queue_depth=32, batch_size=8
        )
        assert len(events) == report.offered
        outcomes = [e["attrs"]["outcome"] for e in events]
        assert outcomes.count("served") == report.served
        assert outcomes.count("shed") == report.shed
        ids = [e["attrs"]["trace_id"] for e in events]
        assert len(set(ids)) == len(ids)

    def test_served_requests_carry_all_stages(self, graph, backend):
        pairs = zipf_pairs(graph.num_vertices, 400, seed=3)
        arrivals = poisson_arrivals(400, rate=500_000, seed=4)
        _, events = _serve(backend, pairs, arrivals)
        served = [e["attrs"] for e in events if e["attrs"]["outcome"] == "served"]
        assert served
        for attrs in served:
            names = [s["stage"] for s in attrs["stages"]]
            assert names[0] == "admission"
            assert names[-1] == "backend"
            assert "cache" in names
            cache = next(s for s in attrs["stages"] if s["stage"] == "cache")
            # A miss goes on to the store; a hit stops at the cache.
            assert ("store" in names) == (not cache["hit"])

    def test_shed_requests_record_queue_full_reason(self, graph, backend):
        pairs = zipf_pairs(graph.num_vertices, 600, seed=5)
        arrivals = [0.0] * 600  # everything at once: queue must overflow
        report, events = _serve(backend, pairs, arrivals, queue_depth=16)
        assert report.shed > 0
        shed = [e["attrs"] for e in events if e["attrs"]["outcome"] == "shed"]
        assert len(shed) == report.shed
        assert all(a["reason"] == "queue_full" for a in shed)
        assert all(a["stages"] == [] for a in shed)

    def test_deadline_drops_record_reason_and_wait(self, graph):
        class Slow:
            def query_with_cost(self, s, t):
                return False, 1.0

        pairs = [(0, 1)] * 20
        arrivals = [0.0] * 20
        sink = InMemorySink()
        with session([sink]):
            server = QueryServer(
                Slow(), batch_size=1, deadline_seconds=2.5
            )
            report = server.run_open(pairs, arrivals)
        assert report.deadline_dropped > 0
        dropped = [
            e["attrs"] for e in _request_events(sink)
            if e["attrs"]["outcome"] == "deadline"
        ]
        assert len(dropped) == report.deadline_dropped
        for attrs in dropped:
            assert attrs["reason"] == "deadline"
            assert attrs["stages"][0]["stage"] == "admission"
            assert attrs["stages"][0]["seconds"] > 2.5

    def test_per_reason_drop_counters(self, graph, backend):
        pairs = zipf_pairs(graph.num_vertices, 600, seed=5)
        arrivals = [0.0] * 600
        sink = InMemorySink()
        with session([sink]):
            server = QueryServer(backend, queue_depth=16)
            report = server.run_open(pairs, arrivals)
        reasons = [
            r["attrs"].get("reason") for r in sink.records
            if r["kind"] == "event" and r["name"] == "serve.request"
        ]
        assert reasons.count("queue_full") == report.shed > 0
        assert "deadline" not in reasons

    def test_tracing_off_emits_no_events(self, graph, backend):
        pairs = zipf_pairs(graph.num_vertices, 100, seed=6)
        arrivals = poisson_arrivals(100, rate=100_000, seed=7)
        sink = InMemorySink()
        with session([sink]):
            server = QueryServer(
                backend, request_tracing=False
            )
            report = server.run_open(pairs, arrivals)
        assert report.served == 100
        assert _request_events(sink) == []

    def test_tracing_forced_on_without_session(self, graph, backend):
        pairs = zipf_pairs(graph.num_vertices, 50, seed=8)
        arrivals = poisson_arrivals(50, rate=100_000, seed=9)
        server = QueryServer(backend, request_tracing=True)
        report = server.run_open(pairs, arrivals)  # no tracer: events vanish
        assert report.served == 50

    def test_tracing_does_not_change_report(self, graph):
        index = build_index(graph, cost_model=_NO_LIMIT).index
        pairs = zipf_pairs(graph.num_vertices, 300, seed=10)
        arrivals = poisson_arrivals(300, rate=1_000_000, seed=11)

        def run(**kwargs):
            # Fresh store and cache per run: a warmed cache would change
            # the costs and mask a tracing-induced difference.
            store = ShardedLabelStore(index, num_shards=4, cost_model=_NO_LIMIT)
            fresh = CachingBackend(
                ShardedIndexBackend(store)
            )
            server = QueryServer(
                fresh, queue_depth=32, **kwargs
            )
            return server.run_open(pairs, arrivals)

        untraced = run(request_tracing=False)
        with session([InMemorySink()]):
            traced = run()
        assert traced == untraced
        # The read-path grid too: replicas under every policy, faults,
        # the staleness guard, caches of every size, each run mode.
        for cell in READ_PATH_CELLS:
            untraced = serve_cell(cell, request_tracing=False)
            with session([InMemorySink()]):
                traced = serve_cell(cell)
            assert traced == untraced, cell
