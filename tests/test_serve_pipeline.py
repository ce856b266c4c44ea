"""Tests for the request pipeline: admission, batching, deadlines."""

import pytest

from repro.baselines.transitive_closure import TransitiveClosure
from repro.core.build import build_index
from repro.core.dynamic import DynamicReachabilityIndex
from repro.graph.generators import social_graph
from repro.pregel.cost_model import CostModel
from repro.errors import ShardUnavailableError
from repro.query import FallbackBackend
from repro.serve import (
    CachingBackend,
    MutationBackend,
    QueryCache,
    QueryServer,
    ShardedIndexBackend,
    ShardedLabelStore,
)
from repro.telemetry import MetricsRegistry, current_metrics, session
from repro.workloads.queries import random_pairs
from repro.workloads.traffic import poisson_arrivals, uniform_arrivals, zipf_pairs

_NO_LIMIT = CostModel(time_limit_seconds=None)


@pytest.fixture(scope="module")
def graph():
    return social_graph(200, seed=8)


@pytest.fixture(scope="module")
def backend(graph):
    index = build_index(graph, cost_model=_NO_LIMIT).index
    store = ShardedLabelStore(index, num_shards=4, cost_model=_NO_LIMIT)
    return ShardedIndexBackend(store)


class _SlowBackend:
    """Deterministic backend: every query takes ``seconds``."""

    def __init__(self, seconds):
        self.seconds = seconds

    def query_with_cost(self, s, t):
        return False, self.seconds


def test_open_loop_serves_everything_when_unloaded(graph, backend):
    pairs = random_pairs(graph.num_vertices, 500, seed=0)
    arrivals = uniform_arrivals(500, rate=1000.0)  # far below capacity
    report = QueryServer(backend, cost_model=_NO_LIMIT).run_open(pairs, arrivals)
    assert report.mode == "open"
    assert report.served == report.offered == 500
    assert report.shed == 0 and report.deadline_dropped == 0
    assert report.throughput > 0
    assert report.p50_seconds <= report.p99_seconds <= report.p999_seconds
    assert report.p999_seconds <= report.max_seconds
    assert report.shard_loads and report.shard_skew >= 1.0


def test_overload_sheds_and_terminates():
    # 1s per query, all 1000 requests arrive at t=0, queue holds 10:
    # the first 10 are admitted, everything else is shed — and the loop
    # must terminate (this is the "no deadlock" half of the property).
    server = QueryServer(
        _SlowBackend(1.0), queue_depth=10, batch_size=4, cost_model=_NO_LIMIT
    )
    pairs = [(0, 1)] * 1000
    report = server.run_open(pairs, [0.0] * 1000)
    assert report.shed > 0
    assert report.served + report.shed + report.deadline_dropped == report.offered
    assert report.queue_peak <= 10
    assert report.served == 10  # queue capacity admitted exactly once


def test_shed_count_scales_with_queue_depth():
    pairs = [(0, 1)] * 200
    arrivals = [0.0] * 200
    small = QueryServer(
        _SlowBackend(1.0), queue_depth=5, batch_size=4, cost_model=_NO_LIMIT
    ).run_open(pairs, arrivals)
    large = QueryServer(
        _SlowBackend(1.0), queue_depth=100, batch_size=4, cost_model=_NO_LIMIT
    ).run_open(pairs, arrivals)
    assert small.shed > large.shed
    assert small.served < large.served


def test_deadline_drops_late_requests():
    # Everything arrives at once; by the time the tail of the queue is
    # dequeued it has waited > deadline and is dropped, not served.
    server = QueryServer(
        _SlowBackend(1.0),
        queue_depth=100,
        batch_size=1,
        deadline_seconds=2.5,
        cost_model=_NO_LIMIT,
    )
    report = server.run_open([(0, 1)] * 50, [0.0] * 50)
    assert report.deadline_dropped > 0
    assert report.served + report.shed + report.deadline_dropped == report.offered
    assert report.max_seconds <= 2.5 + 1.0  # waited ≤ deadline, then 1s service


def test_arrival_validation():
    server = QueryServer(_SlowBackend(1.0), cost_model=_NO_LIMIT)
    with pytest.raises(ValueError, match="one arrival time per pair"):
        server.run_open([(0, 1)], [0.0, 1.0])
    with pytest.raises(ValueError, match="non-decreasing"):
        server.run_open([(0, 1), (1, 2)], [1.0, 0.0])


def test_constructor_validation(backend):
    with pytest.raises(ValueError):
        QueryServer(backend, queue_depth=0)
    with pytest.raises(ValueError):
        QueryServer(backend, batch_size=0)
    with pytest.raises(ValueError):
        QueryServer(backend, deadline_seconds=0.0)
    with pytest.raises(ValueError):
        QueryServer(backend).run_closed([(0, 1)], clients=0)
    with pytest.raises(ValueError):
        QueryServer(backend).run_closed([(0, 1)], think_seconds=-1.0)


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "name, value",
    [
        ("batch_size", _NAN),
        ("batch_size", 2.5),
        ("batch_size", "8"),
        ("queue_depth", _NAN),
        ("queue_depth", 16.0),
        ("deadline_seconds", _NAN),
        ("deadline_seconds", _INF),
        ("deadline_seconds", -1.0),
    ],
)
def test_settings_that_are_not_counts_or_finite_times_are_refused(
    backend, name, value
):
    # A NaN batch size never fills a batch (the loop spun on empty
    # ones) and a NaN deadline never fired: both are refused up front.
    with pytest.raises(ValueError, match=name):
        QueryServer(backend, **{name: value})


@pytest.mark.parametrize(
    "name, value",
    [
        ("clients", _NAN),
        ("clients", 2.0),
        ("think_seconds", _NAN),
        ("think_seconds", _INF),
    ],
)
def test_closed_loop_settings_are_checked(backend, name, value):
    with pytest.raises(ValueError, match=name):
        QueryServer(backend).run_closed([(0, 1)], **{name: value})


@pytest.mark.parametrize(
    "arrivals",
    [[0.0, _NAN, 1e-6], [0.0, 1e-6, _INF], [_NAN, 0.0, 1e-6], [-_INF, 0.0, 1e-6]],
    ids=repr,
)
def test_non_finite_arrivals_are_refused(backend, arrivals):
    # Unchecked, [0, nan, 1e-6] served all three with p50 = nan, and
    # [0, inf] reported an infinite makespan.
    pairs = [(0, 1), (2, 3), (4, 5)]
    with pytest.raises(ValueError, match="finite and non-decreasing"):
        QueryServer(backend).run_open(pairs, arrivals)


def test_non_finite_write_arrivals_are_refused(graph):
    leader = DynamicReachabilityIndex(graph)
    server = QueryServer(
        ShardedIndexBackend(ShardedLabelStore(leader, num_shards=2)),
        mutation_backend=MutationBackend(leader),
    )
    with pytest.raises(ValueError, match="finite and non-decreasing"):
        server.run_mixed([(0, 1)], [0.0], [("add_node", 0, -1)], [_NAN])


def test_closed_loop_never_sheds(graph, backend):
    pairs = random_pairs(graph.num_vertices, 400, seed=2)
    server = QueryServer(backend, queue_depth=8, batch_size=4, cost_model=_NO_LIMIT)
    report = server.run_closed(pairs, clients=8)
    assert report.mode == "closed"
    assert report.served == report.offered == 400
    assert report.shed == 0
    assert report.queue_peak <= 8  # in-flight population bounded by clients


def test_closed_loop_think_time_stretches_makespan(graph, backend):
    pairs = random_pairs(graph.num_vertices, 200, seed=3)
    fast = QueryServer(backend, cost_model=_NO_LIMIT).run_closed(pairs, clients=4)
    slow = QueryServer(backend, cost_model=_NO_LIMIT).run_closed(
        pairs, clients=4, think_seconds=1e-3
    )
    assert slow.makespan_seconds > fast.makespan_seconds
    assert slow.throughput < fast.throughput


def test_batching_amortizes_dispatch():
    # Same workload, same backend: bigger batches → fewer dispatches →
    # a shorter makespan (dispatch cost is paid per batch).
    pairs = [(0, 1)] * 256
    arrivals = [0.0] * 256
    unbatched = QueryServer(
        _SlowBackend(1e-6), queue_depth=256, batch_size=1, cost_model=_NO_LIMIT
    ).run_open(pairs, arrivals)
    batched = QueryServer(
        _SlowBackend(1e-6), queue_depth=256, batch_size=64, cost_model=_NO_LIMIT
    ).run_open(pairs, arrivals)
    assert unbatched.batches == 256
    assert batched.batches == 4
    assert batched.makespan_seconds < unbatched.makespan_seconds


def test_report_includes_cache_and_degradation(graph):
    # Degraded FallbackBackend under a cache: the report surfaces both.
    fallback = FallbackBackend(None, graph, _NO_LIMIT)
    assert fallback.degraded
    backend = CachingBackend(fallback, QueryCache(), cost_model=_NO_LIMIT)
    pairs = zipf_pairs(graph.num_vertices, 300, seed=5)
    report = QueryServer(backend, cost_model=_NO_LIMIT).run_open(
        pairs, poisson_arrivals(300, rate=1000.0, seed=5)
    )
    assert report.degraded
    assert report.fallback_queries > 0
    assert report.cache_hits > 0
    assert 0.0 < report.cache_hit_rate < 1.0
    assert "DEGRADED" in report.summary()
    oracle = TransitiveClosure(graph)
    # Spot-check: degraded serving still answers correctly.
    s, t = pairs[0]
    assert backend.query_with_cost(s, t)[0] == oracle.query(s, t)


def test_summary_mentions_key_numbers(graph, backend):
    pairs = random_pairs(graph.num_vertices, 100, seed=6)
    report = QueryServer(backend, cost_model=_NO_LIMIT).run_open(
        pairs, uniform_arrivals(100, rate=1000.0)
    )
    text = report.summary()
    assert "100 offered" in text
    assert "p99" in text and "throughput" in text
    assert "load skew" in text


def test_serve_metrics_recorded_via_explicit_registry(graph, backend):
    registry = MetricsRegistry()
    pairs = random_pairs(graph.num_vertices, 120, seed=7)
    server = QueryServer(backend, metrics=registry, cost_model=_NO_LIMIT)
    report = server.run_open(pairs, uniform_arrivals(120, rate=1000.0))
    assert registry.counter("serve.requests").value == 120
    assert registry.counter("serve.served").value == report.served
    assert registry.counter("serve.shed").value == report.shed
    assert registry.gauge("serve.queue_peak").value == report.queue_peak
    assert registry.histogram("serve.latency_seconds").count == report.served
    assert registry.gauge("serve.shard_skew").value == pytest.approx(report.shard_skew)
    assert registry.gauge("serve.degraded").value == 0
    assert registry.counter("serve.batches").value == report.batches


def test_serve_metrics_recorded_under_telemetry_session(graph, backend):
    pairs = random_pairs(graph.num_vertices, 80, seed=9)
    with session():
        QueryServer(backend, cost_model=_NO_LIMIT).run_open(
            pairs, uniform_arrivals(80, rate=1000.0)
        )
        registry = current_metrics()
        assert "serve.requests" in registry
        assert "serve.served" in registry
        assert "serve.latency_seconds" in registry
    # Outside the session, nothing leaks into the global registry.
    assert "serve.requests" not in current_metrics()


# -- replica-aware serving ---------------------------------------------

class _FlakyBackend:
    """Fails every ``nth`` query with ShardUnavailableError."""

    def __init__(self, nth=3, seconds=1e-5):
        self.nth = nth
        self.seconds = seconds
        self.calls = 0

    def query_with_cost(self, s, t):
        self.calls += 1
        if self.calls % self.nth == 0:
            error = ShardUnavailableError(0, 2)
            error.seconds = self.seconds
            raise error
        return False, self.seconds


def test_unavailable_shards_count_as_failed_not_served():
    server = QueryServer(_FlakyBackend(nth=3), cost_model=_NO_LIMIT)
    report = server.run_open([(0, 1)] * 30, uniform_arrivals(30, rate=100.0))
    assert report.failed == 10
    assert report.served == 20
    assert report.served + report.shed + report.deadline_dropped \
        + report.failed == report.offered
    assert report.availability == pytest.approx(20 / 30)
    assert f"{report.failed} failed" in report.summary()


def test_availability_is_one_when_nothing_fails(graph, backend):
    pairs = random_pairs(graph.num_vertices, 50, seed=2)
    report = QueryServer(backend, cost_model=_NO_LIMIT).run_open(
        pairs, uniform_arrivals(50, rate=1000.0)
    )
    assert report.failed == 0
    assert report.availability == 1.0


def test_on_advance_hook_sees_a_monotone_clock(graph, backend):
    clocks = []
    server = QueryServer(
        backend, cost_model=_NO_LIMIT, batch_size=8,
        on_advance=clocks.append,
    )
    pairs = random_pairs(graph.num_vertices, 100, seed=3)
    report = server.run_open(pairs, uniform_arrivals(100, rate=100000.0))
    assert report.served == 100
    assert clocks, "the hook must fire at least once per batch"
    assert clocks == sorted(clocks)
    assert len(clocks) == report.batches


def test_replicated_store_drives_end_to_end_failover(graph):
    # A full pipeline run over the replicated store: crash the primary
    # of every shard mid-run via the fault timeline and require that
    # the run stays correct and the failovers land in the report.
    from repro.baselines.transitive_closure import TransitiveClosure
    from repro.serve import (
        HealthPolicy,
        ReplicatedLabelStore,
        ServeFaultPlan,
        Timeline,
    )

    index = build_index(graph, cost_model=_NO_LIMIT).index
    store = ReplicatedLabelStore(
        index, num_shards=2, cost_model=_NO_LIMIT, replicas=2,
        health=HealthPolicy(failure_threshold=2),
    )
    timeline = Timeline(store.advance)
    ServeFaultPlan.parse("crash=0.0@0.0002,crash=1.0@0.0002").schedule(
        timeline, store
    )
    server = QueryServer(
        ShardedIndexBackend(store), cost_model=_NO_LIMIT,
        on_advance=timeline.advance,
    )
    pairs = random_pairs(graph.num_vertices, 400, seed=5)
    arrivals = uniform_arrivals(400, rate=400000.0)
    report = server.run_open(pairs, arrivals)
    assert report.failovers == 2
    assert report.replicas_down == 2
    assert report.failed == 0  # the surviving replicas absorbed it all
    oracle = TransitiveClosure(graph)
    # Spot-check: the store still answers correctly post-failover.
    for s, t in pairs[:50]:
        assert store.fetch(s, t)[0] == oracle.query(s, t)
    assert "failover" in report.summary()
