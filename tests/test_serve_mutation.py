"""Tests for the serving write path: MutationBackend, mixed runs.

Writes are first-class requests: they share the admission queue with
reads, get costed on the simulated clock, invalidate the cache and feed
the replication op log through the leader's listener hooks, and appear
in ``serve.mutation.*`` metrics.  Writes are never deadline-dropped —
dropping an accepted write would silently fork leader state.
"""

import pytest

from repro.baselines.transitive_closure import TransitiveClosure
from repro.core.dynamic import DynamicReachabilityIndex
from repro.graph.digraph import DiGraph
from repro.graph.generators import random_dag
from repro.graph.order import VertexOrder
from repro.pregel.cost_model import CostModel
from repro.serve import (
    MUTATION_OPS,
    BoundedStalenessReplicator,
    CachingBackend,
    MutationBackend,
    QueryCache,
    QueryServer,
    ReplicatedLabelStore,
    ShardedIndexBackend,
    ShardedLabelStore,
)
from repro.telemetry import MetricsRegistry
from repro.workloads.traffic import poisson_arrivals, zipf_pairs
from repro.workloads.updates import mixed_update_stream

_NO_LIMIT = CostModel(time_limit_seconds=None)


def _leader(n=60, m=180, seed=3, **kwargs):
    return DynamicReachabilityIndex(random_dag(n, m, seed=seed), **kwargs)


# ----------------------------------------------------------------------
# MutationBackend statuses and costing
# ----------------------------------------------------------------------
def test_backend_statuses_applied_noop_rejected():
    leader = _leader()
    backend = MutationBackend(leader, cost_model=_NO_LIMIT)
    u, v = next(iter(leader.edges()))

    status, seconds = backend.apply_with_cost("delete", u, v)
    assert status == "applied" and seconds > 0
    status, _ = backend.apply_with_cost("delete", u, v)  # already gone
    assert status == "noop"
    status, _ = backend.apply_with_cost("insert", u, v)
    assert status == "applied"
    status, _ = backend.apply_with_cost("insert", u, v)  # already present
    assert status == "noop"
    status, _ = backend.apply_with_cost("add_node", 0, 0)
    assert status == "applied"
    assert backend.applied == 3 and backend.noops == 2 and backend.rejected == 0


def test_backend_rejects_bad_writes_without_raising():
    leader = _leader()
    backend = MutationBackend(leader, cost_model=_NO_LIMIT)
    # Out-of-range id, self-loop, tombstoned vertex: all rejected, none
    # raise — a bad write must fail the request, not the server.
    assert backend.apply_with_cost("insert", 0, 10**6)[0] == "rejected"
    assert backend.apply_with_cost("insert", 5, 5)[0] == "rejected"
    assert backend.apply_with_cost("delete_node", 7, 7)[0] == "applied"
    assert backend.apply_with_cost("insert", 7, 8)[0] == "rejected"
    assert backend.apply_with_cost("promote", 7, 0)[0] == "rejected"
    assert backend.rejected == 4


def test_backend_unknown_op_raises():
    backend = MutationBackend(_leader(), cost_model=_NO_LIMIT)
    with pytest.raises(ValueError, match="unknown mutation op"):
        backend.apply_with_cost("truncate", 0, 1)
    assert set(MUTATION_OPS) == {
        "insert", "delete", "add_node", "delete_node", "promote"
    }


def test_backend_promote_negative_rank_means_degree_rank():
    leader = _leader()
    backend = MutationBackend(leader, cost_model=_NO_LIMIT)
    tail = list(leader.order.by_rank())[-1]
    for x in leader.alive_vertices()[:8]:
        if x != tail and not leader.has_edge(x, tail):
            leader.insert_edge(x, tail)
    assert leader.drift(tail) > 0
    status, _ = backend.apply_with_cost("promote", tail, -1)
    assert status == "applied"
    assert leader.drift(tail) <= 0


def test_backend_tracks_peak_staleness_window():
    leader = _leader()
    replicator = BoundedStalenessReplicator(
        leader, num_replicas=3, delay_seconds=0.5
    )
    backend = MutationBackend(leader, cost_model=_NO_LIMIT, replicator=replicator)
    u, v = next(iter(leader.edges()))
    backend.apply_with_cost("delete", u, v, at=1.0)
    backend.apply_with_cost("insert", u, v, at=1.3)
    # Followers have not seen the 1.0 op yet when the 1.3 op samples.
    assert backend.staleness_window_seconds == pytest.approx(0.3)
    assert replicator.staleness_window(1.4) == pytest.approx(0.4)
    replicator.advance(10.0)
    assert replicator.staleness_window(10.0) == 0.0


# ----------------------------------------------------------------------
# Listener-driven integration: cache and replication
# ----------------------------------------------------------------------
def test_cache_invalidation_per_op_kind():
    cache = QueryCache()
    cache.put(0, 1, True)
    cache.put(2, 3, False)
    # Neutral ops touch nothing: reachability is unchanged.
    assert cache.invalidate_for_update("add_node", 9, 9) == 0
    assert cache.invalidate_for_update("promote", 4, 0) == 0
    assert len(cache) == 2
    # Inserts can only flip negatives; deletes only positives.
    assert cache.invalidate_for_update("insert", 0, 1) == 1
    assert cache.get(0, 1) is True and cache.get(2, 3) is None
    cache.put(2, 3, False)
    assert cache.invalidate_for_update("delete_node", 5, 5) == 1
    assert cache.get(0, 1) is None and cache.get(2, 3) is False
    with pytest.raises(ValueError):
        cache.invalidate_for_update("bogus", 0, 1)


def test_followers_install_rows_of_node_ops_and_promotes_exactly():
    leader = _leader(seed=11)
    replicator = BoundedStalenessReplicator(leader, num_replicas=3)
    for op, u, v in mixed_update_stream(
        leader.current_graph(), 40, node_ratio=0.2, promote_ratio=0.15, seed=5
    ):
        if op == "insert":
            leader.insert_edge(u, v)
        elif op == "delete":
            leader.delete_edge(u, v)
        elif op == "add_node":
            leader.add_node()
        elif op == "delete_node":
            leader.delete_node(u)
        else:
            leader.promote(u, None if v < 0 else v)
    for r in (1, 2):
        replicator.catch_up(r)
        follower = replicator.view(r)
        assert len(follower.in_labels) == leader.num_vertices
        assert follower.snapshot() == leader.snapshot()
        # A follower is a label table: no graph and no order to diverge.
        assert not hasattr(follower, "edges") and not hasattr(follower, "order")


def test_drift_promotions_are_logged_with_concrete_ranks():
    # The leader resolves drift-triggered promotions before logging:
    # the entry names the rank it applied and carries the rows that
    # promotion changed, so followers never re-derive anything.
    leader = _leader(seed=13, drift_threshold=2)
    replicator = BoundedStalenessReplicator(leader, num_replicas=2)
    tail = list(leader.order.by_rank())[-1]
    for x in leader.alive_vertices():
        if x != tail and not leader.has_edge(x, tail):
            leader.insert_edge(x, tail)
    promotes = [(e.u, e.v) for e in replicator.log if e.op == "promote"]
    assert promotes, "drift threshold should have fired a promotion"
    assert all(v >= 0 for _, v in promotes)
    replicator.catch_up(1)
    assert replicator.view(1).snapshot() == leader.snapshot()


def test_closure_preserving_writes_still_do_everything_a_write_owes():
    # 0 → 1 → 2 → 3: the chord (0, 3) joins a pair that is connected with
    # or without it, so inserting and deleting it move no label row — and
    # must still be writes to everyone listening.
    leader = DynamicReachabilityIndex(DiGraph(4, [(0, 1), (1, 2), (2, 3)]))
    replicator = BoundedStalenessReplicator(leader, num_replicas=2)
    cache = QueryCache()
    cache.attach(leader)
    seen = []
    leader.subscribe(lambda op, u, v: seen.append((op, u, v, leader.touched)))
    backend = MutationBackend(leader, cost_model=_NO_LIMIT, replicator=replicator)
    follower = replicator.view(1)
    rows = follower.in_labels + follower.out_labels

    cache.put(3, 0, False)
    status, seconds = backend.apply_with_cost("insert", 0, 3)
    assert status == "applied" and seconds > 0
    assert cache.get(3, 0) is None  # an insert still evicts negatives
    cache.put(0, 3, True)
    assert leader.apply("delete", 0, 3) is True
    assert cache.get(0, 3) is None  # ... and a delete positives
    assert backend.applied == 1 and backend.noops == 0

    assert seen == [("insert", 0, 3, (set(), set())), ("delete", 0, 3, (set(), set()))]
    assert replicator.version == 2
    assert [(e.op, e.in_rows, e.out_rows) for e in replicator.log] == [
        ("insert", {}, {}), ("delete", {}, {}),
    ]
    assert replicator.pending_kinds(1) == (True, True)
    assert replicator.catch_up(1) == 2
    assert all(a is b for a, b in zip(rows, follower.in_labels + follower.out_labels))
    assert follower.snapshot() == leader.snapshot()
    leader.check()


def test_closure_preserving_writes_still_check_drift():
    # Degrees move even when labels do not.  Chords into the tail of a
    # chain lift its degree rank past the threshold: the insert that
    # crosses it reports no rows, the promote behind it does.
    chain = [(i, i + 1) for i in range(5)]
    leader = DynamicReachabilityIndex(
        DiGraph(6, chain), VertexOrder(range(6)), drift_threshold=2
    )
    seen = []
    leader.subscribe(lambda op, u, v: seen.append((op, u, v, leader.touched)))
    assert leader.insert_edge(0, 5) and leader.insert_edge(1, 5)
    assert [(op, u, v) for op, u, v, _ in seen] == [
        ("insert", 0, 5), ("insert", 1, 5), ("promote", 5, 1),
    ]
    assert seen[0][3] == seen[1][3] == (set(), set()) != seen[2][3]
    leader.check()
    # A delete's turn: the frozen order undervalues vertex 5 from the
    # start, and the first write that touches it — a chord whose
    # removal leaves 0 ⇝ 5 standing — is where the check runs.
    chords = [(i, 5) for i in range(4)]
    leader = DynamicReachabilityIndex(
        DiGraph(6, chain + chords), VertexOrder(range(6)), drift_threshold=1
    )
    seen.clear()
    leader.subscribe(lambda op, u, v: seen.append((op, u, v, leader.touched)))
    assert leader.delete_edge(0, 5)
    assert [(op, u, v) for op, u, v, _ in seen] == [("delete", 0, 5), ("promote", 5, 3)]
    assert seen[0][3] == (set(), set())
    leader.check()


def test_pending_kinds_treats_node_ops_correctly():
    leader = _leader()
    replicator = BoundedStalenessReplicator(leader, num_replicas=2)
    leader.add_node()
    leader.promote(list(leader.order.by_rank())[-1], 0)
    assert replicator.pending_kinds(1) == (False, False)  # both neutral
    leader.delete_node(0)
    assert replicator.pending_kinds(1) == (False, True)
    u, v = next(iter(leader.edges()))
    leader.delete_edge(u, v)
    leader.insert_edge(u, v)
    assert replicator.pending_kinds(1) == (True, True)


# ----------------------------------------------------------------------
# QueryServer: submit_mutation and mixed runs
# ----------------------------------------------------------------------
def _mixed_server(leader, *, cache=False, deadline=None, metrics=None,
                  replicator=None, queue_depth=1024):
    store = ShardedLabelStore(leader, num_shards=2, cost_model=_NO_LIMIT)
    backend = ShardedIndexBackend(store)
    if cache:
        qcache = QueryCache()
        qcache.attach(leader)
        backend = CachingBackend(backend, qcache, cost_model=_NO_LIMIT)
    return QueryServer(
        backend,
        cost_model=_NO_LIMIT,
        queue_depth=queue_depth,
        deadline_seconds=deadline,
        metrics=metrics,
        mutation_backend=MutationBackend(
            leader, cost_model=_NO_LIMIT, replicator=replicator
        ),
    )


def test_submit_mutation_requires_backend():
    leader = _leader()
    store = ShardedLabelStore(leader, num_shards=2, cost_model=_NO_LIMIT)
    server = QueryServer(ShardedIndexBackend(store), cost_model=_NO_LIMIT)
    with pytest.raises(ValueError, match="mutation_backend"):
        server.submit_mutation("insert", 0, 1)


def test_submit_mutation_applies_and_invalidates_cache():
    leader = _leader()
    store = ShardedLabelStore(leader, num_shards=2, cost_model=_NO_LIMIT)
    cache = QueryCache()
    cache.attach(leader)
    backend = CachingBackend(
        ShardedIndexBackend(store), cache, cost_model=_NO_LIMIT
    )
    server = QueryServer(
        backend,
        cost_model=_NO_LIMIT,
        mutation_backend=MutationBackend(leader, cost_model=_NO_LIMIT),
    )
    u, v = next(iter(leader.edges()))
    answer, _ = backend.query_with_cost(u, v)
    assert answer  # warm the cache with a positive
    status, seconds = server.submit_mutation("delete", u, v)
    assert status == "applied" and seconds > 0
    answer, _ = backend.query_with_cost(u, v)
    assert answer == TransitiveClosure(leader.current_graph()).query(u, v)


def test_run_mixed_reports_reads_and_writes_separately():
    leader = _leader(n=80, m=240, seed=9)
    n = leader.num_vertices
    pairs = zipf_pairs(n, 300, skew=1.2, seed=1)
    arrivals = poisson_arrivals(300, rate=500000.0, seed=2)
    mutations = mixed_update_stream(
        leader.current_graph(), 30, node_ratio=0.1, promote_ratio=0.1, seed=3
    )
    mutation_arrivals = poisson_arrivals(30, rate=100000.0, seed=4)
    server = _mixed_server(leader, cache=True)
    report = server.run_mixed(pairs, arrivals, mutations, mutation_arrivals)
    assert report.mode == "mixed"
    assert report.offered == 300  # reads only
    assert report.mutations_offered == 30
    assert (
        report.mutations_applied
        + report.mutations_noop
        + report.mutations_rejected
        + report.mutations_shed
        == 30
    )
    assert report.mutations_applied > 0
    assert report.update_throughput > 0
    assert "writes:" in report.summary()


def test_run_mixed_never_deadline_drops_writes():
    leader = _leader(n=50, m=150, seed=15)
    pairs = zipf_pairs(leader.num_vertices, 200, skew=1.2, seed=5)
    arrivals = poisson_arrivals(200, rate=5e6, seed=6)  # brutal read load
    mutations = mixed_update_stream(leader.current_graph(), 20, seed=7)
    mutation_arrivals = poisson_arrivals(20, rate=1e6, seed=8)
    server = _mixed_server(leader, deadline=1e-9)  # drops ~every read
    report = server.run_mixed(pairs, arrivals, mutations, mutation_arrivals)
    assert report.deadline_dropped > 0  # the deadline really is brutal
    # Every admitted write executed: accepted writes are never dropped.
    assert report.mutations_applied + report.mutations_noop + \
        report.mutations_rejected == 20 - report.mutations_shed
    assert report.mutations_shed == 0  # queue was deep enough


def test_run_mixed_sheds_writes_under_queue_pressure():
    leader = _leader(n=50, m=150, seed=21)
    pairs = zipf_pairs(leader.num_vertices, 400, skew=1.2, seed=9)
    arrivals = [0.0] * 400  # everything at once: the queue overflows
    mutations = mixed_update_stream(leader.current_graph(), 40, seed=10)
    mutation_arrivals = [0.0] * 40
    server = _mixed_server(leader, queue_depth=16)
    report = server.run_mixed(pairs, arrivals, mutations, mutation_arrivals)
    assert report.shed > 0
    assert report.mutations_shed > 0
    assert report.mutations_offered == 40


def test_run_mixed_validates_schedules():
    leader = _leader()
    server = _mixed_server(leader)
    with pytest.raises(ValueError, match="arrival"):
        server.run_mixed([(0, 1)], [0.0, 1.0], [], [])
    with pytest.raises(ValueError, match="mutation"):
        server.run_mixed([], [], [("insert", 0, 1)], [0.0, 1.0])
    with pytest.raises(ValueError, match="non-decreasing"):
        server.run_mixed([(0, 1), (1, 2)], [1.0, 0.5], [], [])


def test_run_mixed_records_mutation_metrics():
    leader = _leader(n=40, m=120, seed=17)
    registry = MetricsRegistry()
    replicator = BoundedStalenessReplicator(leader, num_replicas=2)
    server = _mixed_server(leader, metrics=registry, replicator=replicator)
    pairs = zipf_pairs(leader.num_vertices, 100, skew=1.2, seed=11)
    arrivals = poisson_arrivals(100, rate=200000.0, seed=12)
    mutations = mixed_update_stream(leader.current_graph(), 10, seed=13)
    mutation_arrivals = poisson_arrivals(10, rate=50000.0, seed=14)
    report = server.run_mixed(pairs, arrivals, mutations, mutation_arrivals)
    assert registry.counter("serve.mutation.requests").value == 10
    assert (
        registry.counter("serve.mutation.applied").value
        == report.mutations_applied
    )
    assert (
        registry.histogram("serve.mutation.latency_seconds").count
        == report.mutations_applied
        + report.mutations_noop
        + report.mutations_rejected
    )
    assert registry.gauge(
        "serve.mutation.staleness_window_seconds"
    ).value == pytest.approx(report.staleness_window_seconds)


def test_read_only_run_reports_no_mutation_fields():
    leader = _leader()
    registry = MetricsRegistry()
    server = _mixed_server(leader, metrics=registry)
    pairs = zipf_pairs(leader.num_vertices, 50, skew=1.2, seed=19)
    report = server.run_open(pairs, poisson_arrivals(50, rate=1000.0, seed=20))
    assert report.mutations_offered == 0
    assert "writes:" not in report.summary()
    assert "serve.mutation.requests" not in registry


# ----------------------------------------------------------------------
# Mixed serve bench
# ----------------------------------------------------------------------
def test_run_mixed_serve_bench_is_deterministic():
    from repro.serve import MIXED_COLUMNS, run_mixed_serve_bench

    graph = random_dag(120, 360, seed=23)
    kwargs = dict(
        shards=2, requests=800, writes=80, seed=3,
        replicas=2, without_cache=False, cost_model=_NO_LIMIT,
    )
    table_a, reports_a = run_mixed_serve_bench(graph, **kwargs)
    table_b, _ = run_mixed_serve_bench(graph, **kwargs)
    assert table_a.columns == list(MIXED_COLUMNS)
    assert list(reports_a) == ["cached"]  # cached row only
    for column in MIXED_COLUMNS:
        assert table_a.get("cached", column) == table_b.get("cached", column)
    report = reports_a["cached"]
    assert report.mutations_applied > 0
    assert report.update_throughput > 0
    assert table_a.get("cached", "applied").value == float(
        report.mutations_applied
    )
