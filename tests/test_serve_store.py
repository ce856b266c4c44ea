"""Tests for the label store: sharding, accounting, routing, costs.

There is one store class; ``ShardedLabelStore`` is it at one copy per
shard and ``ReplicatedLabelStore`` at two.  Everything here that does
not depend on the copy count runs at both (``_stores``); replica
health, failover and staleness live in ``test_serve_replica.py``.
"""

import pytest

from repro.baselines.transitive_closure import TransitiveClosure
from repro.core.build import build_index
from repro.core.dynamic import DynamicReachabilityIndex
from repro.errors import OutOfMemoryError, ReproError, ShardOutOfMemoryError
from repro.graph.generators import social_graph
from repro.graph.partition import (
    HashPartitioner,
    ModuloPartitioner,
    RangePartitioner,
)
from repro.pregel.cost_model import CostModel
from repro.query import FallbackBackend
from repro.serve import (
    BoundedStalenessReplicator,
    MutationBackend,
    QueryServer,
    ReplicatedLabelStore,
    ShardedIndexBackend,
    ShardedLabelStore,
)
from repro.workloads.queries import random_pairs

_NO_LIMIT = CostModel(time_limit_seconds=None)


def _stores(index, **kwargs):
    """The store at one copy and at two, under both of its names."""
    kwargs.setdefault("cost_model", _NO_LIMIT)
    yield ShardedLabelStore(index, **kwargs)
    yield ReplicatedLabelStore(index, **kwargs)


@pytest.fixture(scope="module")
def graph():
    return social_graph(300, seed=5)


@pytest.fixture(scope="module")
def index(graph):
    return build_index(graph, cost_model=_NO_LIMIT).index


def test_answers_match_oracle(graph, index):
    oracle = TransitiveClosure(graph)
    for store in _stores(index, num_shards=4):
        for s, t in random_pairs(graph.num_vertices, 200, seed=11):
            answer, seconds = store.fetch(s, t)
            assert answer == oracle.query(s, t)
            assert seconds > 0


def test_both_names_are_one_class():
    # The replicated store is the sharded store with another default
    # copy count: no code of its own to drift.
    assert ReplicatedLabelStore.__bases__ == (ShardedLabelStore,)
    own = {k for k in vars(ReplicatedLabelStore) if not k.startswith("__")}
    assert own == {"default_replicas"}
    assert ShardedLabelStore.default_replicas == 1
    assert ReplicatedLabelStore.default_replicas == 2


def test_one_copy_reproduces_the_pre_merge_sharded_store(index):
    # Golden values from ShardedLabelStore at the commit before the two
    # store classes were merged: the one-copy read path must still
    # charge the same seconds to the same shards.
    store = ShardedLabelStore(index, num_shards=4, cost_model=_NO_LIMIT)
    seconds = [
        store.fetch(s, t)[1] for s, t in random_pairs(index.num_vertices, 500, seed=3)
    ]
    assert seconds[:3] == [2.108e-06, 7.5e-08, 2.0830000000000002e-06]
    assert sum(seconds) == 0.0007974739999999942
    assert store.shard_loads() == [221, 217, 230, 209]
    assert store.load_skew() == 1.0490307867730901
    assert store.memory_bytes() == [1376, 1368, 1312, 1320]
    assert store.replica_stats()["replicas_down"] == 0


def test_shard_routing_follows_partitioner(index):
    partitioner = ModuloPartitioner(4)
    for store in _stores(index, num_shards=4, partitioner=partitioner):
        for v in range(index.num_vertices):
            assert store.shard_of(v) == partitioner.node_of(v)


def test_partitioner_shard_count_mismatch_rejected(index):
    for cls in (ShardedLabelStore, ReplicatedLabelStore):
        with pytest.raises(ValueError, match="shards"):
            cls(
                index, num_shards=4, partitioner=HashPartitioner(8),
                cost_model=_NO_LIMIT,
            )


def test_memory_accounting_sums_to_index_size(index):
    one_copy = index.size_bytes(_NO_LIMIT.entry_bytes)
    for store in _stores(index, num_shards=4):
        # The per-shard figures (and the budget) are for one copy ...
        assert sum(store.memory_bytes()) == one_copy
        # ... and the total counts every copy.
        assert store.total_memory_bytes() == one_copy * store.replicas_per_shard


def test_per_shard_memory_budget_enforced(index):
    tiny = CostModel(node_memory_bytes=8, time_limit_seconds=None)
    for cls in (ShardedLabelStore, ReplicatedLabelStore):
        with pytest.raises(OutOfMemoryError):
            cls(index, num_shards=2, cost_model=tiny)


def test_shard_oom_names_the_shard_and_the_numbers(index):
    tiny = CostModel(node_memory_bytes=8, time_limit_seconds=None)
    for cls in (ShardedLabelStore, ReplicatedLabelStore):
        with pytest.raises(ShardOutOfMemoryError) as excinfo:
            cls(index, num_shards=2, cost_model=tiny)
        err = excinfo.value
        # Still catchable as the generic budget error.
        assert isinstance(err, OutOfMemoryError)
        assert err.shard_id in (0, 1)
        assert err.budget_bytes == 8
        assert err.attempted_bytes > err.budget_bytes
        # How the shard got that big: its vertex and entry tallies.
        owner = HashPartitioner(2).node_of
        owned = [v for v in range(index.num_vertices) if owner(v) == err.shard_id]
        assert err.vertices == len(owned)
        assert err.entries == sum(
            len(index.in_labels(v)) + len(index.out_labels(v)) for v in owned
        )
        assert err.attempted_bytes == err.entries * tiny.entry_bytes
        message = str(err)
        assert f"label shard {err.shard_id}" in message
        assert f"{err.attempted_bytes:,}" in message
        assert "the per-shard budget is 8 bytes" in message
        assert "rebalance the partitioner or add shards" in message


def test_cross_shard_fetch_costs_more_than_local(index):
    # Range partitioning puts low ids on shard 0, high ids on shard 1:
    # co-located pairs pay merge cost only, split pairs add the hop.
    n = index.num_vertices
    for store in _stores(index, num_shards=2, partitioner=RangePartitioner(2, n)):
        s, local_t, remote_t = 0, 1, n - 1
        assert store.shard_of(s) == store.shard_of(local_t)
        assert store.shard_of(s) != store.shard_of(remote_t)
        _, local_cost = store.fetch(s, local_t)
        _, remote_cost = store.fetch(s, remote_t)
        extra = remote_cost - local_cost
        merge_delta = (
            abs(len(index.in_labels(remote_t)) - len(index.in_labels(local_t)))
            * _NO_LIMIT.t_op
        )
        assert extra >= _NO_LIMIT.t_hop - merge_delta


def test_load_accounting_and_skew(index):
    loads_by_copies = []
    for store in _stores(index, num_shards=4):
        assert store.load_skew() == 1.0  # no requests yet
        for s, t in random_pairs(index.num_vertices, 500, seed=3):
            store.fetch(s, t)
        loads = store.shard_loads()
        assert sum(loads) >= 500  # every query touches at least the home shard
        assert store.load_skew() >= 1.0
        loads_by_copies.append(loads)
    # A shard's load is summed over its copies, so the copy count does
    # not show in it.
    assert loads_by_copies[0] == loads_by_copies[1]


def test_backend_protocol_and_service_integration(graph, index):
    backend = ShardedIndexBackend(
        ShardedLabelStore(index, num_shards=4, cost_model=_NO_LIMIT)
    )
    oracle = TransitiveClosure(graph)
    for s, t in random_pairs(graph.num_vertices, 100, seed=1):
        answer, seconds = backend.query_with_cost(s, t)
        assert answer == oracle.query(s, t)
        assert seconds > 0
    assert sum(backend.store.shard_loads()) >= 100


def test_store_as_fallback_primary(graph, index):
    # The store plugs into the degradation ladder like any backend.
    primary = ShardedIndexBackend(
        ShardedLabelStore(index, num_shards=4, cost_model=_NO_LIMIT)
    )
    fallback = FallbackBackend(primary, graph, _NO_LIMIT)
    assert not fallback.degraded
    oracle = TransitiveClosure(graph)
    for s, t in random_pairs(graph.num_vertices, 50, seed=9):
        answer, _ = fallback.query_with_cost(s, t)
        assert answer == oracle.query(s, t)


# ----------------------------------------------------------------------
# Vertices the index gains after the store was built
# ----------------------------------------------------------------------
def test_read_of_a_vertex_added_after_construction(graph):
    # Regression: the shard map was sized at construction, so reading a
    # vertex created by add_node raised a bare IndexError, which the
    # pipeline does not catch — one valid read killed the run.
    for replicas in (1, 2):
        leader = DynamicReachabilityIndex(graph)
        replicator = BoundedStalenessReplicator(leader, num_replicas=replicas)
        store = ShardedLabelStore(
            leader, num_shards=4, cost_model=_NO_LIMIT,
            replicas=replicas, policy="round-robin", replicator=replicator,
        )
        server = QueryServer(
            ShardedIndexBackend(store),
            cost_model=_NO_LIMIT,
            on_advance=store.advance,
            mutation_backend=MutationBackend(
                leader, cost_model=_NO_LIMIT, replicator=replicator
            ),
        )
        new = leader.num_vertices
        report = server.run_mixed(
            [(0, new), (0, new), (new, 0)],
            [3e-5, 4e-5, 5e-5],
            [("add_node", -1, -1), ("insert", 0, new)],
            [1e-5, 2e-5],
        )
        assert report.mutations_applied == 2
        assert (report.served, report.failed) == (3, 0)
        assert report.positives == 2  # 0 → new twice; new has no out-edge
        assert store.shard_of(new) == HashPartitioner(4).node_of(new)
        # The second read rotates onto the follower group, long before
        # the delivery delay has passed: a follower that has not heard
        # of the vertex catches up instead of raising.
        assert report.forced_catchups == replicas - 1


def test_vertex_outside_the_index_is_a_typed_error(index):
    n = index.num_vertices
    for store in _stores(index, num_shards=4):
        # A negative id would index from the end: (-2, 3) used to come
        # back with the answer and the cost of (n - 2, 3).
        for s, t in ((n, 0), (0, n), (n + 7, n + 7), (-2, 3), (3, -2), (-n, 0)):
            with pytest.raises(ReproError, match="outside the index"):
                store.fetch(s, t)
        with pytest.raises(ReproError, match="outside the index"):
            store.shard_of(n)
        assert store.shard_loads() == [0, 0, 0, 0]  # nothing was charged


def test_server_lets_the_typed_error_through(index):
    # No layer between a request and the store turns the refusal into an
    # answer: a negative id surfaces like an id past the end.
    store = ShardedLabelStore(index, num_shards=4, cost_model=_NO_LIMIT)
    server = QueryServer(ShardedIndexBackend(store), cost_model=_NO_LIMIT)
    for bad in ((-2, 3), (index.num_vertices, 0)):
        with pytest.raises(ReproError, match="outside the index"):
            server.run_open([(0, 1), bad], [0.0, 1e-6])
