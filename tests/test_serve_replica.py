"""Tests for the replicated label store: routing, failover, staleness."""

import pytest

from repro.baselines.transitive_closure import TransitiveClosure
from repro.core.build import build_index
from repro.core.dynamic import DynamicReachabilityIndex
from repro.errors import ShardOutOfMemoryError, ShardUnavailableError
from repro.graph.generators import random_dag, social_graph
from repro.pregel.cost_model import CostModel
from repro.serve import (
    BoundedStalenessReplicator,
    ReplicatedLabelStore,
    READ_POLICIES,
)
from repro.serve.store import (
    FAILURE_THRESHOLD,
    READ_BACKOFF_SECONDS,
    READ_TIMEOUT_SECONDS,
)
from repro.telemetry import session
from repro.telemetry.sinks import InMemorySink
from repro.workloads.queries import random_pairs
from repro.workloads.updates import mixed_update_stream

_NO_LIMIT = CostModel(time_limit_seconds=None)


@pytest.fixture(scope="module")
def graph():
    return social_graph(200, seed=7)


@pytest.fixture(scope="module")
def index(graph):
    return build_index(graph, cost_model=_NO_LIMIT).index


@pytest.mark.parametrize("policy", READ_POLICIES)
def test_every_policy_matches_oracle(graph, index, policy):
    oracle = TransitiveClosure(graph)
    store = ReplicatedLabelStore(
        index, num_shards=4, cost_model=_NO_LIMIT, replicas=3, policy=policy
    )
    for s, t in random_pairs(graph.num_vertices, 200, seed=13):
        answer, seconds = store.fetch(s, t)
        assert answer == oracle.query(s, t)
        assert seconds > 0


def test_unknown_policy_and_replica_count_rejected(index):
    with pytest.raises(ValueError, match="policy"):
        ReplicatedLabelStore(index, num_shards=2, cost_model=_NO_LIMIT, policy="nope")
    with pytest.raises(ValueError, match="replica"):
        ReplicatedLabelStore(index, num_shards=2, cost_model=_NO_LIMIT, replicas=0)


def test_memory_accounts_for_every_copy(index):
    store = ReplicatedLabelStore(
        index, num_shards=4, cost_model=_NO_LIMIT, replicas=3
    )
    assert store.total_memory_bytes() == sum(store.memory_bytes()) * 3
    assert sum(store.memory_bytes()) == index.size_bytes(_NO_LIMIT.entry_bytes)


def test_per_shard_budget_applies_to_one_copy(index):
    tiny = CostModel(node_memory_bytes=8, time_limit_seconds=None)
    with pytest.raises(ShardOutOfMemoryError) as excinfo:
        ReplicatedLabelStore(index, num_shards=2, cost_model=tiny, replicas=2)
    assert excinfo.value.budget_bytes == 8


def test_round_robin_spreads_load_across_replicas(graph, index):
    store = ReplicatedLabelStore(
        index, num_shards=2, cost_model=_NO_LIMIT, replicas=2, policy="round-robin"
    )
    for s, t in random_pairs(graph.num_vertices, 400, seed=3):
        store.fetch(s, t)
    for rs in store.replica_sets:
        counts = [r.requests for r in rs.replicas]
        assert min(counts) > 0
        # Rotation keeps the split near even.
        assert max(counts) <= 2 * min(counts)


def test_primary_policy_concentrates_on_replica_zero(graph, index):
    store = ReplicatedLabelStore(
        index, num_shards=2, cost_model=_NO_LIMIT, replicas=2, policy="primary"
    )
    for s, t in random_pairs(graph.num_vertices, 100, seed=4):
        store.fetch(s, t)
    for rs in store.replica_sets:
        assert rs.replicas[1].requests == 0


def test_crash_timeouts_then_failover_then_recovery(graph, index):
    store = ReplicatedLabelStore(
        index, num_shards=2, cost_model=_NO_LIMIT, replicas=2, policy="primary"
    )
    oracle = TransitiveClosure(graph)
    victims = [v for v in range(graph.num_vertices) if store.shard_of(v) == 0]
    s = victims[0]

    store.crash_replica(0, 0, at=0.001)
    # First read on the dead primary: timeout penalty, correct answer
    # via the surviving replica.
    answer, slow_seconds = store.fetch(s, s + 1 if s + 1 < graph.num_vertices else 0)
    assert answer == oracle.query(s, s + 1 if s + 1 < graph.num_vertices else 0)
    assert slow_seconds >= READ_TIMEOUT_SECONDS
    assert store.replica_sets[0].replicas[0].timeouts == 1

    # Second timeout reaches the threshold: suspicion plus failover.
    store.fetch(s, victims[-1])
    names = [e["event"] for e in store.events]
    assert "serve.replica_suspected" in names
    assert "serve.failover" in names
    assert store.replica_sets[0].primary == 1
    assert store.replica_stats()["failovers"] == 1

    # Suspected replicas are skipped for free.
    _, fast_seconds = store.fetch(s, victims[-1])
    assert fast_seconds < slow_seconds

    # Recovery: the next probe sweep clears suspicion and logs rejoin.
    store.recover_replica(0, 0, at=0.002)
    store.advance(0.003)
    assert [e["event"] for e in store.events].count("serve.replica_up") == 1
    assert not store.replica_sets[0].replicas[0].suspected


def test_probe_sweep_detects_crash_without_traffic(index):
    store = ReplicatedLabelStore(
        index, num_shards=2, cost_model=_NO_LIMIT, replicas=2
    )
    store.crash_replica(1, 0, at=0.0)
    store.advance(0.001)
    assert not store.replica_sets[1].replicas[0].suspected
    store.advance(0.002)
    assert store.replica_sets[1].replicas[0].suspected
    assert store.replica_sets[1].primary == 1


def test_all_replicas_down_raises_unavailable(graph, index):
    store = ReplicatedLabelStore(
        index, num_shards=2, cost_model=_NO_LIMIT, replicas=2
    )
    store.crash_replica(0, 0)
    store.crash_replica(0, 1)
    s = next(v for v in range(graph.num_vertices) if store.shard_of(v) == 0)
    # Each copy fails its first read, one short of FAILURE_THRESHOLD:
    # neither is suspected yet, and the fetch still has nowhere to go.
    assert FAILURE_THRESHOLD == 2
    with pytest.raises(ShardUnavailableError) as excinfo:
        store.fetch(s, s)
    assert excinfo.value.shard_id == 0
    assert not any(r.suspected for r in store.replica_sets[0].replicas)
    # The wasted timeout cost rides on the error for the pipeline:
    # two timeouts, backed off once and then twice as long.
    assert excinfo.value.seconds == pytest.approx(
        2 * READ_TIMEOUT_SECONDS + 3 * READ_BACKOFF_SECONDS
    )


def test_hedged_reads_route_around_a_straggler(graph, index):
    store = ReplicatedLabelStore(
        index, num_shards=2, cost_model=_NO_LIMIT, replicas=2, policy="hedged"
    )
    for shard in range(2):
        store.set_replica_slowdown(shard, 0, 25.0)
    for s, t in random_pairs(graph.num_vertices, 200, seed=9):
        store.fetch(s, t)
    stats = store.replica_stats()
    assert stats["hedges_won"] > 0
    won = [rs.replicas[1].hedges_won for rs in store.replica_sets]
    slow_won = [rs.replicas[0].hedges_won for rs in store.replica_sets]
    assert sum(won) > sum(slow_won)


def test_a_hedge_answers_from_the_copy_that_won(graph):
    # The leader's copy wins every race against a slowed, lagging
    # follower, so no read goes through the staleness guard: an answer
    # taken from the losing copy would be the follower's stale one.
    leader = DynamicReachabilityIndex(graph)
    replicator = BoundedStalenessReplicator(leader, 2, delay_seconds=1.0)
    store = ReplicatedLabelStore(
        leader, num_shards=2, cost_model=_NO_LIMIT, policy="hedged",
        replicator=replicator,
    )
    for shard in range(2):
        store.set_replica_slowdown(shard, 1, 25.0)
    for op in mixed_update_stream(graph, 40, insert_ratio=1.0, seed=3):
        leader.apply(*op)
    pairs = random_pairs(graph.num_vertices, 300, seed=4)
    follower = replicator.view(1)
    assert any(leader.query(s, t) != follower.query(s, t) for s, t in pairs)
    for s, t in pairs:
        assert store.fetch(s, t)[0] == leader.query(s, t)
    assert store.replica_stats()["hedges_won"] == len(pairs)
    assert (store.stale_reads, store.confirmed_reads) == (0, 0)


# ----------------------------------------------------------------------
# Bounded-staleness replication
# ----------------------------------------------------------------------

def _replicated_dynamic(n=120, seed=21, replicas=2, **kwargs):
    graph = random_dag(n, 3 * n, seed=seed)
    leader = DynamicReachabilityIndex(graph)
    replicator = BoundedStalenessReplicator(leader, replicas, **kwargs)
    store = ReplicatedLabelStore(
        leader, num_shards=2, cost_model=_NO_LIMIT,
        replicas=replicas, policy="round-robin", replicator=replicator,
    )
    return graph, leader, replicator, store


def test_replicator_store_mismatches_rejected():
    graph = random_dag(50, 120, seed=1)
    leader = DynamicReachabilityIndex(graph)
    replicator = BoundedStalenessReplicator(leader, 3)
    with pytest.raises(ValueError, match="replica"):
        ReplicatedLabelStore(
            leader, num_shards=2, cost_model=_NO_LIMIT,
            replicas=2, replicator=replicator,
        )
    other = DynamicReachabilityIndex(random_dag(50, 120, seed=2))
    with pytest.raises(ValueError, match="leader"):
        ReplicatedLabelStore(
            other, num_shards=2, cost_model=_NO_LIMIT,
            replicas=3, replicator=replicator,
        )


@pytest.mark.parametrize(
    "name, value",
    [
        ("delay_seconds", float("nan")),
        ("delay_seconds", float("inf")),
        ("delay_seconds", -1e-3),
        ("apply_seconds_per_op", float("nan")),
        ("apply_seconds_per_op", -1.0),
        ("max_lag", float("nan")),
        ("max_lag", 0),
        ("num_replicas", 2.0),
    ],
)
def test_replicator_settings_are_checked(name, value):
    # A NaN delay compares false with every clock: nothing was ever
    # delivered, and the pump's next-delivery instant assumes a number.
    leader = DynamicReachabilityIndex(random_dag(20, 40, seed=1))
    with pytest.raises(ValueError, match=name):
        BoundedStalenessReplicator(leader, **{"num_replicas": 2, name: value})


def test_follower_lag_and_delivery():
    _, leader, replicator, _ = _replicated_dynamic(delay_seconds=1e-3)
    replicator.note_time(0.0)
    stream = mixed_update_stream(leader.current_graph(), 5, seed=3)
    for op, u, v in stream:
        (leader.insert_edge if op == "insert" else leader.delete_edge)(u, v)
    assert replicator.version == 5
    assert replicator.lag(1) == 5
    assert replicator.lag(0) == 0  # the leader group is never stale
    replicator.advance(0.5e-3)  # before the delivery horizon
    assert replicator.lag(1) == 5
    replicator.advance(2e-3)
    assert replicator.lag(1) == 0


def test_stale_follower_never_contradicts_leader():
    graph, leader, replicator, store = _replicated_dynamic(
        delay_seconds=1e9,  # followers never hear about updates
    )
    # Insert-only backlog: stale True answers cannot be wrong
    # (monotonicity), stale False answers must be confirmed.
    stream = mixed_update_stream(graph, 30, insert_ratio=1.0, seed=5)
    for op, u, v in stream:
        (leader.insert_edge if op == "insert" else leader.delete_edge)(u, v)
    oracle = TransitiveClosure(leader.current_graph())
    for s, t in random_pairs(graph.num_vertices, 300, seed=6):
        answer, _ = store.fetch(s, t)
        assert answer == oracle.query(s, t)
    stats = store.replica_stats()
    # Both guard paths fired: flippable answers were confirmed with the
    # leader, unflippable ones served stale for free.
    assert stats["confirmed_reads"] > 0
    assert stats["stale_reads"] > 0


def test_lag_beyond_bound_forces_catchup():
    graph, leader, replicator, store = _replicated_dynamic(
        delay_seconds=1e9, max_lag=4,
    )
    for op, u, v in mixed_update_stream(graph, 10, seed=8):
        (leader.insert_edge if op == "insert" else leader.delete_edge)(u, v)
    assert replicator.lag(1) == 10
    # Drive reads until one lands on the follower group.
    for s, t in random_pairs(graph.num_vertices, 10, seed=9):
        store.fetch(s, t)
    stats = store.replica_stats()
    assert stats["forced_catchups"] >= 1
    assert replicator.lag(1) == 0
    assert replicator.catchup_ops == 10


def test_dead_member_pauses_group_then_catches_up_on_rejoin():
    graph, leader, replicator, store = _replicated_dynamic(
        delay_seconds=0.0,
        replicas=2,
    )
    store.crash_replica(0, 1)
    replicator.note_time(0.0)
    for op, u, v in mixed_update_stream(graph, 6, seed=11):
        (leader.insert_edge if op == "insert" else leader.delete_edge)(u, v)
    store.advance(1.0)  # delivery runs, but group 1 is paused
    assert replicator.lag(1) == 6
    store.advance(2.0)  # suspicion lands (threshold 2)
    store.recover_replica(0, 1, at=3.0)
    store.advance(3.0)  # rejoin: suspicion cleared, debt settled
    assert replicator.lag(1) == 0
    oracle = TransitiveClosure(leader.current_graph())
    for s, t in random_pairs(graph.num_vertices, 100, seed=12):
        answer, _ = store.fetch(s, t)
        assert answer == oracle.query(s, t)


def test_replica_stats_keys_are_stable():
    _, _, _, store = _replicated_dynamic()
    stats = store.replica_stats()
    assert set(stats) == {
        "failovers", "replica_timeouts", "hedges_won", "stale_reads",
        "confirmed_reads", "forced_catchups", "replication_lag",
        "replicas_down",
    }


def test_failover_event_carries_timestamp_and_log_version():
    # A trace orders failovers against replicator deliveries, so the
    # event must say *when* it happened on the simulated clock and
    # *which* update-log version the shard was at.
    graph, leader, replicator, store = _replicated_dynamic(
        delay_seconds=0.0,
    )
    sink = InMemorySink()
    replicator.note_time(0.0)
    for op, u, v in mixed_update_stream(graph, 4, seed=13):
        (leader.insert_edge if op == "insert" else leader.delete_edge)(u, v)
    assert replicator.version == 4

    with session([sink]):
        store.crash_replica(0, 0, at=0.001)
        store.advance(0.002)  # first probe failure
        store.advance(0.003)  # threshold: suspicion plus failover

    failovers = [e for e in store.events if e["event"] == "serve.failover"]
    assert len(failovers) == 1
    event = failovers[0]
    assert event["at"] == 0.003
    assert event["version"] == 4  # every applied update preceded it
    assert event["shard"] == 0
    assert event["from_replica"] == 0
    # The stream carried what the event log keeps, emitted once.
    (streamed,) = [e for e in sink.events if e.name == "serve.failover"]
    assert {"event": streamed.name, **streamed.attrs} == event


def test_lag_samples_reach_listeners_but_not_the_event_log():
    graph, leader, replicator, store = _replicated_dynamic(
        delay_seconds=1e-3,
    )
    sink = InMemorySink()

    def lag_samples():
        return [e.attrs for e in sink.events if e.name == "replica.lag"]

    replicator.note_time(0.0)
    for op, u, v in mixed_update_stream(graph, 5, seed=14):
        (leader.insert_edge if op == "insert" else leader.delete_edge)(u, v)
    with session([sink]):
        store.advance(1e-4)  # before delivery: follower group 1 lags by 5

        samples = lag_samples()
        assert samples, "no replica.lag sample reached the sink"
        assert samples[-1]["lag"] == 5
        assert samples[-1]["groups"] == {"1": 5}
        assert samples[-1]["version"] == 5
        assert samples[-1]["at"] == 1e-4
        # The sample stream is telemetry, not lifecycle: the event log
        # the scenario reports aggregate stays failover/crash/recovery
        # only.
        assert all(e["event"] != "replica.lag" for e in store.events)

        store.advance(2e-3)  # delivery horizon passed: lag drains to zero
        assert lag_samples()[-1]["lag"] == 0
