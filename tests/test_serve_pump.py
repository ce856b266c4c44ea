"""The store's per-batch pump against the full sweep it short-cuts.

``ShardedLabelStore.advance`` returns early when nothing can be due;
``SweepEveryBatchStore`` keeps the sweep-every-batch body it replaced,
verbatim, as the reference.  On the same inputs both must serve the
same report, log the same events, emit the same ``replica.lag``
samples and leave the followers with the same rows.  The scenario
literals were read off the sweep-every-batch store.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dynamic import DynamicReachabilityIndex
from repro.graph.generators import random_dag
from repro.pregel.cost_model import CostModel
from repro.scenarios import library_scenarios, load_scenario, run_scenario
from repro.serve import (
    READ_POLICIES,
    BoundedStalenessReplicator,
    MutationBackend,
    QueryServer,
    ReplicatedLabelStore,
    ShardedIndexBackend,
)
from repro.serve.faults import (
    ReplicaCrash,
    ReplicaRecovery,
    ReplicaSlow,
    ServeFaultPlan,
    Timeline,
)
from repro.telemetry import attached
from repro.telemetry.sinks import InMemorySink
from repro.workloads.traffic import poisson_arrivals, zipf_pairs
from repro.workloads.updates import update_stream

_NO_LIMIT = CostModel(time_limit_seconds=None)
_SHARDS = 2


class SweepEveryBatchStore(ReplicatedLabelStore):
    """The pump before the early return: every batch rebuilds the paused
    set, offers delivery, samples lag and sweeps every replica."""

    def advance(self, clock: float) -> None:
        self.clock = clock
        if self.replicator is not None:
            paused = {
                r
                for r in range(1, self.replicas_per_shard)
                if any(not rs.replicas[r].alive for rs in self.replica_sets)
            }
            self.replicator.advance(clock, paused)
            self._sample_lag(clock)
        for rs in self.replica_sets:
            for state in rs.replicas:
                if not state.alive and not state.suspected:
                    state.probe_failures += 1
                    if state.probe_failures >= self.health.failure_threshold:
                        self._suspect(state)
                elif state.alive and state.suspected:
                    state.suspected = False
                    state.probe_failures = 0
                    self._note_recovery()
                    if self.replicator is not None:
                        self.replicator.catch_up(state.replica_id)
                    self._record(
                        "serve.replica_up",
                        clock,
                        shard=state.shard_id,
                        replica=state.replica_id,
                    )


def _serve(store_type, case):
    """One run of ``case`` on a fresh stack built around ``store_type``."""
    graph = random_dag(60, 150, seed=case["graph_seed"])
    leader = DynamicReachabilityIndex(graph)
    replicator = BoundedStalenessReplicator(
        leader,
        case["replicas"],
        delay_seconds=case["delay"],
        max_lag=case["max_lag"],
    )
    store = store_type(
        leader,
        num_shards=_SHARDS,
        cost_model=_NO_LIMIT,
        replicas=case["replicas"],
        policy=case["policy"],
        replicator=replicator,
    )
    timeline = Timeline(store.advance)
    case["faults"].schedule(timeline, store)
    pairs = zipf_pairs(graph.num_vertices, 400, seed=case["graph_seed"])
    arrivals = poisson_arrivals(len(pairs), 150_000.0, seed=3)
    writes = update_stream(graph, case["writes"], seed=case["graph_seed"])
    write_arrivals = poisson_arrivals(len(writes), case["write_rate"], seed=4)
    mutation_backend = None
    if case["direct"]:
        # Leader writes fire from the timeline, as the scenario runner's
        # ``via: direct`` bursts do.
        def write(op, at):
            replicator.note_time(at)
            leader.apply(*op)

        for at, op in zip(write_arrivals, writes):
            timeline.at(at, write, op)
    else:
        mutation_backend = MutationBackend(leader, replicator=replicator)
    server = QueryServer(
        ShardedIndexBackend(store),
        batch_size=case["batch_size"],
        request_tracing=False,
        on_advance=timeline.advance,
        mutation_backend=mutation_backend,
    )
    sink = InMemorySink()
    with attached(sink):
        if case["direct"]:
            report = server.run_open(pairs, arrivals)
        else:
            report = server.run_mixed(pairs, arrivals, writes, write_arrivals)
    lag_samples = [
        event.attrs for event in sink.events if event.name == "replica.lag"
    ]
    rows = [
        (replicator.view(r).in_labels, replicator.view(r).out_labels)
        for r in range(1, case["replicas"])
    ]
    return report, store.events, lag_samples, rows


@st.composite
def fault_plans(draw, replicas: int) -> ServeFaultPlan:
    """Crash / slow / recover schedules inside the run's first 3 ms."""
    at = st.floats(min_value=0.0, max_value=3e-3)
    shard = st.integers(0, _SHARDS - 1)
    replica = st.integers(0, replicas - 1)
    crashes, recoveries, slowdowns = [], [], []
    for key in draw(st.sets(st.tuples(shard, replica), max_size=2)):
        crashed_at = draw(at)
        crashes.append(ReplicaCrash(*key, crashed_at))
        if draw(st.booleans()):
            back = crashed_at + draw(st.floats(min_value=1e-5, max_value=2e-3))
            recoveries.append(ReplicaRecovery(*key, back))
    if draw(st.booleans()):
        start = draw(at)
        slowdowns.append(
            ReplicaSlow(
                draw(shard), draw(replica), draw(st.sampled_from([2.0, 8.0])),
                start, start + draw(st.floats(min_value=1e-5, max_value=2e-3)),
            )
        )
    return ServeFaultPlan(tuple(crashes), tuple(slowdowns), tuple(recoveries))


@st.composite
def cases(draw) -> dict:
    replicas = draw(st.integers(1, 3))
    return {
        "graph_seed": draw(st.integers(0, 50)),
        "replicas": replicas,
        "delay": draw(st.sampled_from([0.0, 1e-3, 2e-3])),
        "max_lag": draw(st.sampled_from([1, 4, 64])),
        "policy": draw(st.sampled_from(READ_POLICIES)),
        "writes": draw(st.integers(0, 40)),
        "write_rate": draw(st.sampled_from([2_000.0, 20_000.0, 200_000.0])),
        "batch_size": draw(st.sampled_from([1, 8, 32])),
        "direct": draw(st.booleans()),
        "faults": draw(fault_plans(replicas)),
    }


@settings(max_examples=40, deadline=None)
@given(cases())
def test_early_return_serves_what_the_full_sweep_serves(case):
    report, events, lag_samples, rows = _serve(ReplicatedLabelStore, case)
    ref_report, ref_events, ref_lag_samples, ref_rows = _serve(
        SweepEveryBatchStore, case
    )
    assert report == ref_report
    assert events == ref_events
    assert lag_samples == ref_lag_samples
    assert rows == ref_rows


@pytest.mark.parametrize(
    "name, samples, peak, failovers, confirmed, stale",
    [
        ("write_storm", 46, 24, 0, 0, 0),
        ("shard_loss_write_burst", 8, 4, 1, 723, 115),
    ],
)
def test_scenario_lag_samples_are_pinned(
    name, samples, peak, failovers, confirmed, stale
):
    sink = InMemorySink()
    with attached(sink):
        result = run_scenario(load_scenario(library_scenarios()[name]))
    lags = [e.attrs["lag"] for e in sink.events if e.name == "replica.lag"]
    assert (len(lags), max(lags)) == (samples, peak)
    failover_events = [e for e in sink.events if e.name == "serve.failover"]
    assert len(failover_events) == result.report.failovers == failovers
    assert result.report.confirmed_reads == confirmed
    assert result.report.stale_reads == stale
