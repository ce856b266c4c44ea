"""Tests for the serving-tier fault plan and the timeline that fires it."""

import pytest

from repro.core.build import build_index
from repro.graph.generators import random_dag
from repro.pregel.cost_model import CostModel
from repro.serve import (
    ReplicaCrash,
    ReplicaRecovery,
    ReplicaSlow,
    ReplicatedLabelStore,
    ServeFaultPlan,
    ServeFaultSpecError,
    Timeline,
)
from repro.telemetry import session
from repro.telemetry.sinks import InMemorySink

_NO_LIMIT = CostModel(time_limit_seconds=None)


def test_parse_round_trips_through_to_spec():
    spec = "crash=0.1@0.002,slow=1.0x6@0.001:0.004,recover=0.1@0.005"
    plan = ServeFaultPlan.parse(spec)
    assert len(plan.crashes) == 1
    assert plan.crashes[0] == ReplicaCrash(0, 1, 0.002)
    assert plan.slowdowns[0] == ReplicaSlow(1, 0, 6.0, 0.001, 0.004)
    assert plan.recoveries[0] == ReplicaRecovery(0, 1, 0.005)
    assert ServeFaultPlan.parse(plan.to_spec()) == plan


def test_parse_open_ended_slowdown():
    plan = ServeFaultPlan.parse("slow=2.1x3@0.01")
    assert plan.slowdowns[0].until_seconds is None
    assert ServeFaultPlan.parse(plan.to_spec()) == plan


def test_empty_spec_is_empty_plan():
    plan = ServeFaultPlan.parse("")
    assert plan.empty
    assert plan.to_spec() == ""


@pytest.mark.parametrize(
    "spec",
    [
        "crash",                # no '='
        "crash=0@0.1",          # target missing replica part
        "explode=0.0@0.1",      # unknown clause
        "slow=0.0@0.1",         # missing xFACTOR
        "slow=0.0x@0.1",        # unparsable factor
        "crash=0.0@nope",       # unparsable time
    ],
)
def test_malformed_specs_rejected(spec):
    with pytest.raises(ServeFaultSpecError):
        ServeFaultPlan.parse(spec)


def test_plan_consistency_validation():
    with pytest.raises(ValueError, match="more than once"):
        ServeFaultPlan(crashes=(
            ReplicaCrash(0, 0, 0.1), ReplicaCrash(0, 0, 0.2),
        ))
    with pytest.raises(ValueError, match="never crashes"):
        ServeFaultPlan(recoveries=(ReplicaRecovery(0, 0, 0.1),))
    with pytest.raises(ValueError, match="before it crashes"):
        ServeFaultPlan(
            crashes=(ReplicaCrash(0, 0, 0.2),),
            recoveries=(ReplicaRecovery(0, 0, 0.1),),
        )


def test_validate_for_checks_layout():
    plan = ServeFaultPlan.parse("crash=3.1@0.1")
    plan.validate_for(num_shards=4, replicas=2)
    with pytest.raises(ValueError, match="shard 3"):
        plan.validate_for(num_shards=2, replicas=2)
    with pytest.raises(ValueError, match="replica 1"):
        plan.validate_for(num_shards=4, replicas=1)


def test_event_field_validation():
    with pytest.raises(ValueError):
        ReplicaCrash(-1, 0, 0.1)
    with pytest.raises(ValueError):
        ReplicaCrash(0, 0, -0.1)
    with pytest.raises(ValueError):
        ReplicaSlow(0, 0, 0.0, 0.1)  # factor must be positive
    with pytest.raises(ValueError):
        ReplicaSlow(0, 0, 2.0, 0.2, 0.1)  # until before start


@pytest.fixture()
def store():
    graph = random_dag(80, 200, seed=17)
    index = build_index(graph, cost_model=_NO_LIMIT).index
    return ReplicatedLabelStore(
        index, num_shards=2, cost_model=_NO_LIMIT, replicas=2
    )


def _scheduled(spec, store):
    timeline = Timeline(store.advance)
    ServeFaultPlan.parse(spec).schedule(timeline, store)
    return timeline


def test_injector_fires_events_in_clock_order(store):
    timeline = _scheduled(
        "crash=0.0@0.002,slow=1.1x4@0.001:0.003,recover=0.0@0.004", store
    )
    # slow start, crash, slow reset (scheduled by the slow's end), recover
    assert timeline.pending == 4

    assert timeline.advance(0.001) == 1
    assert store.replica_sets[1].replicas[1].slowdown == 4.0

    assert timeline.advance(0.002) == 1
    assert not store.replica_sets[0].replicas[0].alive

    assert timeline.advance(0.003) == 1
    assert store.replica_sets[1].replicas[1].slowdown == 1.0

    assert timeline.advance(0.004) == 1
    assert store.replica_sets[0].replicas[0].alive
    assert timeline.pending == 0

    names = [e["event"] for e in store.events]
    assert names[:2] == ["serve.replica_slow", "serve.replica_crash"]


def test_injector_catches_up_after_a_gap(store):
    timeline = _scheduled("crash=0.0@0.001,recover=0.0@0.002", store)
    # One big clock jump applies everything that became due, each
    # stamped with its own instant.
    assert timeline.advance(1.0) == 2
    assert store.replica_sets[0].replicas[0].alive
    assert [e["at"] for e in store.events[:2]] == [0.001, 0.002]
    assert timeline.pending == 0
    # Fires once: nothing is left when the clock moves on.
    assert timeline.advance(2.0) == 0


def test_injector_advances_store_clock(store):
    # An empty plan only ticks the store.
    timeline = _scheduled("", store)
    assert timeline.pending == 0
    assert timeline.advance(0.25) == 0
    assert store.clock == 0.25
    assert store.events == []


def test_same_instant_entries_fire_in_instant_then_insertion_order(store):
    # Plan order (crashes, slowdowns, recoveries) breaks ties between
    # fault events; anything scheduled before the plan goes first.
    fired = []
    timeline = Timeline(lambda clock: fired.append(("tick", clock)))
    timeline.at(0.002, lambda at: fired.append(("write", at)))

    class Fired(InMemorySink):
        def on_event(self, event):
            fired.append((event.name, event.attrs["at"]))

    plan = ServeFaultPlan.parse("slow=1.1x4@0.002,crash=0.0@0.002,slow=0.1x2@0.001")
    plan.schedule(timeline, store)
    with session([Fired()]):
        assert timeline.advance(0.002) == 4
    assert fired == [
        ("serve.replica_slow", 0.001),
        ("write", 0.002),
        ("serve.replica_crash", 0.002),
        ("serve.replica_slow", 0.002),
        ("tick", 0.002),
    ]


def test_schedule_validates_the_plan_against_the_store(store):
    with pytest.raises(ValueError, match="shard 3"):
        _scheduled("crash=3.0@0.1", store)
