"""Tests for physical (row-delta) replication.

A follower group is a :class:`~repro.serve.replica.LabelTable`: label
rows only.  Each log entry carries the rows its op changed and applying
it swaps those rows in — no follower ever runs label maintenance or
builds an index.  The contract: after ``k`` log entries a follower is
the leader as of version ``k``, whatever mix of delayed delivery,
paused groups and forced catch-ups got it there; and every simulated
figure is what op replay produced.
"""

import json
import random
from pathlib import Path

import pytest

import repro.core.tol
from repro.core.dynamic import DynamicReachabilityIndex
from repro.graph.generators import random_digraph, web_graph
from repro.scenarios import library_scenarios, run_scenario_file
from repro.serve import BoundedStalenessReplicator
from repro.serve.replica import LabelTable
from repro.workloads.updates import mixed_update_stream

_DATA = Path(__file__).parent / "data"


def _stream(leader, count, seed):
    return mixed_update_stream(
        leader.current_graph(), count,
        insert_ratio=0.5, node_ratio=0.2, promote_ratio=0.1, seed=seed,
    )


def _assert_at_version(replicator, versions, r, pairs):
    """Group ``r`` is exactly the leader as of the entries it applied."""
    k = replicator.version - replicator.lag(r)
    view, expected = replicator.view(r), versions[k]
    assert len(view.in_labels) == len(view.out_labels) == expected.num_vertices
    assert view.snapshot() == expected
    n = expected.num_vertices
    for s, t in pairs:
        assert view.query(s % n, t % n) == expected.query(s % n, t % n)


@pytest.mark.parametrize("seed", range(6))
def test_follower_after_k_entries_equals_leader_at_version_k(seed):
    rng = random.Random(seed)
    graph = web_graph(60, seed=seed) if seed % 2 else random_digraph(40, 110, seed=seed)
    leader = DynamicReachabilityIndex(graph)
    replicator = BoundedStalenessReplicator(
        leader, num_replicas=3, delay_seconds=0.004
    )
    versions = [leader.snapshot()]  # versions[k]: the leader after k ops
    leader.subscribe(lambda op, u, v: versions.append(leader.snapshot()))
    pairs = [(rng.randrange(10**6), rng.randrange(10**6)) for _ in range(80)]

    # Group 1 lives through delayed delivery, pauses and forced
    # catch-ups; group 2 stays paused for the whole stream.
    clock = 0.0
    for op, u, v in _stream(leader, 70, seed):
        clock += rng.choice([0.0005, 0.001, 0.003])
        replicator.note_time(clock)
        leader.apply(op, u, v)
        step = rng.random()
        if step < 0.5:
            replicator.advance(clock, {2} if rng.random() < 0.6 else {1, 2})
        elif step < 0.6:
            replicator.catch_up(1)
        for r in (1, 2):
            _assert_at_version(replicator, versions, r, pairs)
    assert len(versions) == replicator.version + 1
    assert replicator.lag(2) == replicator.version > 50
    # Issue times are distinct, so stepping the clock from one delivery
    # horizon to the next walks group 2 through every version k.
    for k, entry in enumerate(replicator.log, start=1):
        replicator.advance(entry.issued_at + replicator.delay_seconds)
        assert replicator.version - replicator.lag(2) == k
        for r in (1, 2):
            _assert_at_version(replicator, versions, r, pairs)
    assert replicator.max_follower_lag() == 0
    leader.check()


def test_log_entries_hold_exactly_the_rows_the_op_changed():
    leader = DynamicReachabilityIndex(web_graph(80, seed=3))
    replicator = BoundedStalenessReplicator(leader, num_replicas=2)
    for op, u, v in _stream(leader, 40, seed=8):
        before = {
            "in": [frozenset(row) for row in leader.in_labels],
            "out": [frozenset(row) for row in leader.out_labels],
        }
        logged = replicator.version
        leader.apply(op, u, v)
        entries = replicator.log[logged:]
        assert len(entries) <= 1  # a promote already at its rank logs nothing
        for old, live, rows in (
            (before["in"], leader.in_labels, [e.in_rows for e in entries]),
            (before["out"], leader.out_labels, [e.out_rows for e in entries]),
        ):
            changed = {
                w: live[w] for w in range(len(live))
                if w >= len(old) or live[w] != old[w]
            }
            assert changed == (rows[0] if rows else {})
    deltas = [len(e.in_rows) + len(e.out_rows) for e in replicator.log]
    # Row deltas, not table copies: far fewer rows than the table has.
    assert max(deltas) < leader.num_vertices
    assert sum(deltas) / len(deltas) < 0.1 * 2 * leader.num_vertices


def test_add_node_grows_follower_tables():
    leader = DynamicReachabilityIndex(random_digraph(12, 30, seed=1))
    replicator = BoundedStalenessReplicator(leader, num_replicas=2)
    follower = replicator.view(1)
    v = leader.add_node()
    leader.insert_edge(0, v)
    assert len(follower.in_labels) == 12  # nothing delivered yet
    replicator.catch_up(1)
    assert len(follower.in_labels) == len(follower.out_labels) == 13
    assert follower.in_labels[v] == leader.in_labels[v]
    assert follower.out_labels[v] == {v}
    assert follower.query(0, v) and not follower.query(v, 0)
    assert follower.snapshot() == leader.snapshot()


def test_follower_built_from_a_leader_with_history_starts_equal(monkeypatch):
    leader = DynamicReachabilityIndex(web_graph(90, seed=6), drift_threshold=8)
    for op, u, v in _stream(leader, 30, seed=2):
        leader.apply(op, u, v)
    calls = []
    monkeypatch.setattr(
        repro.core.tol, "tol_index", lambda *a, **k: calls.append(a)
    )
    replicator = BoundedStalenessReplicator(leader, num_replicas=3)
    assert replicator.version == 0  # history before subscription is not logged
    for r in (1, 2):
        follower = replicator.view(r)
        assert isinstance(follower, LabelTable)
        assert follower.snapshot() == leader.snapshot()
        # Rows only: no graph, no order, no maintenance entry points.
        assert LabelTable.__slots__ == ("in_labels", "out_labels")
        assert not hasattr(follower, "insert_edge")
    for op, u, v in _stream(leader, 30, seed=4):
        leader.apply(op, u, v)
    replicator.advance(1.0)
    assert replicator.view(1).snapshot() == leader.snapshot()
    # Neither building followers nor applying entries builds an index.
    assert calls == []


def _assert_same(got, want, path):
    """Structural equality; floats to 1e-12 so the goldens (written on
    CPython 3.11, where the match is byte for byte) also hold on an
    interpreter whose float ``sum`` rounds differently."""
    if isinstance(want, float):
        assert got == pytest.approx(want, rel=1e-12, abs=0.0), path
    elif isinstance(want, dict):
        assert list(got) == list(want), path
        for key in want:
            _assert_same(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, item in enumerate(want):
            _assert_same(got[i], item, f"{path}[{i}]")
    else:
        assert got == want, path


@pytest.mark.parametrize("name", ["write_storm", "shard_loss_write_burst"])
def test_scenario_report_matches_the_op_replay_golden(name):
    """The golden reports were written by the parent commit, whose
    followers re-ran maintenance per op; physical replication must not
    move a single simulated figure, event, or audit count."""
    result = run_scenario_file(library_scenarios()[name])
    golden = json.loads((_DATA / f"scenario-{name}.json").read_text())
    _assert_same(json.loads(json.dumps(result.to_dict())), golden, name)
    assert result.incorrect_answers == 0
