"""The batched message plane: fan-out calls and barrier-time routing.

A reference program floods the way programs did before the fan-out call
existed — ``ctx.charge(); ctx.send(x, payload)`` per neighbour — and a
twin floods with ``ctx.send_to_out_neighbors`` / ``send_to_in_neighbors``.
Everything the engines account must be identical between the two: on
every fuzz family, with and without the combiner, through a crash and a
checkpoint replay, and on the multiprocessing engine at any worker
count and barrier arrival order.  A second group recounts the routing
counters by brute force from (sender node, destination node) pairs.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TimeLimitExceeded
from repro.faults import FaultPlan
from repro.fuzz.cases import FAMILIES, family_graph
from repro.graph.digraph import DiGraph
from repro.graph.partition import (
    PARTITIONER_STRATEGIES,
    Routing,
    node_assignment,
)
from repro.pregel.cost_model import CostModel
from repro.pregel.engine import Cluster
from repro.pregel.mp import MultiprocessEngine
from repro.pregel.vertex_program import VertexProgram

from tests.conftest import digraphs

FORWARD, REVERSE = 0, 1
NO_LIMIT = CostModel(time_limit_seconds=None)


class PerDestinationFlood(VertexProgram):
    """Every source floods its id both ways; one ``send`` per neighbour."""

    mp_supported = True

    def __init__(self, graph: DiGraph, sources=None, combine: bool = False):
        self.combine_duplicates = combine
        self._graph = graph
        self._sources = sources
        self.seen = [(set(), set()) for _ in graph.vertices()]

    def initial_vertices(self, graph):
        return graph.vertices() if self._sources is None else self._sources

    def compute(self, ctx, w, messages):
        if ctx.superstep == 1:
            ctx.charge()
            for direction in (FORWARD, REVERSE):
                self.seen[w][direction].add(w)
                self.forward(ctx, w, (w, direction))
            return
        for message in messages:
            source, direction = message
            if source not in self.seen[w][direction]:
                self.seen[w][direction].add(source)
                self.forward(ctx, w, message)

    def forward(self, ctx, w, message):
        graph = self._graph
        neighbors = (
            graph.out_neighbors(w)
            if message[1] == FORWARD
            else graph.in_neighbors(w)
        )
        for x in neighbors:
            ctx.charge()
            ctx.send(x, message)

    def mp_collect(self, vertices):
        return [(w, self.seen[w]) for w in vertices]

    def mp_merge(self, collected):
        for w, seen in collected:
            self.seen[w] = seen


class FanOutFlood(PerDestinationFlood):
    """The same flood through the fan-out calls."""

    def forward(self, ctx, w, message):
        if message[1] == FORWARD:
            ctx.send_to_out_neighbors(message)
        else:
            ctx.send_to_in_neighbors(message)


def accounted(stats, timeline: bool = True) -> dict:
    """Every simulated number of a run (the wall clock is not one)."""
    fields = dataclasses.asdict(stats)
    del fields["wall_seconds"]
    if not timeline:  # the mp engine's slices are measured, not modelled
        del fields["node_timeline"]
    fields["simulated_seconds"] = stats.simulated_seconds
    return fields


def run(program, graph, **cluster) -> tuple[list, dict]:
    cluster.setdefault("num_nodes", 4)
    timeline = "engine" not in cluster
    stats = Cluster(cost_model=NO_LIMIT, **cluster).run(
        graph, program, trace=True, node_timeline=True
    )
    return program.seen, accounted(stats, timeline)


# ----------------------------------------------------------------------
# Fan-out == the per-destination loop it replaced
# ----------------------------------------------------------------------
@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("combine", [False, True])
def test_fan_out_accounts_like_per_destination_sends(family, combine):
    graph = family_graph(family, 40, 1302)
    want = run(PerDestinationFlood(graph, combine=combine), graph)
    got = run(FanOutFlood(graph, combine=combine), graph)
    assert got == want
    assert want[1]["trace"] and want[1]["node_timeline"]["slices"]


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("combine", [False, True])
def test_fan_out_survives_crash_and_checkpoint_replay(family, combine):
    """The checkpoint deep-copies the pending inbox, whose buckets share
    one payload object per fan-out; the replay must not notice."""
    graph = family_graph(family, 40, 1302)
    clean = run(FanOutFlood(graph, combine=combine), graph)
    faulty = dict(
        faults=FaultPlan.parse("crash=1@4,crash=2@5,seed=3"),
        checkpoint_interval=2,
    )
    want = run(PerDestinationFlood(graph, combine=combine), graph, **faulty)
    got = run(FanOutFlood(graph, combine=combine), graph, **faulty)
    assert got == want
    assert got[0] == clean[0]
    assert got[1]["crashes"] >= 1 and got[1]["checkpoints"] >= 1
    assert got[1]["recovery_seconds"] > 0.0
    if not combine:
        # Committed work only.  The crash moves vertices, which changes
        # the local/remote split (and what a per-node combiner merges).
        assert got[1]["compute_units"] == clean[1]["compute_units"]
        assert (
            got[1]["local_messages"] + got[1]["remote_messages"]
            == clean[1]["local_messages"] + clean[1]["remote_messages"]
        )


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_fan_out_on_the_mp_engine(family, workers):
    graph = family_graph(family, 40, 1302)
    for combine in (False, True):
        seen, stats = run(PerDestinationFlood(graph, combine=combine), graph)
        del stats["node_timeline"]
        for arrival_seed in (None, 5, 11):
            engine = MultiprocessEngine(workers=workers, arrival_seed=arrival_seed)
            got = run(FanOutFlood(graph, combine=combine), graph, engine=engine)
            assert got == (seen, stats)


def test_initial_vertices_bound_superstep_one_on_both_engines():
    graph = family_graph("power-law", 40, 7)
    sources = [3, 17, 29]

    class Counting(FanOutFlood):
        calls = 0

        def compute(self, ctx, w, messages):
            if ctx.superstep == 1:
                type(self).calls += 1
                assert w in sources
            super().compute(ctx, w, messages)

    everyone = run(FanOutFlood(graph), graph)
    seen, stats = run(Counting(graph, sources), graph)
    assert Counting.calls == len(sources)
    # The super-step still reports every vertex active, as it always has.
    assert stats["trace"][0]["active_vertices"] == graph.num_vertices
    assert stats["compute_units"] < everyone[1]["compute_units"]
    mp = run(
        FanOutFlood(graph, sources), graph,
        engine=MultiprocessEngine(workers=2),
    )
    del stats["node_timeline"]
    assert mp == (seen, stats)


# ----------------------------------------------------------------------
# Routing counters == a brute-force recount from (sender, destination)
# ----------------------------------------------------------------------
class LoggedSends(VertexProgram):
    """Floods for a few super-steps through a mix of the three calls and
    logs every message it hands to the context."""

    def __init__(self, graph: DiGraph, hops: int, combine: bool):
        self.combine_duplicates = combine
        self._graph = graph
        self._hops = hops
        self.log: dict[int, list[tuple[int, int, object]]] = {}

    def compute(self, ctx, v, messages):
        if ctx.superstep > self._hops:
            return
        graph, sent = self._graph, self.log.setdefault(ctx.superstep, [])
        payload = (v + ctx.superstep) % 3  # collides, so the combiner bites
        if v % 2:
            ctx.send_to_out_neighbors(payload)
            sent += [(v, x, payload) for x in graph.out_neighbors(v)]
        else:
            for x in graph.out_neighbors(v):
                ctx.send(x, payload)
                sent.append((v, x, payload))
        ctx.send_to_in_neighbors(payload)
        sent += [(v, x, payload) for x in graph.in_neighbors(v)]
        ctx.send(v, payload)  # a self-message is a same-node delivery
        sent.append((v, v, payload))


@settings(max_examples=60, deadline=None)
@given(
    graph=digraphs(max_vertices=16),
    num_nodes=st.integers(min_value=1, max_value=5),
    strategy=st.sampled_from(sorted(PARTITIONER_STRATEGIES)),
    combine=st.booleans(),
)
def test_barrier_counters_equal_a_brute_force_recount(
    graph, num_nodes, strategy, combine
):
    partitioner = PARTITIONER_STRATEGIES[strategy](num_nodes, graph.num_vertices)
    node_of = node_assignment(partitioner, graph.num_vertices)
    program = LoggedSends(graph, hops=3, combine=combine)
    cluster = Cluster(
        num_nodes=num_nodes, cost_model=NO_LIMIT, partitioner=partitioner
    )
    stats = cluster.run(graph, program, trace=True, node_timeline=True)

    local = remote = 0
    for row in stats.trace:
        sent = program.log.get(row.superstep, [])
        if combine:  # one copy per (sending node, destination, payload)
            sent = list(
                {(node_of[src], dst, payload): (src, dst, payload)
                 for src, dst, payload in sent}.values()
            )
        recv = [0] * num_nodes
        for src, dst, _ in sent:
            if node_of[src] == node_of[dst]:
                local += 1
            else:
                recv[node_of[dst]] += NO_LIMIT.message_bytes
        crossed = sum(recv) // NO_LIMIT.message_bytes
        remote += crossed
        assert row.remote_messages == crossed
        assert row.remote_bytes == sum(recv)
        slices = [
            piece.recv_bytes
            for piece in stats.node_timeline.slices
            if piece.superstep == row.superstep
        ]
        assert slices == recv
    assert (stats.local_messages, stats.remote_messages) == (local, remote)


@given(
    graph=digraphs(max_vertices=16),
    num_nodes=st.integers(min_value=1, max_value=5),
)
@settings(max_examples=40, deadline=None)
def test_routing_counts_same_node_neighbours(graph, num_nodes):
    node_of = node_assignment(
        PARTITIONER_STRATEGIES["hash"](num_nodes, graph.num_vertices),
        graph.num_vertices,
    )
    routing = Routing.of(graph, node_of)
    for v in graph.vertices():
        assert routing.same_out[v] == sum(
            node_of[x] == node_of[v] for x in graph.out_neighbors(v)
        )
        assert routing.same_in[v] == sum(
            node_of[x] == node_of[v] for x in graph.in_neighbors(v)
        )


def test_cluster_counts_routing_once_per_graph(monkeypatch):
    graph = family_graph("cyclic", 30, 1)
    calls = []
    original = Routing.of.__func__
    monkeypatch.setattr(
        Routing, "of",
        classmethod(lambda cls, g, n: calls.append(g) or original(cls, g, n)),
    )
    cluster = Cluster(num_nodes=3, cost_model=NO_LIMIT)
    for _ in range(3):
        cluster.run(graph, FanOutFlood(graph))
    assert calls == [graph]
    other = family_graph("dag", 30, 1)
    cluster.run(other, FanOutFlood(other))
    assert calls == [graph, other]


# ----------------------------------------------------------------------
# The cut-off still fires inside an exploding super-step
# ----------------------------------------------------------------------
def test_cutoff_aborts_inside_the_exploding_superstep():
    n = 700  # complete graph: super-step 1 alone charges n * (n - 1) units
    graph = DiGraph(n, [(u, v) for u in range(n) for v in range(n) if u != v])

    class Exploding(VertexProgram):
        computed = 0

        def compute(self, ctx, v, messages):
            if ctx.superstep == 1:
                self.computed += 1
                ctx.send_to_out_neighbors(v)

    program = Exploding()
    impatient = CostModel(t_op=1.0, time_limit_seconds=100_000.0)
    with pytest.raises(TimeLimitExceeded):
        Cluster(num_nodes=1, cost_model=impatient).run(graph, program)
    # One re-check per 262 144 units: the first one already trips.
    assert 262_144 // (n - 1) <= program.computed < n
