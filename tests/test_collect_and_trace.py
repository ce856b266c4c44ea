"""Tests for super-step tracing: the ``pregel.superstep`` rows a run
emits into the telemetry stream."""

import dataclasses
from types import SimpleNamespace

from repro.core.drl import DrlFloodProgram
from repro.graph.generators import random_digraph
from repro.graph.order import degree_order
from repro.pregel.cost_model import CostModel
from repro.pregel.engine import Cluster
from repro.pregel.vertex_program import VertexProgram
from repro.telemetry import session
from repro.telemetry.reader import Trace
from repro.telemetry.sinks import InMemorySink

_NO_LIMIT = CostModel(time_limit_seconds=None)


def traced(cluster, graph, program):
    """Run under a session; return the stats and the run's super-step
    rows (``pregel.superstep`` attrs, attribute access)."""
    sink = InMemorySink()
    with session([sink]):
        stats = cluster.run(graph, program)
    rows = Trace(sink.records).events("pregel.superstep")
    return stats, [SimpleNamespace(**row["attrs"]) for row in rows]


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
def test_trace_off_by_default():
    """A sink hears only the runs inside its session."""
    g = random_digraph(40, 120, seed=3)
    sink = InMemorySink()
    with session([sink]):
        pass
    Cluster(num_nodes=4, cost_model=_NO_LIMIT).run(
        g, DrlFloodProgram(g, degree_order(g))
    )
    assert Trace(sink.records).events("pregel.superstep") == []


def test_trace_records_every_superstep():
    g = random_digraph(40, 120, seed=3)
    program = DrlFloodProgram(g, degree_order(g))
    stats, trace = traced(Cluster(num_nodes=4, cost_model=_NO_LIMIT), g, program)
    # The finalize pass adds one superstep without a trace row.
    assert len(trace) in (stats.supersteps, stats.supersteps - 1)
    assert trace[0].superstep == 1
    assert trace[0].active_vertices == g.num_vertices
    assert sum(row.compute_units for row in trace) <= stats.compute_units
    for row in trace:
        assert row.max_node_units <= row.compute_units
        assert row.remote_bytes >= 0


def test_trace_activity_wanes():
    """The flood's active set eventually shrinks to nothing."""
    g = random_digraph(60, 180, seed=4)
    program = DrlFloodProgram(g, degree_order(g))
    _, trace = traced(Cluster(num_nodes=2, cost_model=_NO_LIMIT), g, program)
    assert trace[-1].active_vertices <= trace[1].active_vertices


class _NoFinalizeFlood(VertexProgram):
    """Flood from vertex 0; charges nothing in finalize, so the trace
    covers every charged super-step exactly."""

    def compute(self, ctx, v, messages):
        if ctx.superstep == 1:
            if v != 0:
                return
            self._seen = {0}
        elif v in self._seen:
            return
        else:
            self._seen.add(v)
        for w in ctx.graph.out_neighbors(v):
            ctx.charge()
            ctx.send(w, None)


def test_trace_one_row_per_superstep_matching_stats():
    g = random_digraph(50, 200, seed=11)
    stats, trace = traced(
        Cluster(num_nodes=4, cost_model=_NO_LIMIT), g, _NoFinalizeFlood()
    )
    assert len(trace) == stats.supersteps
    assert [row.superstep for row in trace] == list(
        range(1, stats.supersteps + 1)
    )
    assert trace[0].active_vertices == g.num_vertices
    assert sum(r.compute_units for r in trace) == stats.compute_units
    assert sum(r.remote_messages for r in trace) == stats.remote_messages
    assert sum(r.remote_bytes for r in trace) == stats.remote_bytes
    assert sum(r.broadcast_bytes for r in trace) == stats.broadcast_bytes
    # Active vertices per step never exceed the graph, and the last
    # step's frontier delivered no new messages.
    assert all(0 <= r.active_vertices <= g.num_vertices for r in trace)


def test_trace_disabled_is_zero_overhead():
    """Opening a session changes no ``RunStats`` field."""
    g = random_digraph(50, 200, seed=11)
    cluster = Cluster(num_nodes=4, cost_model=_NO_LIMIT)
    off = dataclasses.asdict(cluster.run(g, _NoFinalizeFlood()))
    on, trace = traced(cluster, g, _NoFinalizeFlood())
    assert len(trace) == on.supersteps
    on = dataclasses.asdict(on)
    del off["wall_seconds"], on["wall_seconds"]
    assert off == on


def test_trace_row_to_dict_roundtrip():
    g = random_digraph(30, 90, seed=2)
    _, trace = traced(
        Cluster(num_nodes=2, cost_model=_NO_LIMIT), g, _NoFinalizeFlood()
    )
    as_dict = vars(trace[0])
    assert as_dict["superstep"] == 1
    assert set(as_dict) == {
        "superstep", "active_vertices", "compute_units", "max_node_units",
        "remote_messages", "remote_bytes", "broadcast_bytes",
    }
