"""Tests for super-step tracing."""

from repro.core.drl import DrlFloodProgram
from repro.graph.generators import random_digraph
from repro.graph.order import degree_order
from repro.pregel.cost_model import CostModel
from repro.pregel.engine import Cluster
from repro.pregel.vertex_program import VertexProgram

_NO_LIMIT = CostModel(time_limit_seconds=None)


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
def test_trace_off_by_default():
    g = random_digraph(40, 120, seed=3)
    program = DrlFloodProgram(g, degree_order(g))
    stats = Cluster(num_nodes=4, cost_model=_NO_LIMIT).run(g, program)
    assert stats.trace == []


def test_trace_records_every_superstep():
    g = random_digraph(40, 120, seed=3)
    program = DrlFloodProgram(g, degree_order(g))
    stats = Cluster(num_nodes=4, cost_model=_NO_LIMIT).run(
        g, program, trace=True
    )
    # The finalize pass adds one superstep without a trace row.
    assert len(stats.trace) in (stats.supersteps, stats.supersteps - 1)
    assert stats.trace[0].superstep == 1
    assert stats.trace[0].active_vertices == g.num_vertices
    assert sum(row.compute_units for row in stats.trace) <= stats.compute_units
    for row in stats.trace:
        assert row.max_node_units <= row.compute_units
        assert row.remote_bytes >= 0


def test_trace_activity_wanes():
    """The flood's active set eventually shrinks to nothing."""
    g = random_digraph(60, 180, seed=4)
    program = DrlFloodProgram(g, degree_order(g))
    stats = Cluster(num_nodes=2, cost_model=_NO_LIMIT).run(
        g, program, trace=True
    )
    assert stats.trace[-1].active_vertices <= stats.trace[1].active_vertices


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
    stats = Cluster(num_nodes=4, cost_model=_NO_LIMIT).run(
        g, _NoFinalizeFlood(), trace=True
    )
    assert len(stats.trace) == stats.supersteps
    assert [row.superstep for row in stats.trace] == list(
        range(1, stats.supersteps + 1)
    )
    assert stats.trace[0].active_vertices == g.num_vertices
    assert sum(r.compute_units for r in stats.trace) == stats.compute_units
    assert sum(r.remote_messages for r in stats.trace) == stats.remote_messages
    assert sum(r.remote_bytes for r in stats.trace) == stats.remote_bytes
    assert (
        sum(r.broadcast_bytes for r in stats.trace) == stats.broadcast_bytes
    )
    # Active vertices per step never exceed the graph, and the last
    # step's frontier delivered no new messages.
    assert all(0 <= r.active_vertices <= g.num_vertices for r in stats.trace)


def test_trace_disabled_is_zero_overhead():
    """No rows (and no row allocations) when tracing is off."""
    g = random_digraph(50, 200, seed=11)
    cluster = Cluster(num_nodes=4, cost_model=_NO_LIMIT)
    off = cluster.run(g, _NoFinalizeFlood())
    on = cluster.run(g, _NoFinalizeFlood(), trace=True)
    assert off.trace == []
    assert len(on.trace) == on.supersteps
    # Accounting itself is identical with and without tracing.
    assert off.compute_units == on.compute_units
    assert off.supersteps == on.supersteps
    assert off.simulated_seconds == on.simulated_seconds


def test_trace_row_to_dict_roundtrip():
    g = random_digraph(30, 90, seed=2)
    stats = Cluster(num_nodes=2, cost_model=_NO_LIMIT).run(
        g, _NoFinalizeFlood(), trace=True
    )
    row = stats.trace[0]
    as_dict = row.to_dict()
    assert as_dict["superstep"] == 1
    assert as_dict["active_vertices"] == row.active_vertices
    assert set(as_dict) == {
        "superstep", "active_vertices", "compute_units", "max_node_units",
        "remote_messages", "remote_bytes", "broadcast_bytes",
    }
