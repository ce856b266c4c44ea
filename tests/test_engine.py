"""Tests for the BSP cluster engine itself (independent programs)."""

import pytest

from repro.graph.digraph import DiGraph
from repro.graph.partition import ModuloPartitioner, RangePartitioner
from repro.pregel.cost_model import CostModel
from repro.pregel.engine import Cluster, SuperstepLimitExceeded
from repro.pregel.metrics import RunStats
from repro.pregel.vertex_program import VertexProgram
from repro.telemetry import session
from repro.telemetry.reader import Trace
from repro.telemetry.sinks import InMemorySink


def _rows(sink):
    """The ``pregel.superstep`` rows a session's sink heard, in order."""
    return [e["attrs"] for e in Trace(sink.records).events("pregel.superstep")]


class FloodFrom(VertexProgram):
    """Marks everything reachable from a source; one superstep per hop."""

    def __init__(self, source: int):
        self.source = source
        self.visited: set[int] = set()
        self.visit_superstep: dict[int, int] = {}

    def compute(self, ctx, v, messages):
        if ctx.superstep == 1 and v != self.source:
            return
        if v in self.visited:
            return
        self.visited.add(v)
        self.visit_superstep[v] = ctx.superstep
        for w in ctx.graph.out_neighbors(v):
            ctx.charge()
            ctx.send(w, None)


class MaxPropagation(VertexProgram):
    """Classic Pregel example: propagate the maximum vertex id."""

    def __init__(self):
        self.value: dict[int, int] = {}

    def compute(self, ctx, v, messages):
        if ctx.superstep == 1:
            self.value[v] = v
            changed = True
        else:
            best = max(messages)
            changed = best > self.value[v]
            if changed:
                self.value[v] = best
        if changed:
            for w in ctx.graph.out_neighbors(v):
                ctx.send(w, self.value[v])


class NeverTerminates(VertexProgram):
    def compute(self, ctx, v, messages):
        ctx.send(v, "again")


class FinalizePass(VertexProgram):
    def __init__(self):
        self.finalized = False

    def compute(self, ctx, v, messages):
        return

    def finalize(self, fctx):
        self.finalized = True
        for v in range(fctx.graph.num_vertices):
            fctx.charge(v, 3)


def _path_graph(n: int) -> DiGraph:
    return DiGraph(n, [(i, i + 1) for i in range(n - 1)])


def test_flood_visits_exactly_reachable():
    g = DiGraph(5, [(0, 1), (1, 2), (3, 4)])
    program = FloodFrom(0)
    Cluster(num_nodes=2).run(g, program)
    assert program.visited == {0, 1, 2}


def test_messages_delivered_next_superstep():
    g = _path_graph(5)
    program = FloodFrom(0)
    Cluster(num_nodes=3).run(g, program)
    # Vertex i is at distance i from the source: visited at superstep i+1.
    assert program.visit_superstep == {i: i + 1 for i in range(5)}


def test_max_propagation_converges():
    g = DiGraph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 3), (2, 3)])
    program = MaxPropagation()
    Cluster(num_nodes=4).run(g, program)
    # {0,1,2} feed into {3,4}; 5 is isolated.
    assert program.value == {0: 2, 1: 2, 2: 2, 3: 4, 4: 4, 5: 5}


def test_superstep_limit():
    g = DiGraph(1, [])
    with pytest.raises(SuperstepLimitExceeded):
        Cluster(num_nodes=1).run(g, NeverTerminates(), max_supersteps=10)


def test_local_vs_remote_accounting_exact():
    # Path 0->1->2->3 with a modulo partitioner on 2 nodes:
    # edges 0->1, 1->2, 2->3 all cross parity, hence all remote.
    g = _path_graph(4)
    cluster = Cluster(num_nodes=2, partitioner=ModuloPartitioner(2))
    stats = cluster.run(g, FloodFrom(0))
    assert stats.remote_messages == 3
    assert stats.local_messages == 0
    # Range partitioner keeps 0,1 on node 0 and 2,3 on node 1.
    cluster = Cluster(num_nodes=2, partitioner=RangePartitioner(2, 4))
    stats = cluster.run(g, FloodFrom(0))
    assert stats.remote_messages == 1
    assert stats.local_messages == 2


def test_remote_bytes_follow_message_size():
    g = _path_graph(4)
    cost = CostModel(message_bytes=100)
    cluster = Cluster(
        num_nodes=2, partitioner=ModuloPartitioner(2), cost_model=cost
    )
    stats = cluster.run(g, FloodFrom(0))
    assert stats.remote_bytes == 300


def test_barrier_seconds_per_superstep():
    g = _path_graph(4)
    cost = CostModel(t_barrier=1.0)
    stats = Cluster(num_nodes=1, cost_model=cost).run(g, FloodFrom(0))
    # Path of length 3: 4 visit supersteps + 1 final empty... the last
    # send happens at superstep 4, so superstep 5 delivers to nobody new
    # but vertex 3 sends nothing; termination after superstep 5.
    assert stats.barrier_seconds == stats.supersteps * 1.0
    assert stats.supersteps >= 4


def test_finalize_charged_as_extra_superstep():
    g = _path_graph(3)
    program = FinalizePass()
    stats = Cluster(num_nodes=2).run(g, program)
    assert program.finalized
    assert stats.compute_units == 9  # 3 units per vertex
    assert stats.supersteps == 2  # superstep 1 + finalize pass


def test_stats_accumulate_across_runs():
    g = _path_graph(4)
    cluster = Cluster(num_nodes=2)
    stats = RunStats(num_nodes=2, per_node_units=[0, 0])
    cluster.run(g, FloodFrom(0), stats=stats)
    first_units = stats.compute_units
    cluster.run(g, FloodFrom(0), stats=stats)
    assert stats.compute_units == 2 * first_units


def test_partitioner_node_count_mismatch_rejected():
    with pytest.raises(ValueError):
        Cluster(num_nodes=4, partitioner=ModuloPartitioner(2))
    with pytest.raises(ValueError):
        Cluster(num_nodes=0)


_NAN = float("nan")


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda: Cluster(num_nodes=2.5), id="num_nodes=2.5"),
        pytest.param(
            lambda: Cluster(num_nodes=8, engine="mp", workers=_NAN),
            id="workers=nan",
        ),
        pytest.param(
            lambda: Cluster(num_nodes=8, engine="mp", workers=1.5),
            id="workers=1.5",
        ),
        pytest.param(
            lambda: Cluster(num_nodes=1).run(
                DiGraph(1, []), NeverTerminates(), max_supersteps=_NAN
            ),
            id="max_supersteps=nan",
        ),
    ],
)
def test_cluster_counts_are_checked_where_they_come_in(make):
    """A NaN or fractional count used to run (NaN never hits the
    super-step limit) or die in a bare ``TypeError``; each is a
    ``ValueError`` naming it."""
    with pytest.raises(ValueError, match=r"must be an integer >= 1, got"):
        make()


def test_stats_merge_concatenates_traces():
    """Two runs accumulated into one ``RunStats`` (``Cluster.run(stats=)``,
    as DRL_b chains its batches): the stream concatenates the runs' rows
    in run order, and the stats keep the totals those rows add up to."""
    g = _path_graph(4)
    cluster = Cluster(num_nodes=2)
    sinks = InMemorySink(), InMemorySink(), InMemorySink()
    merged = RunStats(num_nodes=2, per_node_units=[0, 0])
    with session([sinks[0], sinks[2]]):
        cluster.run(g, FloodFrom(0), stats=merged)
    with session([sinks[1], sinks[2]]):
        cluster.run(g, FloodFrom(0), stats=merged)
    first_rows, second_rows, both = map(_rows, sinks)
    assert first_rows and second_rows
    assert both == first_rows + second_rows
    assert merged.supersteps == len(both)
    assert merged.compute_units == sum(row["compute_units"] for row in both)


def test_stats_summary_renders():
    stats = RunStats(num_nodes=2, per_node_units=[1, 1])
    text = stats.summary()
    assert "simulated" in text
    assert "2 nodes" in text


def test_superstep_limit_partial_stats_consistent():
    """A tripped limit still leaves coherent partial accounting."""
    g = _path_graph(4)
    stats = RunStats(num_nodes=2)
    stats.per_node_units = [0, 0]
    cluster = Cluster(num_nodes=2, cost_model=CostModel(time_limit_seconds=None))
    sink = InMemorySink()
    with session([sink]), pytest.raises(SuperstepLimitExceeded):
        cluster.run(g, NeverTerminates(), max_supersteps=7, stats=stats)
    # Exactly the 7 allowed supersteps were accounted; the 8th aborted
    # before any accounting.
    trace = _rows(sink)
    assert stats.supersteps == 7
    assert len(trace) == 7
    assert [row["superstep"] for row in trace] == list(range(1, 8))
    assert stats.compute_units == sum(row["compute_units"] for row in trace)
    assert stats.remote_messages == sum(row["remote_messages"] for row in trace)
    assert sum(stats.per_node_units) == stats.compute_units
    assert stats.barrier_seconds == pytest.approx(7 * cluster.cost_model.t_barrier)
    assert stats.simulated_seconds > 0.0
