"""Distributed strongly connected components: Forward-Backward-Trim.

The standard parallel SCC scheme (Fleischer et al.; McLendon et al.):

1. **Trim** — a vertex with no in-neighbor (or no out-neighbor) inside
   its current partition is a singleton SCC; trimming repeats until no
   vertex is removable (this quickly dissolves the acyclic bulk of
   real graphs).
2. **Forward-Backward** — each live partition picks a pivot and floods
   forward and backward within the partition; the intersection of the
   two reachable sets *is* the pivot's SCC, and the remainder splits
   into three independent sub-partitions (forward-only, backward-only,
   neither) processed in later rounds.

Every step runs on the vertex-centric engine with full cost accounting,
so :func:`distributed_condensation` quantifies exactly the overhead the
paper's Section II-C warns about when it chooses to index cyclic graphs
directly instead of condensing them first.
"""

from __future__ import annotations

from repro.graph.digraph import DiGraph
from repro.graph.partition import Partitioner
from repro.graph.scc import Condensation
from repro.pregel.cost_model import CostModel
from repro.pregel.engine import Cluster, ComputeContext
from repro.pregel.metrics import RunStats
from repro.pregel.vertex_program import VertexProgram

_FWD = 0
_BWD = 1
_LIVE = -1  # scc id sentinel for not-yet-settled vertices


class _SccState:
    """Shared vertex state across the rounds of one SCC computation."""

    def __init__(self, n: int):
        self.partition = [0] * n
        self.scc_id = [_LIVE] * n

    def live_vertices(self) -> list[int]:
        return [v for v, scc in enumerate(self.scc_id) if scc == _LIVE]


class _TrimProgram(VertexProgram):
    """One trim round: announce partitions, then drop sources/sinks.

    Super-step 1 has every live vertex announce its partition to both
    neighborhoods; super-step 2 counts same-partition live neighbors
    and finalizes vertices with none on either side.
    """

    combine_duplicates = False  # counts matter, not just presence

    def __init__(self, state: _SccState):
        self._state = state
        self.trimmed = 0

    def compute(self, ctx: ComputeContext, v: int, messages) -> None:
        state = self._state
        if ctx.superstep == 1:
            if state.scc_id[v] != _LIVE:
                return
            ctx.charge()
            ctx.send_to_out_neighbors((state.partition[v], _FWD))
            ctx.send_to_in_neighbors((state.partition[v], _BWD))
            return
        if state.scc_id[v] != _LIVE:
            return
        mine = state.partition[v]
        in_same = out_same = 0
        for partition, direction in messages:
            if partition != mine:
                continue
            if direction == _FWD:
                in_same += 1  # came along an in-edge of v
            else:
                out_same += 1
        if in_same == 0 or out_same == 0:
            state.scc_id[v] = v  # singleton SCC
            self.trimmed += 1


class _FwBwProgram(VertexProgram):
    """One Forward-Backward round for every live partition at once."""

    combine_duplicates = True  # duplicate reach-marks are no-ops

    def __init__(self, graph: DiGraph, state: _SccState, pivots: dict[int, int]):
        self._state = state
        self._pivots = pivots  # partition id -> pivot vertex
        n = graph.num_vertices
        self.fwd = bytearray(n)
        self.bwd = bytearray(n)

    def compute(self, ctx: ComputeContext, v: int, messages) -> None:
        state = self._state
        if ctx.superstep == 1:
            if self._pivots.get(state.partition[v]) != v:
                return
            ctx.charge()
            self.fwd[v] = 1
            self.bwd[v] = 1
            self._expand(ctx, v, _FWD)
            self._expand(ctx, v, _BWD)
            return
        if state.scc_id[v] != _LIVE:
            return
        mine = state.partition[v]
        for partition, direction in messages:
            if partition != mine:
                continue
            marks = self.fwd if direction == _FWD else self.bwd
            if marks[v]:
                continue
            marks[v] = 1
            self._expand(ctx, v, direction)

    def _expand(self, ctx: ComputeContext, v: int, direction: int) -> None:
        payload = (self._state.partition[v], direction)
        if direction == _FWD:
            ctx.send_to_out_neighbors(payload)
        else:
            ctx.send_to_in_neighbors(payload)


def distributed_scc(
    graph: DiGraph,
    num_nodes: int = 32,
    cost_model: CostModel | None = None,
    partitioner: Partitioner | None = None,
    trim: bool = True,
) -> tuple[list[int], RunStats]:
    """Compute SCC ids per vertex on the simulated cluster.

    Returns ``(scc_of, stats)`` where ``scc_of[v]`` is a representative
    vertex id shared by exactly the vertices strongly connected to
    ``v``.  ``trim=False`` disables the trimming phases (ablation).
    """
    cluster = Cluster(
        num_nodes=num_nodes, cost_model=cost_model, partitioner=partitioner
    )
    n = graph.num_vertices
    state = _SccState(n)
    stats = RunStats(num_nodes=cluster.num_nodes)
    stats.per_node_units = [0] * cluster.num_nodes
    next_partition = 1

    while True:
        if trim:
            while True:
                program = _TrimProgram(state)
                cluster.run(graph, program, stats=stats)
                if program.trimmed == 0:
                    break
        live = state.live_vertices()
        if not live:
            break
        # Deterministic pivot per live partition: its smallest vertex.
        pivots: dict[int, int] = {}
        for v in live:
            p = state.partition[v]
            if p not in pivots or v < pivots[p]:
                pivots[p] = v
        fwbw = _FwBwProgram(graph, state, pivots)
        cluster.run(graph, fwbw, stats=stats)
        # Classify and split partitions for the next round.
        split_ids: dict[tuple[int, int], int] = {}
        for v in live:
            in_f, in_b = fwbw.fwd[v], fwbw.bwd[v]
            if in_f and in_b:
                state.scc_id[v] = pivots[state.partition[v]]
                continue
            key = (state.partition[v], 2 * in_f + in_b)
            child = split_ids.get(key)
            if child is None:
                child = next_partition
                next_partition += 1
                split_ids[key] = child
            state.partition[v] = child
    return state.scc_id, stats


def distributed_condensation(
    graph: DiGraph,
    num_nodes: int = 32,
    cost_model: CostModel | None = None,
    partitioner: Partitioner | None = None,
) -> tuple[Condensation, RunStats]:
    """Condense a distributed graph: SCCs, then a deduplicated DAG.

    The edge-contraction step is charged too: every node scans its
    edges and ships cross-component pairs to the component owner.
    """
    if cost_model is None:
        cost_model = CostModel()
    scc_of, stats = distributed_scc(
        graph, num_nodes=num_nodes, cost_model=cost_model, partitioner=partitioner
    )
    # Normalize representative ids to dense component ids, ordered so
    # that every edge points from a higher to a lower component id —
    # matching Tarjan's reverse-topological emission, which downstream
    # code (BFL, the condensed index) relies on.
    from repro.graph.scc import condensation as _serial_condensation

    representatives = sorted(set(scc_of))
    dag_edges: set[tuple[int, int]] = set()
    remote_bytes = 0
    units = 0
    rep_index = {rep: i for i, rep in enumerate(representatives)}
    for u, v in graph.edges():
        units += 1
        cu, cv = rep_index[scc_of[u]], rep_index[scc_of[v]]
        if cu != cv:
            dag_edges.add((cu, cv))
            remote_bytes += cost_model.message_bytes
    stats.compute_units += units
    stats.computation_seconds += (units // max(1, num_nodes)) * cost_model.t_op
    stats.remote_bytes += remote_bytes
    stats.communication_seconds += (
        remote_bytes // max(1, num_nodes)
    ) * cost_model.t_byte
    cost_model.check_time(stats.simulated_seconds)

    # Re-emit components in reverse topological order of the contracted
    # DAG (serial tie-breaking on the tiny contracted structure).
    interim = DiGraph(len(representatives), sorted(dag_edges))
    ordering = _serial_condensation(interim)
    # _serial_condensation on a DAG yields singleton components in
    # reverse topological order; use that order to relabel.
    relabel = [0] * len(representatives)
    for new_id, members in enumerate(ordering.members):
        relabel[members[0]] = new_id
    component_of = [relabel[rep_index[scc_of[v]]] for v in range(graph.num_vertices)]
    members: list[list[int]] = [[] for _ in representatives]
    for v in range(graph.num_vertices):
        members[component_of[v]].append(v)
    dag = DiGraph(
        len(representatives),
        sorted({(relabel[a], relabel[b]) for a, b in dag_edges}),
    )
    return Condensation(dag=dag, component_of=component_of, members=members), stats
