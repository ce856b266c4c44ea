"""Distributed weakly connected components (hash-min propagation).

The classic Pregel example (and the subject of the paper's reference
[19]): every vertex repeatedly broadcasts the smallest component id it
has seen to all neighbors (ignoring edge direction) until no id
changes.  Used both as a real algorithm and as an engine workout.
"""

from __future__ import annotations

from repro.graph.digraph import DiGraph
from repro.graph.partition import Partitioner
from repro.pregel.cost_model import CostModel
from repro.pregel.engine import Cluster, ComputeContext
from repro.pregel.metrics import RunStats
from repro.pregel.vertex_program import VertexProgram


class HashMinProgram(VertexProgram):
    """Propagate the minimum vertex id through undirected adjacency."""

    combine_duplicates = True  # duplicate min-candidates are no-ops

    def __init__(self, graph: DiGraph):
        self.component = list(range(graph.num_vertices))

    def compute(self, ctx: ComputeContext, v: int, messages) -> None:
        if ctx.superstep == 1:
            candidate = self.component[v]
            changed = True
        else:
            candidate = min(messages)
            changed = candidate < self.component[v]
            if changed:
                self.component[v] = candidate
        if not changed:
            return
        ctx.charge()
        ctx.send_to_out_neighbors(candidate)
        ctx.send_to_in_neighbors(candidate)


def distributed_wcc(
    graph: DiGraph,
    num_nodes: int = 32,
    cost_model: CostModel | None = None,
    partitioner: Partitioner | None = None,
) -> tuple[list[int], RunStats]:
    """Weakly connected component ids (minimum member id) per vertex."""
    cluster = Cluster(
        num_nodes=num_nodes, cost_model=cost_model, partitioner=partitioner
    )
    program = HashMinProgram(graph)
    stats = cluster.run(graph, program)
    return program.component, stats
