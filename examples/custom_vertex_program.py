#!/usr/bin/env python3
"""Writing your own vertex-centric program for the cluster simulator.

The labeling algorithms are built on a small Pregel-style API — this
example uses it directly: a multi-source reachability program that
prints the cost accounting and its wavefront afterwards.

Run:  python examples/custom_vertex_program.py
"""

from repro import Cluster, VertexProgram, kronecker_graph
from repro.pregel import paper_scale_model


class MultiSourceReach(VertexProgram):
    """Marks every vertex reachable from any of the given sources."""

    combine_duplicates = True  # duplicate marks are no-ops: combine them

    def __init__(self, graph, sources):
        self._sources = sorted(set(sources))
        self.reached = bytearray(graph.num_vertices)

    def initial_vertices(self, graph):
        return self._sources  # super-step 1 runs on these only

    def compute(self, ctx, v, messages):
        if self.reached[v]:
            return
        self.reached[v] = 1
        # One call: a message along every out-edge of v, one unit each.
        ctx.send_to_out_neighbors(True)


def main() -> None:
    graph = kronecker_graph(11, edge_factor=6, seed=9)
    print(f"kronecker graph: {graph.num_vertices} vertices, "
          f"{graph.num_edges} edges")

    sources = [1, 5, 42]
    program = MultiSourceReach(graph, sources)
    cluster = Cluster(num_nodes=16, cost_model=paper_scale_model())
    stats = cluster.run(graph, program, trace=True)

    reached = sum(program.reached)
    print(f"reachable from {sources}: {reached} vertices "
          f"({100 * reached / graph.num_vertices:.1f}%)")
    print(f"stats: {stats.summary()}")

    print("wavefront (active vertices per super-step):")
    for row in stats.trace:
        bar = "#" * max(1, row.active_vertices // 40)
        print(f"  step {row.superstep:2d}: {row.active_vertices:5d} {bar}")


if __name__ == "__main__":
    main()
