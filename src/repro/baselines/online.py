"""Index-free online search (Section I / Related Work).

The motivating strawman: answering ``q(s, t)`` by searching the graph
at query time.  Centralized search is cheap per query but needs the
whole graph in memory; *distributed* online search additionally pays
network costs for every traversed cross-node edge, which is why the
paper dismisses index-free approaches for distributed graphs.
"""

from __future__ import annotations

from collections import deque

from repro.errors import check_vertex
from repro.graph.digraph import DiGraph
from repro.graph.partition import HashPartitioner, Partitioner
from repro.pregel.cost_model import CostModel


class OnlineSearcher:
    """Centralized BFS-based reachability queries."""

    def __init__(self, graph: DiGraph, cost_model: CostModel | None = None):
        self._graph = graph
        self._cost = cost_model if cost_model is not None else CostModel()
        # Version-stamped visited array: queries reuse one allocation.
        self._stamp = 0
        self._seen = [0] * graph.num_vertices

    def query(self, s: int, t: int) -> bool:
        """BFS from ``s`` until ``t`` is found or the frontier empties."""
        answer, _units = self._bfs(s, t)
        return answer

    def query_with_cost(self, s: int, t: int) -> tuple[bool, float]:
        """Like :meth:`query`, also returning simulated seconds."""
        check_vertex(s, self._graph.num_vertices)
        check_vertex(t, self._graph.num_vertices)
        answer, units = self._bfs(s, t)
        return answer, units * self._cost.t_op

    def _bfs(self, s: int, t: int) -> tuple[bool, int]:
        if s == t:
            return True, 1
        self._stamp += 1
        stamp = self._stamp
        seen = self._seen
        graph = self._graph
        seen[s] = stamp
        queue = deque([s])
        units = 1
        while queue:
            u = queue.popleft()
            for w in graph.out_neighbors(u):
                units += 1
                if w == t:
                    return True, units
                if seen[w] != stamp:
                    seen[w] = stamp
                    queue.append(w)
        return False, units


class DistributedOnlineSearcher:
    """Per-query BFS over a partitioned graph with message accounting.

    Each BFS wavefront is one communication round; remote edges pay
    byte costs and every round pays a barrier — the latency the paper's
    introduction warns about.
    """

    def __init__(
        self,
        graph: DiGraph,
        num_nodes: int = 32,
        cost_model: CostModel | None = None,
        partitioner: Partitioner | None = None,
    ):
        self._graph = graph
        self._cost = cost_model if cost_model is not None else CostModel()
        partitioner = (
            partitioner if partitioner is not None else HashPartitioner(num_nodes)
        )
        self._node_of = [partitioner.node_of(v) for v in graph.vertices()]
        self._stamp = 0
        self._seen = [0] * graph.num_vertices

    def query(self, s: int, t: int) -> bool:
        """Distributed BFS answer only."""
        answer, _seconds = self.query_with_cost(s, t)
        return answer

    def query_with_cost(self, s: int, t: int) -> tuple[bool, float]:
        """Returns ``(answer, simulated seconds)`` for one query."""
        check_vertex(s, self._graph.num_vertices)
        check_vertex(t, self._graph.num_vertices)
        cost = self._cost
        if s == t:
            return True, cost.t_op
        self._stamp += 1
        stamp = self._stamp
        seen = self._seen
        graph = self._graph
        node_of = self._node_of
        seen[s] = stamp
        frontier = [s]
        seconds = cost.t_op
        while frontier:
            next_frontier = []
            units = 0
            remote_bytes = 0
            found = False
            for u in frontier:
                for w in graph.out_neighbors(u):
                    units += 1
                    if node_of[w] != node_of[u]:
                        remote_bytes += cost.message_bytes
                    if w == t:
                        found = True
                    if seen[w] != stamp:
                        seen[w] = stamp
                        next_frontier.append(w)
            seconds += units * cost.t_op + remote_bytes * cost.t_byte + cost.t_barrier
            if found:
                return True, seconds
            frontier = next_frontier
        return False, seconds


def ground_truth_matrix(graph: DiGraph) -> list[set[int]]:
    """``DES(v)`` for every vertex via repeated BFS (test helper)."""
    searcher = OnlineSearcher(graph)
    return [
        {t for t in graph.vertices() if searcher.query(s, t)}
        for s in graph.vertices()
    ]
