"""GRAIL — scalable reachability via randomized interval labeling
(Yildirim, Chaoji, Zaki; VLDB'10).  Related-work baseline [7].

Each of ``d`` dimensions assigns every vertex an interval
``[m_i(v), r_i(v)]`` from a randomized post-order traversal of the
condensation DAG: ``r_i`` is the post-order rank and ``m_i`` the
minimum rank in the vertex's reachable set.  ``u → v`` implies
``L_i(v) ⊆ L_i(u)`` in every dimension, so a single non-containment
*refutes* reachability; containment in all dimensions is inconclusive
and falls back to an interval-pruned DFS — the same index-assisted
trade-off as BFL, with intervals instead of Bloom filters.
"""

from __future__ import annotations

import random

from repro.baselines.search import FilterSearchIndex
from repro.graph.digraph import DiGraph
from repro.graph.scc import Condensation, condensation
from repro.pregel.serial import SerialMeter

#: Default number of interval dimensions (GRAIL's paper uses 2-5).
DEFAULT_DIMENSIONS = 3


class GrailIndex(FilterSearchIndex):
    """A built GRAIL index; query via :meth:`query`."""

    def __init__(
        self,
        graph: DiGraph,
        cond: Condensation,
        mins: list[list[int]],
        ranks: list[list[int]],
    ):
        super().__init__(graph, cond, 1 + len(mins))
        self._mins = mins    # one list per dimension, indexed by component
        self._ranks = ranks

    @property
    def num_dimensions(self) -> int:
        """Number of interval dimensions."""
        return len(self._mins)

    def size_bytes(self) -> int:
        """Two 4-byte rank fields per dimension per component, plus the
        vertex-to-component map."""
        components = len(self._cond.members)
        return components * 8 * self.num_dimensions + 4 * self.num_vertices

    def refutes(self, cs: int, ct: int) -> bool:
        """True when some dimension's interval containment fails."""
        for mins, ranks in zip(self._mins, self._ranks):
            if mins[ct] < mins[cs] or ranks[ct] > ranks[cs]:
                return True
        return False


def build_grail(
    graph: DiGraph,
    dimensions: int = DEFAULT_DIMENSIONS,
    seed: int = 0,
    meter: SerialMeter | None = None,
) -> GrailIndex:
    """Build a GRAIL index with ``dimensions`` randomized traversals."""
    if dimensions < 1:
        raise ValueError("need at least one interval dimension")
    if meter is not None:
        meter.check_memory(
            graph.memory_bytes() + 8 * dimensions * graph.num_vertices,
            what="GRAIL",
        )
        meter.charge(graph.num_edges + graph.num_vertices)  # condensation
    cond = condensation(graph)
    dag = cond.dag
    mins: list[list[int]] = []
    ranks: list[list[int]] = []
    for dim in range(dimensions):
        rng = random.Random(seed * 1_000_003 + dim)
        rank = _randomized_postorder(dag, rng)
        if meter is not None:
            meter.charge(dag.num_edges + dag.num_vertices)
        low = list(rank)
        # Tarjan emission order is reverse topological: ascending ids
        # see their out-neighbors' minima already final.
        for c in range(dag.num_vertices):
            for d in dag.out_neighbors(c):
                if low[d] < low[c]:
                    low[c] = low[d]
                if meter is not None:
                    meter.charge()
        mins.append(low)
        ranks.append(rank)
    return GrailIndex(graph, cond, mins, ranks)


def _randomized_postorder(dag: DiGraph, rng: random.Random) -> list[int]:
    """Post-order ranks from a DFS with shuffled roots and children."""
    n = dag.num_vertices
    rank = [0] * n
    visited = bytearray(n)
    counter = 0
    # Roots in random order, high (source-side) components first so the
    # traversal trees are deep.
    roots = list(range(n - 1, -1, -1))
    rng.shuffle(roots)
    for root in roots:
        if visited[root]:
            continue
        visited[root] = 1
        children = list(dag.out_neighbors(root))
        rng.shuffle(children)
        stack = [(root, children)]
        while stack:
            v, pending = stack[-1]
            advanced = False
            while pending:
                w = pending.pop()
                if not visited[w]:
                    visited[w] = 1
                    grandchildren = list(dag.out_neighbors(w))
                    rng.shuffle(grandchildren)
                    stack.append((w, grandchildren))
                    advanced = True
                    break
            if not advanced:
                rank[v] = counter
                counter += 1
                stack.pop()
    return rank
