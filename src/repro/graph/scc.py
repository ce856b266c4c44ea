"""Strongly connected components (iterative Tarjan) and condensation.

The DRL family deliberately works on cyclic graphs (Section II-C), but
the BFL baseline needs an acyclic graph, and several tests use the
condensation as an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.graph.digraph import DiGraph


def strongly_connected_components(graph: DiGraph) -> list[list[int]]:
    """Tarjan's algorithm, iterative (safe for deep graphs).

    Returns components in reverse topological order of the condensation
    (a component appears before any component that can reach it), which
    is Tarjan's natural emission order.  ``graph`` needs only
    ``num_vertices`` and an iterable ``out_neighbors(v)``.
    """
    n = graph.num_vertices
    unvisited = -1
    index_of = [unvisited] * n
    lowlink = [0] * n
    on_stack = bytearray(n)
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0

    for root in range(n):
        if index_of[root] != unvisited:
            continue
        index_of[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = 1
        # Explicit DFS stack of (vertex, its unread out-neighbors).
        work = [(root, iter(graph.out_neighbors(root)))]
        while work:
            v, neighbors = work[-1]
            for w in neighbors:
                if index_of[w] == unvisited:
                    index_of[w] = lowlink[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = 1
                    work.append((w, iter(graph.out_neighbors(w))))
                    break
                if on_stack[w] and index_of[w] < lowlink[v]:
                    lowlink[v] = index_of[w]
            else:
                work.pop()
                if lowlink[v] == index_of[v]:
                    component = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = 0
                        component.append(w)
                        if w == v:
                            break
                    components.append(component)
                if work:
                    parent = work[-1][0]
                    if lowlink[v] < lowlink[parent]:
                        lowlink[parent] = lowlink[v]
    return components


@dataclass(frozen=True)
class Condensation:
    """The condensation DAG of a directed graph.

    Attributes
    ----------
    dag:
        The acyclic graph whose vertices are SCC ids.
    component_of:
        ``component_of[v]`` is the SCC id of original vertex ``v``.
    members:
        ``members[c]`` lists the original vertices of SCC ``c``.
    """

    dag: DiGraph
    component_of: list[int]
    members: list[list[int]]

    def is_trivial(self) -> bool:
        """True when the input graph was already acyclic."""
        return self.dag.num_vertices == len(self.component_of)


def condensation(graph: DiGraph) -> Condensation:
    """Contract each SCC to a single vertex; edges are deduplicated."""
    components = strongly_connected_components(graph)
    component_of = [0] * graph.num_vertices
    for cid, members in enumerate(components):
        for v in members:
            component_of[v] = cid
    dag_edges = set()
    for u, v in graph.edges():
        cu, cv = component_of[u], component_of[v]
        if cu != cv:
            dag_edges.add((cu, cv))
    dag = DiGraph(len(components), sorted(dag_edges))
    return Condensation(dag=dag, component_of=component_of, members=components)
