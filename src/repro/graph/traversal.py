"""Graph traversals: BFS, DFS, reachability, and trimmed BFS (Algorithm 2).

The trimmed BFS is the filtering primitive of the paper: a ``v``-sourced
BFS that stops expanding whenever it meets a vertex of higher order than
``v``.  It returns both the visited low-order set ``BFS_low(v)`` and the
blocking high-order frontier ``BFS_hig(v)``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.graph.digraph import DiGraph
from repro.graph.order import VertexOrder


def bfs_order(graph: DiGraph, source: int) -> list[int]:
    """Vertices reachable from ``source`` in BFS visitation order."""
    visited = bytearray(graph.num_vertices)
    visited[source] = 1
    queue = deque([source])
    out = []
    while queue:
        u = queue.popleft()
        out.append(u)
        for w in graph.out_neighbors(u):
            if not visited[w]:
                visited[w] = 1
                queue.append(w)
    return out


def reachable_set(graph: DiGraph, source: int) -> set[int]:
    """The descendants ``DES(source)`` (includes ``source`` itself)."""
    return set(bfs_order(graph, source))


def dfs_postorder(graph: DiGraph, roots: list[int] | None = None) -> list[int]:
    """Iterative DFS post-order over the whole graph.

    ``roots`` fixes the root visitation order (defaults to ``0..n-1``);
    every vertex appears exactly once, and on a DAG after all of its
    descendants.
    """
    n = graph.num_vertices
    visited = bytearray(n)
    postorder: list[int] = []
    root_iter = roots if roots is not None else range(n)
    for root in root_iter:
        if visited[root]:
            continue
        visited[root] = 1
        # Stack holds (vertex, iterator over its out-neighbors).
        stack = [(root, iter(graph.out_neighbors(root)))]
        while stack:
            v, neighbors = stack[-1]
            advanced = False
            for w in neighbors:
                if not visited[w]:
                    visited[w] = 1
                    stack.append((w, iter(graph.out_neighbors(w))))
                    advanced = True
                    break
            if not advanced:
                postorder.append(v)
                stack.pop()
    return postorder


@dataclass(frozen=True)
class TrimmedBfsResult:
    """Output of Algorithm 2 for one source vertex ``v``.

    Attributes
    ----------
    low:
        ``BFS_low(v)``: visited vertices of order lower than ``v``
        (includes ``v`` itself), in visitation order.
    high:
        ``BFS_hig(v)``: the distinct higher-order vertices that blocked
        expansion, in discovery order.
    edges_scanned:
        Number of edge examinations, for cost accounting (Lemma 2 says
        the time is ``O(|V| + |E|)``).
    """

    low: list[int]
    high: list[int]
    edges_scanned: int


def trimmed_bfs(graph: DiGraph, source: int, order: VertexOrder) -> TrimmedBfsResult:
    """Algorithm 2: ``source``-sourced trimmed BFS on ``graph``.

    Expansion proceeds only through vertices of order strictly lower than
    ``source``; a higher-order neighbor blocks its branch and is recorded
    in ``high``.  Each vertex is examined at most once (the paper's
    status array); the source itself, if re-reached through a cycle, is
    already marked visited and is not recorded as a blocker.
    """
    rank = order.ranks
    source_rank = rank[source]
    status = bytearray(graph.num_vertices)  # 0 = unvisited, 1 = seen
    status[source] = 1
    queue = deque([source])
    low = [source]
    high: list[int] = []
    edges_scanned = 0
    while queue:
        u = queue.popleft()
        for w in graph.out_neighbors(u):
            edges_scanned += 1
            if status[w]:
                continue
            status[w] = 1
            if rank[w] > source_rank:  # lower order than the source
                low.append(w)
                queue.append(w)
            else:  # block the expansion via w
                high.append(w)
    return TrimmedBfsResult(low=low, high=high, edges_scanned=edges_scanned)
