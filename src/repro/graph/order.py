"""Total vertex orders.

TOL and the DRL family all label vertices in decreasing *order*.  The
paper (Example 3) defines

    ord(v) = (d_in(v) + 1) * (d_out(v) + 1) + ID(v) / (n + 1)

so that degree products dominate and vertex ids break ties (a larger id
wins a tie).  :class:`VertexOrder` materializes any strict total order as
a rank array so comparisons are integer lookups instead of float
arithmetic, which both speeds up the inner loops and removes any risk of
floating-point tie ambiguity.
"""

from __future__ import annotations

import random as _random
from array import array
from typing import Iterator, Sequence

from repro.graph.digraph import DiGraph


class VertexOrder:
    """A strict total order over the vertices of a graph.

    ``rank(v)`` is the position of ``v`` in the order: the highest-order
    vertex has rank 0.  ``higher(u, v)`` is true when ``ord(u) > ord(v)``.
    """

    __slots__ = ("_rank", "_by_rank")

    def __init__(self, vertices_by_rank: Sequence[int]):
        n = len(vertices_by_rank)
        self._by_rank = array("q", vertices_by_rank)
        self._rank = array("q", bytes(8 * n))
        seen = bytearray(n)
        for position, v in enumerate(vertices_by_rank):
            if not 0 <= v < n or seen[v]:
                raise ValueError("vertices_by_rank must be a permutation of 0..n-1")
            seen[v] = 1
            self._rank[v] = position

    def __len__(self) -> int:
        return len(self._rank)

    def rank(self, v: int) -> int:
        """Rank of ``v``: 0 is the highest order."""
        return self._rank[v]

    @property
    def ranks(self) -> array:
        """The full rank array (read-only by convention)."""
        return self._rank

    def vertex_at_rank(self, position: int) -> int:
        """The vertex with the ``position``-th highest order."""
        return self._by_rank[position]

    def by_rank(self) -> Iterator[int]:
        """Vertices from highest order to lowest."""
        return iter(self._by_rank)

    def higher(self, u: int, v: int) -> bool:
        """True when ``ord(u) > ord(v)``."""
        return self._rank[u] < self._rank[v]

    def appended(self) -> VertexOrder:
        """A new order: this one with the next vertex id, ``len(self)``,
        at the tail.  Built by concatenating the two arrays — a permutation
        plus its next id is one, so there is nothing to re-check — and
        ``self`` is left as it was."""
        n = len(self)
        order = VertexOrder.__new__(VertexOrder)
        order._by_rank = self._by_rank + array("q", (n,))
        order._rank = self._rank + array("q", (n,))
        return order

    def moved(self, v: int, position: int) -> VertexOrder:
        """A new order: this one with ``v`` moved to rank ``position``.
        Only the vertices ranked between ``v``'s old rank and
        ``position`` shift (by one) — the arrays are copied and that
        span re-ranked, with nothing else to re-check — and ``self`` is
        left as it was."""
        if not 0 <= position < len(self):
            raise ValueError(f"rank {position} is outside the order (0..{len(self) - 1})")
        old = self._rank[v]
        low, high = min(old, position), max(old, position)
        span = list(self._by_rank[low : high + 1])
        span.remove(v)
        span.insert(position - low, v)
        order = VertexOrder.__new__(VertexOrder)
        order._by_rank = self._by_rank[:]
        order._by_rank[low : high + 1] = array("q", span)
        order._rank = rank = self._rank[:]
        for offset, w in enumerate(span, low):
            rank[w] = offset
        return order

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VertexOrder):
            return NotImplemented
        return self._by_rank == other._by_rank

    def __hash__(self) -> int:
        return hash(tuple(self._by_rank))


def degree_order(graph: DiGraph) -> VertexOrder:
    """The paper's default order (Section II-B).

    ``ord(v) = (d_in(v)+1) * (d_out(v)+1) + ID(v)/(n+1)``; the fractional
    term means a *larger* id wins a degree tie.  Degrees are taken on the
    original graph ``G``.
    """
    ordering = sorted(
        graph.vertices(),
        key=lambda v: ((graph.in_degree(v) + 1) * (graph.out_degree(v) + 1), v),
        reverse=True,
    )
    return VertexOrder(ordering)


def out_degree_order(graph: DiGraph) -> VertexOrder:
    """Ablation order: sort by out-degree only (ids break ties)."""
    ordering = sorted(
        graph.vertices(), key=lambda v: (graph.out_degree(v), v), reverse=True
    )
    return VertexOrder(ordering)


def in_degree_order(graph: DiGraph) -> VertexOrder:
    """Ablation order: sort by in-degree only (ids break ties)."""
    ordering = sorted(
        graph.vertices(), key=lambda v: (graph.in_degree(v), v), reverse=True
    )
    return VertexOrder(ordering)


def degree_sum_order(graph: DiGraph) -> VertexOrder:
    """Ablation order: sort by total degree (ids break ties)."""
    ordering = sorted(
        graph.vertices(),
        key=lambda v: (graph.in_degree(v) + graph.out_degree(v), v),
        reverse=True,
    )
    return VertexOrder(ordering)


def random_order(graph: DiGraph, seed: int = 0) -> VertexOrder:
    """Ablation order: a seeded random permutation."""
    ordering = list(graph.vertices())
    _random.Random(seed).shuffle(ordering)
    return VertexOrder(ordering)


ORDER_STRATEGIES = {
    "degree": degree_order,
    "out-degree": out_degree_order,
    "in-degree": in_degree_order,
    "degree-sum": degree_sum_order,
    "random": random_order,
}
"""Named order strategies for the ablation benchmarks."""
