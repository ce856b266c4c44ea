"""Exact transitive closure — the ground-truth reachability oracle.

Stores one bitset of descendants per SCC of the condensation, computed
by a reverse-topological sweep with big-int bitwise ORs.  ``O(n²/64)``
space, so meant for tests and small/medium graphs (the paper's Related
Work explains why TC does not scale as an index).
"""

from __future__ import annotations

from repro.graph.digraph import DiGraph
from repro.graph.scc import strongly_connected_components


class TransitiveClosure:
    """Answers ``s → t`` exactly for every pair."""

    def __init__(self, graph: DiGraph):
        """``graph`` needs only ``num_vertices`` and an iterable
        ``out_neighbors(v)``: a :class:`DiGraph`, or the scenario
        audit's mutable adjacency."""
        self._n = graph.num_vertices
        component_of = [0] * self._n
        closure: list[int] = []
        # Tarjan emits components in reverse topological order: every
        # out-neighbor of component c is emitted before c, so a single
        # forward sweep accumulates full descendant bitsets.
        for c, members in enumerate(strongly_connected_components(graph)):
            for v in members:
                component_of[v] = c
            bits = 1 << c
            for v in members:
                for w in graph.out_neighbors(v):
                    d = component_of[w]
                    if d != c:
                        bits |= closure[d]
            closure.append(bits)
        self._component_of = component_of
        self._closure = closure

    @property
    def num_vertices(self) -> int:
        """Number of vertices covered."""
        return self._n

    def query(self, s: int, t: int) -> bool:
        """True iff ``s`` can reach ``t`` (every vertex reaches itself)."""
        cs = self._component_of[s]
        ct = self._component_of[t]
        return bool(self._closure[cs] >> ct & 1)

    def add_edge(self, u: int, v: int) -> None:
        """Account for a new edge ``u → v``: whatever reaches ``u`` now
        reaches all that ``v`` reached (a path leaves the new edge for
        the last time at ``v``).  A cycle it closes leaves components
        unmerged, and every query exact."""
        cu = self._component_of[u]
        gained = self._closure[self._component_of[v]]
        if gained | self._closure[cu] == self._closure[cu]:
            return
        mask = 1 << cu
        closure = self._closure
        for c, bits in enumerate(closure):
            if bits & mask:
                closure[c] = bits | gained

    def add_vertex(self) -> None:
        """Account for a new isolated vertex, numbered ``num_vertices``."""
        c = len(self._closure)
        self._component_of.append(c)
        self._closure.append(1 << c)
        self._n += 1

    def descendants(self, v: int) -> set[int]:
        """``DES(v)`` including ``v`` itself."""
        bits = self._closure[self._component_of[v]]
        component_of = self._component_of
        return {w for w in range(self._n) if bits >> component_of[w] & 1}

    def reachable_pairs(self) -> int:
        """Number of ordered pairs ``(s, t)`` with ``s → t``."""
        component_sizes = [0] * len(self._closure)
        for v in range(self._n):
            component_sizes[self._component_of[v]] += 1
        total = 0
        for c, bits in enumerate(self._closure):
            reachable = 0
            d = 0
            while bits:
                if bits & 1:
                    reachable += component_sizes[d]
                bits >>= 1
                d += 1
            total += component_sizes[c] * reachable
        return total
