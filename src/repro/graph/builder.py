"""Mutable edge accumulator that produces an immutable :class:`DiGraph`,
and the same cleaning — self-loops and duplicate edges dropped, first
occurrences kept — done on two edge columns at once."""

from __future__ import annotations

from itertools import compress
from operator import itemgetter, ne
from typing import Iterable, Sequence

from repro.graph.digraph import DiGraph


def distinct_edges(
    sources: Sequence[int], targets: Sequence[int], dedup: bool = True
) -> tuple[Sequence[int], Sequence[int]]:
    """The edge columns ``(sources, targets)`` without self-loops and,
    with ``dedup``, without repeats: each kept edge at its first
    occurrence, as a default :class:`GraphBuilder` would hold them after
    ``add_edge`` of every pair.  Returns the columns themselves when
    nothing is dropped."""
    edges = compress(zip(sources, targets), map(ne, sources, targets))
    kept = dict.fromkeys(edges) if dedup else list(edges)
    if len(kept) == len(sources):
        return sources, targets
    return list(map(itemgetter(0), kept)), list(map(itemgetter(1), kept))


class GraphBuilder:
    """Accumulates edges, then freezes them into a :class:`DiGraph`.

    Parameters
    ----------
    num_vertices:
        Optional fixed vertex count.  When omitted, the count is inferred
        as ``max(vertex id) + 1`` at build time.
    dedup:
        Drop duplicate edges (default ``True``).
    allow_self_loops:
        Keep ``(v, v)`` edges (default ``False``: they are dropped, which
        matches how the reachability datasets are normally cleaned).
    """

    def __init__(
        self,
        num_vertices: int | None = None,
        dedup: bool = True,
        allow_self_loops: bool = False,
    ):
        self._num_vertices = num_vertices
        self._dedup = dedup
        self._allow_self_loops = allow_self_loops
        self._sources: list[int] = []
        self._targets: list[int] = []
        self._seen: set[tuple[int, int]] | None = set() if dedup else None

    def add_edge(self, u: int, v: int) -> "GraphBuilder":
        """Record the directed edge ``(u, v)``; returns self for chaining."""
        if u < 0 or v < 0:
            raise ValueError(f"vertex ids must be non-negative, got ({u}, {v})")
        if u == v and not self._allow_self_loops:
            return self
        if self._seen is not None:
            if (u, v) in self._seen:
                return self
            self._seen.add((u, v))
        self._sources.append(u)
        self._targets.append(v)
        return self

    def add_edges(self, edges: Iterable[tuple[int, int]]) -> "GraphBuilder":
        """Record many edges."""
        for u, v in edges:
            self.add_edge(u, v)
        return self

    @property
    def num_edges(self) -> int:
        """Edges recorded so far."""
        return len(self._sources)

    def build(self) -> DiGraph:
        """Freeze into an immutable :class:`DiGraph`."""
        top = max(max(self._sources, default=-1), max(self._targets, default=-1))
        n = self._num_vertices
        if n is None:
            n = top + 1
        elif top >= n:
            raise ValueError(f"edge references vertex {top} >= num_vertices {n}")
        return DiGraph.from_columns(n, self._sources, self._targets)
