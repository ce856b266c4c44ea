"""Immutable directed graph stored in compressed sparse row (CSR) form.

The labeling algorithms only ever need fast iteration over out-neighbors
and in-neighbors, so :class:`DiGraph` keeps two CSR structures (forward
and reverse) built once from an edge list's source and target columns.
Vertices are the integers ``0 .. n-1``.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import deque
from itertools import accumulate, chain, islice, pairwise, repeat
from operator import le, sub
from typing import Iterable, Iterator, Sequence


class DiGraph:
    """A directed graph ``G(V, E)`` with ``V = {0, .., n-1}``.

    Parameters
    ----------
    num_vertices:
        Number of vertices ``n``.  Vertex ids are dense integers.
    edges:
        Iterable of ``(u, v)`` pairs.  Parallel edges are kept as given
        (use :class:`~repro.graph.builder.GraphBuilder` to deduplicate);
        self-loops are allowed (the paper does not forbid them).

    Notes
    -----
    The structure is immutable: algorithms that conceptually delete
    vertices (e.g. TOL's shrinking graph ``G_i``) express deletion with
    vertex filters instead of mutating the graph.
    """

    __slots__ = (
        "_num_vertices",
        "_fwd_offsets",
        "_fwd_targets",
        "_rev_offsets",
        "_rev_targets",
    )

    def __init__(self, num_vertices: int, edges: Iterable[tuple[int, int]]):
        edge_list = list(edges)
        sources, targets = zip(*edge_list) if edge_list else ((), ())
        self._set_columns(num_vertices, sources, targets)

    @classmethod
    def from_columns(
        cls, num_vertices: int, sources: Sequence[int], targets: Sequence[int]
    ) -> "DiGraph":
        """The graph whose edges are ``(sources[i], targets[i])``: the
        same graph as ``DiGraph(num_vertices, zip(sources, targets))``,
        without making the pairs."""
        graph = cls.__new__(cls)
        graph._set_columns(num_vertices, sources, targets)
        return graph

    def _set_columns(self, n: int, sources: Sequence[int], targets: Sequence[int]) -> None:
        if n < 0:
            raise ValueError("num_vertices must be non-negative")
        if len(sources) != len(targets):
            raise ValueError("the source and target columns differ in length")
        if sources and (
            min(min(sources), min(targets)) < 0 or max(max(sources), max(targets)) >= n
        ):
            u, v = next(
                (u, v) for u, v in zip(sources, targets) if not (0 <= u < n and 0 <= v < n)
            )
            raise ValueError(f"edge ({u}, {v}) out of range [0, {n})")
        self._num_vertices = n
        self._fwd_offsets, self._fwd_targets = _group(n, sources, targets)
        self._rev_offsets, self._rev_targets = _group(n, targets, sources)

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices ``|V|``."""
        return self._num_vertices

    @property
    def num_edges(self) -> int:
        """Number of edges ``|E|``."""
        return len(self._fwd_targets)

    def vertices(self) -> range:
        """All vertex ids as a range."""
        return range(self._num_vertices)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate over all edges ``(u, v)`` in CSR (source-major) order."""
        offsets = self._fwd_offsets
        degrees = map(sub, islice(offsets, 1, None), offsets)
        sources = chain.from_iterable(map(repeat, range(self._num_vertices), degrees))
        return zip(sources, self._fwd_targets)

    # ------------------------------------------------------------------
    # Neighborhoods
    # ------------------------------------------------------------------
    def out_neighbors(self, v: int) -> memoryview:
        """Out-neighbor ids ``N_out(v)`` (zero-copy view)."""
        return memoryview(self._fwd_targets)[
            self._fwd_offsets[v] : self._fwd_offsets[v + 1]
        ]

    def in_neighbors(self, v: int) -> memoryview:
        """In-neighbor ids ``N_in(v)`` (zero-copy view)."""
        return memoryview(self._rev_targets)[
            self._rev_offsets[v] : self._rev_offsets[v + 1]
        ]

    def out_degree(self, v: int) -> int:
        """Out-degree ``d_out(v)``."""
        return self._fwd_offsets[v + 1] - self._fwd_offsets[v]

    def in_degree(self, v: int) -> int:
        """In-degree ``d_in(v)``."""
        return self._rev_offsets[v + 1] - self._rev_offsets[v]

    def adjacency_lists(self) -> tuple[list[list[int]], list[list[int]]]:
        """``(out, in)``: ``N_out(v)`` and ``N_in(v)`` of every vertex as a
        list, in CSR order — one ``tolist()`` per target array, sliced
        per vertex."""
        return (
            _slices(self._fwd_offsets, self._fwd_targets),
            _slices(self._rev_offsets, self._rev_targets),
        )

    def has_edge(self, u: int, v: int) -> bool:
        """True if the edge ``(u, v)`` is present."""
        return v in self.out_neighbors(u)

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def reverse(self) -> "DiGraph":
        """The inverse graph ``Ḡ`` with every edge direction flipped."""
        inverse = DiGraph.__new__(DiGraph)
        inverse._num_vertices = self._num_vertices
        inverse._fwd_offsets = self._rev_offsets
        inverse._fwd_targets = self._rev_targets
        inverse._rev_offsets = self._fwd_offsets
        inverse._rev_targets = self._fwd_targets
        return inverse

    def edge_fraction(self, fraction: float, seed: int = 0) -> "DiGraph":
        """A test graph containing a deterministic prefix of the edges.

        Implements the paper's Exp-6 protocol: edges are split into
        groups and the *i*-th test graph contains the first ``i`` groups.
        Edges are shuffled with ``seed`` before slicing so every group is
        a uniform sample; the vertex set is unchanged.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must lie in [0, 1]")
        import random

        edge_list = list(self.edges())
        random.Random(seed).shuffle(edge_list)
        keep = round(len(edge_list) * fraction)
        return DiGraph(self._num_vertices, edge_list[:keep])

    def induced_subgraph(self, keep: Sequence[bool]) -> "DiGraph":
        """Subgraph induced by vertices with ``keep[v]`` true.

        Vertex ids are preserved (non-kept vertices become isolated),
        which is what the shrinking-graph formulation of TOL needs.
        """
        if len(keep) != self._num_vertices:
            raise ValueError("keep mask must cover every vertex")
        kept_edges = [(u, v) for u, v in self.edges() if keep[u] and keep[v]]
        return DiGraph(self._num_vertices, kept_edges)

    # ------------------------------------------------------------------
    # Size accounting (used by the simulated memory gate)
    # ------------------------------------------------------------------
    def memory_bytes(self) -> int:
        """Estimated in-memory size of the CSR representation.

        Mirrors what a C++ implementation would allocate: two 8-byte
        offset arrays and two 4-byte target arrays.
        """
        offsets = 2 * 8 * (self._num_vertices + 1)
        targets = 2 * 4 * self.num_edges
        return offsets + targets

    # ------------------------------------------------------------------
    # Dunder
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DiGraph(n={self._num_vertices}, m={self.num_edges})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiGraph):
            return NotImplemented
        return self._num_vertices == other._num_vertices and sorted(
            self.edges()
        ) == sorted(other.edges())

    def __hash__(self) -> int:
        return hash((self._num_vertices, self.num_edges))


def _group(n: int, keys: Sequence[int], values: Sequence[int]) -> tuple[array, array]:
    """CSR ``(offsets, targets)`` of ``values`` grouped by ``keys`` (each in
    ``range(n)``): a stable counting sort, so each group keeps column
    order."""
    if all(map(le, keys, islice(keys, 1, None))):
        # Already grouped, as every file write_edge_list writes and every
        # edges() stream is: nothing moves.
        offsets = array("q", map(bisect_left, repeat(keys), range(n + 1)))
        return offsets, array("q", values)
    groups: list[list[int]] = [[] for _ in range(n)]
    # One append per edge, every call made from C; the deque only drains.
    deque(map(list.append, map(groups.__getitem__, keys), values), maxlen=0)
    offsets = array("q", accumulate(map(len, groups), initial=0))
    return offsets, array("q", chain.from_iterable(groups))


def _slices(offsets, targets) -> list[list[int]]:
    flat = targets.tolist()
    return [flat[a:b] for a, b in pairwise(offsets)]
