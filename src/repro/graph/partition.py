"""Vertex partitioners: map vertices onto simulated cluster nodes.

The paper maps "graph vertices to different computation nodes via vertex
IDs" — a hash partitioner.  Alternatives are provided for ablations.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from array import array
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.graph.digraph import DiGraph


class Partitioner(ABC):
    """Assigns each vertex to one of ``num_nodes`` computation nodes."""

    def __init__(self, num_nodes: int):
        if num_nodes < 1:
            raise ValueError("need at least one computation node")
        self.num_nodes = num_nodes

    @abstractmethod
    def node_of(self, vertex: int) -> int:
        """The node id in ``[0, num_nodes)`` owning ``vertex``."""

    def partition(self, num_vertices: int) -> list[list[int]]:
        """Materialize per-node vertex lists."""
        parts: list[list[int]] = [[] for _ in range(self.num_nodes)]
        for v in range(num_vertices):
            parts[self.node_of(v)].append(v)
        return parts


class HashPartitioner(Partitioner):
    """The paper's scheme: node = id mod num_nodes (after a bit mix).

    A multiplicative mix decorrelates node assignment from generator id
    patterns while remaining deterministic.
    """

    _MIX = 0x9E3779B97F4A7C15

    def node_of(self, vertex: int) -> int:
        mixed = (vertex * self._MIX) & 0xFFFFFFFFFFFFFFFF
        return (mixed >> 32) % self.num_nodes


class ModuloPartitioner(Partitioner):
    """Plain ``id % num_nodes`` — the literal reading of the paper."""

    def node_of(self, vertex: int) -> int:
        return vertex % self.num_nodes


class RangePartitioner(Partitioner):
    """Contiguous id ranges per node (needs the vertex count up front)."""

    def __init__(self, num_nodes: int, num_vertices: int):
        super().__init__(num_nodes)
        if num_vertices < 0:
            raise ValueError("num_vertices must be non-negative")
        self.num_vertices = num_vertices
        self._chunk = max(1, -(-num_vertices // num_nodes))  # ceil division

    def node_of(self, vertex: int) -> int:
        return min(vertex // self._chunk, self.num_nodes - 1)


class BlockPartitioner(Partitioner):
    """Round-robin blocks of ``block_size`` consecutive ids."""

    def __init__(self, num_nodes: int, block_size: int = 64):
        super().__init__(num_nodes)
        if block_size < 1:
            raise ValueError("block_size must be positive")
        self.block_size = block_size

    def node_of(self, vertex: int) -> int:
        return (vertex // self.block_size) % self.num_nodes


def node_assignment(
    partitioner: Partitioner, num_vertices: int, start: int = 0
) -> array:
    """Materialize the vertex → node map as a compact ``array('q')``.

    Every executor that needs the full assignment — the simulator
    engine, the multiprocessing engine, the multi-core memory
    estimator, and the label store — goes through this one helper, so
    a partitioner change can never make two execution paths disagree on
    vertex placement.  ``start`` skips the vertices a caller already
    placed (the store extends its map when the index gains a vertex).
    """
    return array("q", map(partitioner.node_of, range(start, num_vertices)))


class Routing(NamedTuple):
    """Where every vertex lives, and how many of its out- / in-neighbours
    (per edge occurrence) live on the same node: a neighbour fan-out adds
    the count to its node's same-node deliveries in O(1) instead of
    looking every destination up.
    """

    node_of: array
    same_out: array
    same_in: array

    @classmethod
    def of(cls, graph: "DiGraph", node_of: array) -> "Routing":
        """Count same-node neighbours under the assignment ``node_of``."""
        same_out = array("q", bytes(8 * graph.num_vertices))
        same_in = array("q", bytes(8 * graph.num_vertices))
        for u, v in graph.edges():
            if node_of[u] == node_of[v]:
                same_out[u] += 1
                same_in[v] += 1
        return cls(node_of, same_out, same_in)


PARTITIONER_STRATEGIES = {
    "hash": lambda nodes, n: HashPartitioner(nodes),
    "modulo": lambda nodes, n: ModuloPartitioner(nodes),
    "range": lambda nodes, n: RangePartitioner(nodes, n),
    "block": lambda nodes, n: BlockPartitioner(nodes),
}
"""Factories ``(num_nodes, num_vertices) -> Partitioner`` for ablations."""
