"""BFL — Bloom Filter Labeling (Su et al., TKDE'16): ``BFL^C``.

The index-assisted competitor of Exp 2.  Each vertex ``v`` carries a
Bloom-filter summary of ``DES(v)`` (out-label) and ``ANC(v)``
(in-label) plus a DFS-tree interval:

- if ``t`` lies in ``s``'s DFS subtree, ``s → t`` — answered positively
  from the interval alone;
- if ``bloom_out(t) ⊄ bloom_out(s)`` then ``DES(t) ⊄ DES(s)`` and
  ``s ↛ t`` — answered negatively from labels alone;
- otherwise the query falls back to the label-pruned graph search of
  :class:`~repro.baselines.search.FilterSearchIndex`, which is why BFL
  must keep the graph in memory at query time (the key disadvantage the
  paper exploits on distributed graphs).

Cyclic graphs are handled through SCC condensation — this is where the
DFS post-order requirement comes from, and why a distributed version
needs distributed DFS (see :mod:`repro.baselines.bfl_distributed`).
"""

from __future__ import annotations

import random

from repro.baselines.search import FilterSearchIndex
from repro.graph.digraph import DiGraph
from repro.graph.scc import Condensation, condensation
from repro.pregel.serial import SerialMeter

#: Default Bloom-filter width in bits (the BFL paper's default setup
#: uses 160-bit filters).
DEFAULT_S_BITS = 160


class BflIndex(FilterSearchIndex):
    """A built BFL index; query via :meth:`query`."""

    def __init__(
        self,
        graph: DiGraph,
        cond: Condensation,
        pre: list[int],
        post: list[int],
        bloom_out: list[int],
        bloom_in: list[int],
        s_bits: int,
    ):
        # Interval compare plus two Bloom subset tests over s_bits-wide
        # filters (one word-op per 64 bits).
        super().__init__(graph, cond, 2 + 2 * max(1, s_bits // 64))
        self._pre = pre
        self._post = post
        self._bloom_out = bloom_out
        self._bloom_in = bloom_in
        self._s_bits = s_bits

    def size_bytes(self) -> int:
        """Index size: two Bloom filters + one interval per component,
        plus the vertex-to-component map."""
        per_component = 2 * (self._s_bits // 8) + 16
        return (
            len(self._bloom_out) * per_component + 4 * self._graph.num_vertices
        )

    def confirms(self, cs: int, ct: int) -> bool:
        """``ct`` lies in the DFS subtree of ``cs``."""
        return self._pre[cs] <= self._pre[ct] and self._post[ct] <= self._post[cs]

    def refutes(self, cs: int, ct: int) -> bool:
        """A Bloom-filter subset test fails."""
        if self._bloom_out[ct] & ~self._bloom_out[cs]:
            return True  # DES(t) not a subset of DES(s)
        if self._bloom_in[cs] & ~self._bloom_in[ct]:
            return True  # ANC(s) not a subset of ANC(t)
        return False


def build_bfl(
    graph: DiGraph,
    s_bits: int = DEFAULT_S_BITS,
    seed: int = 0,
    meter: SerialMeter | None = None,
) -> BflIndex:
    """Build a BFL index (centralized, ``BFL^C``).

    Parameters
    ----------
    graph:
        Input graph (cycles handled via condensation).
    s_bits:
        Bloom-filter width.
    seed:
        Seed for the vertex-hash assignment.
    meter:
        Optional accounting/memory-gate meter (charges the condensation
        DFS, the interval DFS, and the Bloom merges).
    """
    n = graph.num_vertices
    if meter is not None:
        meter.check_memory(
            graph.memory_bytes() + n * (2 * s_bits // 8 + 24), what="BFL^C"
        )
        meter.charge(graph.num_edges + n)  # condensation DFS
    cond = condensation(graph)
    dag = cond.dag
    num_components = dag.num_vertices

    pre, post = _dfs_intervals(dag, meter)

    rng = random.Random(seed)
    word_units = max(1, s_bits // 64)
    bloom_out = [0] * num_components
    bloom_in = [0] * num_components
    # Tarjan emission order: out-neighbors of c precede c, so ascending
    # order merges descendants and descending order merges ancestors.
    for c in range(num_components):
        bits = 1 << rng.randrange(s_bits)
        for d in dag.out_neighbors(c):
            bits |= bloom_out[d]
            if meter is not None:
                meter.charge(word_units)
        bloom_out[c] = bits
    rng = random.Random(seed)  # same hash positions for the in side
    hashes = [1 << rng.randrange(s_bits) for _ in range(num_components)]
    for c in range(num_components - 1, -1, -1):
        bits = hashes[c]
        for d in dag.in_neighbors(c):
            bits |= bloom_in[d]
            if meter is not None:
                meter.charge(word_units)
        bloom_in[c] = bits
    return BflIndex(graph, cond, pre, post, bloom_out, bloom_in, s_bits)


def _dfs_intervals(
    dag: DiGraph, meter: SerialMeter | None
) -> tuple[list[int], list[int]]:
    """Pre/post numbering of a DFS forest over the DAG: the subtree of
    ``c`` occupies pre-order positions ``[pre[c], post[c]]``."""
    n = dag.num_vertices
    pre = [-1] * n
    post = [0] * n
    counter = 0
    units = 0
    # Tarjan emits components in reverse topological order, so high ids
    # are sources: rooting the DFS there gives deep, useful subtrees.
    for root in range(n - 1, -1, -1):
        if pre[root] != -1:
            continue
        stack = [(root, iter(dag.out_neighbors(root)))]
        pre[root] = counter
        counter += 1
        while stack:
            c, neighbors = stack[-1]
            advanced = False
            for d in neighbors:
                units += 1
                if pre[d] == -1:
                    pre[d] = counter
                    counter += 1
                    stack.append((d, iter(dag.out_neighbors(d))))
                    advanced = True
                    break
            if not advanced:
                post[c] = counter - 1
                stack.pop()
    if meter is not None:
        meter.charge(units + n)
    return pre, post
