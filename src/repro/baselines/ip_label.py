"""IP — Independent-Permutation labeling (Wei et al., VLDB'14).

Related-work baseline [8]: an index-assisted scheme whose labels are
*k-min sketches*.  Under a random permutation ``π`` of the vertices,
``sketch_out(v)`` keeps the ``k`` smallest ``π``-values of ``DES(v)``
(and symmetrically ``sketch_in`` over ``ANC(v)``).  If ``s → t`` then
``DES(t) ⊆ DES(s)``, so every member of ``sketch_out(t)`` smaller than
``max(sketch_out(s))`` must appear in ``sketch_out(s)`` — a violated
containment *refutes* reachability from the labels alone.  When a
sketch is *complete* (the reachable set had fewer than ``k`` members),
the subset test is exact and can also answer positively.  Everything
else falls back to a sketch-pruned DFS, as with BFL and GRAIL.
"""

from __future__ import annotations

import random

from repro.baselines.search import FilterSearchIndex
from repro.graph.digraph import DiGraph
from repro.graph.scc import Condensation, condensation
from repro.pregel.serial import SerialMeter

DEFAULT_K = 16


class _SketchSide:
    """Per-direction sketches over the condensation."""

    __slots__ = ("sketches", "complete")

    def __init__(self, sketches: list[list[int]], complete: bytearray):
        self.sketches = sketches
        self.complete = complete

    def refutes(self, big: int, small: int) -> bool:
        """True when 'reachable set of `small` ⊆ reachable set of
        `big`' is disproven by the sketches."""
        sketch_big = self.sketches[big]
        sketch_small = self.sketches[small]
        if self.complete[big]:
            # Exact set: plain subset test.
            big_set = set(sketch_big)
            return any(x not in big_set for x in sketch_small)
        if not sketch_big:
            return bool(sketch_small)
        threshold = sketch_big[-1]  # max of the k smallest
        big_set = set(sketch_big)
        return any(x < threshold and x not in big_set for x in sketch_small)

    def confirms(self, big: int, small: int) -> bool:
        """True when both sketches are exact and subset holds."""
        if not (self.complete[big] and self.complete[small]):
            return False
        big_set = set(self.sketches[big])
        return all(x in big_set for x in self.sketches[small])


class IpIndex(FilterSearchIndex):
    """A built IP index; query via :meth:`query`."""

    def __init__(self, graph: DiGraph, cond: Condensation, k: int,
                 out_sides: list[_SketchSide], in_sides: list[_SketchSide]):
        super().__init__(graph, cond, 1 + 2 * k * len(out_sides))
        self._out_sides = out_sides
        self._in_sides = in_sides

    @property
    def num_permutations(self) -> int:
        """Number of independent permutations."""
        return len(self._out_sides)

    def size_bytes(self) -> int:
        """Sketch entries (4 bytes each) plus the component map."""
        entries = sum(
            len(s) for side in self._out_sides + self._in_sides
            for s in side.sketches
        )
        return 4 * entries + 4 * self._graph.num_vertices

    def refutes(self, cs: int, ct: int) -> bool:
        """Some sketch disproves ``DES(ct) ⊆ DES(cs)`` or
        ``ANC(cs) ⊆ ANC(ct)``."""
        return any(
            side.refutes(cs, ct) for side in self._out_sides
        ) or any(side.refutes(ct, cs) for side in self._in_sides)

    def confirms(self, cs: int, ct: int) -> bool:
        """Two exact descendant sketches with ``DES(ct) ⊆ DES(cs)``."""
        return any(side.confirms(cs, ct) for side in self._out_sides)


def build_ip(
    graph: DiGraph,
    k: int = DEFAULT_K,
    num_permutations: int = 2,
    seed: int = 0,
    meter: SerialMeter | None = None,
) -> IpIndex:
    """Build an IP index with ``num_permutations`` independent sketches."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if num_permutations < 1:
        raise ValueError("need at least one permutation")
    if meter is not None:
        meter.check_memory(
            graph.memory_bytes()
            + 8 * k * num_permutations * graph.num_vertices,
            what="IP",
        )
        meter.charge(graph.num_edges + graph.num_vertices)
    cond = condensation(graph)
    dag = cond.dag
    out_sides = []
    in_sides = []
    for perm_index in range(num_permutations):
        rng = random.Random(seed * 7_368_787 + perm_index)
        pi = list(range(dag.num_vertices))
        rng.shuffle(pi)
        out_sides.append(_build_side(dag, pi, k, forward=True, meter=meter))
        in_sides.append(_build_side(dag, pi, k, forward=False, meter=meter))
    return IpIndex(graph, cond, k, out_sides, in_sides)


def _build_side(
    dag: DiGraph, pi: list[int], k: int, forward: bool, meter
) -> _SketchSide:
    """Merge k-min sketches over the DAG in (reverse) emission order."""
    n = dag.num_vertices
    sketches: list[list[int]] = [[] for _ in range(n)]
    complete = bytearray(n)
    order = range(n) if forward else range(n - 1, -1, -1)
    for c in order:
        neighbors = dag.out_neighbors(c) if forward else dag.in_neighbors(c)
        merged = {pi[c]}
        all_complete = True
        for d in neighbors:
            merged.update(sketches[d])
            all_complete = all_complete and bool(complete[d])
            if meter is not None:
                meter.charge(len(sketches[d]) + 1)
        smallest = sorted(merged)
        if len(smallest) <= k and all_complete:
            complete[c] = 1
        sketches[c] = smallest[:k]
    return _SketchSide(sketches, complete)
