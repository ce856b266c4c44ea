"""TOL — Total Order Labeling (Algorithm 1; Zhu et al., SIGMOD'14).

The serial gold standard.  Every distributed algorithm in this library
must produce an index *identical* to TOL's.

Two implementations are provided:

- :func:`tol_index_reference` follows Algorithm 1 literally: in round
  ``i`` it collects ``DES^{G_i}(v_i)`` / ``ANC^{G_i}(v_i)`` in full and
  applies the pruning test to *every* member.
- :func:`tol_index` additionally *blocks expansion* at pruned vertices
  (the pruned-landmark optimization): if ``L_out(v_i) ∩ L_in(w) ≠ ∅``
  there is a higher-order hop ``s`` with ``v_i → s → w``, and for any
  ``x`` beyond ``w`` the walk ``v_i → s → w → x`` shows ``x`` is pruned
  too, so the search need not continue through ``w``.

Both are equivalent (asserted by the test suite on thousands of random
graphs); benchmarks use the optimized one, as the TOL authors do.

A BFS in the shrinking graph ``G_i`` (all higher-order vertices deleted)
is exactly a trimmed BFS in ``G`` (higher-order vertices block their
branch), so neither implementation materializes ``G_i``.
"""

from __future__ import annotations

from collections import deque

from repro.graph.digraph import DiGraph
from repro.graph.order import VertexOrder, degree_order
from repro.pregel.serial import SerialMeter

#: Estimated per-vertex bookkeeping bytes for the memory gate: queue,
#: status array, and two label-set headers, as a C++ TOL would allocate.
_TOL_VERTEX_OVERHEAD = 40


def tol_index_reference(graph: DiGraph, order: VertexOrder | None = None):
    """Algorithm 1, literally.  Returns a :class:`ReachabilityIndex`.

    Quadratic in the worst case — use :func:`tol_index` outside tests.
    """
    return _tol(graph, order, prune_expansion=False, meter=None)


def tol_index(
    graph: DiGraph,
    order: VertexOrder | None = None,
    meter: SerialMeter | None = None,
):
    """Production TOL with pruned expansion.

    Parameters
    ----------
    graph:
        Input graph (cyclic graphs allowed, as in the paper).
    order:
        Vertex order; defaults to the paper's degree-based order.
    meter:
        Optional :class:`SerialMeter` for cost accounting (charges one
        unit per edge scan and per label-entry comparison) and for the
        single-node memory gate.
    """
    return _tol(graph, order, prune_expansion=True, meter=meter)


def _tol(
    graph: DiGraph,
    order: VertexOrder | None,
    prune_expansion: bool,
    meter: SerialMeter | None,
):
    from repro.core.labels import ReachabilityIndex

    return ReachabilityIndex.from_label_lists(
        *tol_label_sets(graph, order, prune_expansion, meter)
    )


def tol_label_sets(
    graph: DiGraph,
    order: VertexOrder | None = None,
    prune_expansion: bool = True,
    meter: SerialMeter | None = None,
) -> tuple[list[set[int]], list[set[int]]]:
    """The TOL rounds themselves: ``(L_in, L_out)`` as one mutable set
    per vertex, before any packing.  :func:`tol_index` packs these into
    a :class:`ReachabilityIndex`; the dynamic index keeps them as they
    are, because sets are what it maintains."""
    if order is None:
        order = degree_order(graph)
    n = graph.num_vertices
    if meter is not None:
        index_bytes_guess = 16 * n  # refined as labels grow
        meter.check_memory(
            graph.memory_bytes() + _TOL_VERTEX_OVERHEAD * n + index_bytes_guess,
            what="TOL",
        )

    rank = order.ranks
    reverse = graph.reverse()
    in_label_sets: list[set[int]] = [set() for _ in range(n)]
    out_label_sets: list[set[int]] = [set() for _ in range(n)]
    # Scratch: last_seen[w] == current round marks w visited this round.
    last_seen = [-1] * n

    for round_no in range(n):
        v = order.vertex_at_rank(round_no)
        # Round i, forward: add v to L_in(w) for surviving descendants.
        _label_one_direction(
            graph,
            v,
            rank,
            out_label_sets[v],
            in_label_sets,
            last_seen,
            2 * round_no,
            prune_expansion,
            meter,
        )
        # Round i, backward: add v to L_out(w) for surviving ancestors.
        # Reading L_in(v) *after* the forward pass is safe: the only
        # label added this round so far is v itself, and v can never be
        # in L_out(w) yet, so the intersections below match L^i exactly.
        _label_one_direction(
            reverse,
            v,
            rank,
            in_label_sets[v],
            out_label_sets,
            last_seen,
            2 * round_no + 1,
            prune_expansion,
            meter,
        )

    return in_label_sets, out_label_sets


def _label_one_direction(
    graph: DiGraph,
    v: int,
    rank,
    source_labels: set[int],
    target_labels: list[set[int]],
    last_seen: list[int],
    stamp: int,
    prune_expansion: bool,
    meter: SerialMeter | None,
) -> None:
    """One half of TOL round ``i``: a trimmed BFS from ``v`` that adds
    ``v`` to ``target_labels[w]`` whenever the pruning test passes."""
    v_rank = rank[v]
    queue = deque([v])
    last_seen[v] = stamp
    units = 0
    while queue:
        w = queue.popleft()
        # Pruning operation (Algorithm 1 lines 8/11).
        candidate_labels = target_labels[w]
        small, large = (
            (source_labels, candidate_labels)
            if len(source_labels) < len(candidate_labels)
            else (candidate_labels, source_labels)
        )
        units += len(small) + 1
        pruned = any(x in large for x in small)
        if not pruned:
            candidate_labels.add(v)
        if pruned and prune_expansion:
            continue
        for x in graph.out_neighbors(w):
            units += 1
            if last_seen[x] != stamp and rank[x] > v_rank:
                last_seen[x] = stamp
                queue.append(x)
        if meter is not None and units > 4096:
            meter.charge(units)
            units = 0
    if meter is not None and units:
        meter.charge(units)
