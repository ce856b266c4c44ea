"""TOL — Total Order Labeling (Algorithm 1; Zhu et al., SIGMOD'14).

The serial gold standard.  Every distributed algorithm in this library
must produce an index *identical* to TOL's.

:func:`pruned_bfs` is the one loop under it: a BFS from a hub ``v``
that walks only lower-order vertices (a BFS in the shrinking graph
``G_i`` is a trimmed BFS in ``G``, so ``G_i`` is never materialized),
tests each discovered vertex ``w`` once — ``L_out(v) ∩ L_in(w) = ∅``,
Algorithm 1's pruning operation — and walks on only through vertices
that pass: a failure means a higher-order hop ``s`` with ``v → s → w``,
and for any ``x`` beyond ``w`` the walk ``v → s → w → x`` shows ``x``
fails too.  :func:`tol_label_sets` runs it forward and backward from
every vertex in rank order; :mod:`repro.core.dynamic` runs the same
loop over a cone of rows to repair a delete or a promote.

:func:`tol_index_reference` is Algorithm 1 literally — collect
``DES^{G_i}(v_i)`` / ``ANC^{G_i}(v_i)`` in full with
:func:`~repro.graph.traversal.trimmed_bfs`, test *every* member — and
shares no loop with the kernel it checks (the test suite asserts the
two equal on thousands of random graphs).

Cost accounting stays out of the loop.  A metered build charges one
unit per edge scanned and ``min(|witnesses|, |row|) + 1`` per test,
worked out from the walk's queue and visited set after each half-round:
every vertex is tested once, and neither the witness set nor a row not
yet tested changes inside a half-round, so the sum is what a counter
inside the loop would have read.
"""

from __future__ import annotations

from repro.graph.digraph import DiGraph
from repro.graph.order import VertexOrder, degree_order
from repro.graph.traversal import trimmed_bfs
from repro.pregel.serial import SerialMeter

#: Estimated per-vertex bookkeeping bytes for the memory gate: queue,
#: status array, and two label-set headers, as a C++ TOL would allocate.
_TOL_VERTEX_OVERHEAD = 40


def tol_index_reference(graph: DiGraph, order: VertexOrder | None = None):
    """Algorithm 1, literally.  Returns a :class:`ReachabilityIndex`.

    Quadratic in the worst case — use :func:`tol_index` outside tests.
    """
    from repro.core.labels import ReachabilityIndex

    if order is None:
        order = degree_order(graph)
    n = graph.num_vertices
    reverse = graph.reverse()
    in_labels: list[set[int]] = [set() for _ in range(n)]
    out_labels: list[set[int]] = [set() for _ in range(n)]
    for v in order.by_rank():
        for w in trimmed_bfs(graph, v, order).low:  # DES^{G_i}(v)
            if out_labels[v].isdisjoint(in_labels[w]):
                in_labels[w].add(v)
        for w in trimmed_bfs(reverse, v, order).low:  # ANC^{G_i}(v)
            if in_labels[v].isdisjoint(out_labels[w]):
                out_labels[w].add(v)
    return ReachabilityIndex.from_label_lists(in_labels, out_labels)


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
    from repro.core.labels import ReachabilityIndex

    return ReachabilityIndex.from_label_lists(*tol_label_sets(graph, order, meter))


def tol_label_sets(
    graph: DiGraph,
    order: VertexOrder | None = None,
    meter: SerialMeter | None = None,
) -> tuple[list[set[int]], list[set[int]]]:
    """The TOL rounds themselves: ``(L_in, L_out)`` as one mutable set
    per vertex, before any packing.  :func:`tol_index` packs these into
    a :class:`ReachabilityIndex`; the dynamic index keeps them as they
    are, because sets are what it maintains."""
    if order is None:
        order = degree_order(graph)
    n = graph.num_vertices
    if len(order) != n:
        raise ValueError("order does not cover the graph's vertices")
    if meter is not None:
        index_bytes_guess = 16 * n  # refined as labels grow
        meter.check_memory(
            graph.memory_bytes() + _TOL_VERTEX_OVERHEAD * n + index_bytes_guess,
            what="TOL",
        )

    rank = order.ranks.tolist()
    out_adjacency = [graph.out_neighbors(v).tolist() for v in range(n)]
    in_adjacency = [graph.in_neighbors(v).tolist() for v in range(n)]
    in_labels: list[set[int]] = [set() for _ in range(n)]
    out_labels: list[set[int]] = [set() for _ in range(n)]
    # Round i, forward then backward: v joins L_in(w) of the descendants
    # that pass, then L_out(w) of the ancestors that pass.  Reading
    # L_in(v) *after* the forward pass is safe: the only label added this
    # round so far is v itself, and v can never be in L_out(w) yet, so
    # the intersections of the backward pass match L^i exactly.
    halves = (
        (out_adjacency, in_labels, out_labels),
        (in_adjacency, out_labels, in_labels),
    )
    for v in order.by_rank():
        for adjacency, labels, reverse_labels in halves:
            witnesses = reverse_labels[v]
            queue, tested = pruned_bfs(v, adjacency, rank, labels, witnesses)
            if meter is not None:
                # Every queued vertex had its edges scanned; every tested row
                # was compared from the shorter side, at its size before v.
                most = len(witnesses)
                meter.charge(
                    sum(len(adjacency[w]) for w in queue)
                    + sum(min(most, len(labels[x]) - (v in labels[x])) + 1 for x in tested)
                )
    return in_labels, out_labels


def pruned_bfs(hub: int, adjacency, rank, labels, witnesses, cone=None):
    """``hub``'s pruned BFS along ``adjacency`` (one list or set of
    neighbours per vertex): walk the vertices ranked below ``hub``, add
    ``hub`` to ``labels[x]`` of each one no higher-ranked hub covers —
    ``witnesses`` (the hubs of ``hub``'s own opposite row ranked above
    it) is disjoint from the row — and walk on through those only.

    ``cone=None`` re-decides every row reached: one half of a TOL round.
    With a ``cone``, only rows inside it are re-decided; a vertex outside
    kept its status, so the walk crosses it iff its row holds ``hub``.

    Returns ``(queue, visited)``: the vertices walked through, in BFS
    order, and ``hub`` plus every lower-ranked vertex discovered — without
    a cone, exactly the rows tested.  A walk that cannot start (its root
    fails its test, or sits outside the cone without holding ``hub``)
    answers in constant tuples: a cone repair makes hundreds of such
    calls, and a fresh list and set would be most of what they cost.
    """
    row = labels[hub]
    if cone is not None and hub not in cone:
        if hub not in row:
            return (), ()
    elif witnesses.isdisjoint(row):
        row.add(hub)
    else:
        return (), (hub,)
    hub_rank = rank[hub]
    visited = {hub}
    queue = [hub]
    for w in queue:
        for x in adjacency[w]:
            if x in visited or rank[x] < hub_rank:
                continue
            visited.add(x)
            row = labels[x]
            if cone is not None and x not in cone:
                if hub in row:
                    queue.append(x)
            elif witnesses.isdisjoint(row):
                row.add(hub)
                queue.append(x)
    return queue, visited
