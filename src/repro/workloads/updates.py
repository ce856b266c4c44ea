"""Edge- and node-update workloads for the dynamic index.

Generates deterministic update streams that respect the current graph
state (insertions pick absent edges, deletions pick present ones, node
deletions pick alive vertices), for exercising
:class:`~repro.core.dynamic.DynamicReachabilityIndex`.

:func:`mixed_update_stream` draws edge inserts and deletes, and with
its ``node_ratio`` / ``promote_ratio`` node additions, node deletions
and order upgrades; both ratios 0 give an edge-only stream.  A stream
is byte-stable for a given seed (committed scenarios and baselines
replay them).
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from typing import Literal

from repro.graph.digraph import DiGraph

UpdateOp = tuple[Literal["insert", "delete", "add_node", "delete_node", "promote"], int, int]

#: Sentinel rank in a ``("promote", v, rank)`` op meaning "promote to
#: the vertex's current degree rank" (resolved by the applier).
IDEAL_RANK = -1


def mixed_update_stream(
    graph: DiGraph,
    count: int,
    insert_ratio: float = 0.5,
    node_ratio: float = 0.0,
    promote_ratio: float = 0.0,
    seed: int = 0,
    max_attempts_factor: int = 200,
) -> list[UpdateOp]:
    """A stream of ``count`` valid updates mixing edge and node ops.

    ``node_ratio`` of operations (in expectation) are node-level —
    split evenly between ``add_node`` (payload carries the id the
    vertex will receive: ids are assigned densely, so it is predictable
    from the op prefix) and ``delete_node`` of a random alive vertex.
    ``promote_ratio`` of operations are ``("promote", v, IDEAL_RANK)``
    order upgrades of a random alive vertex.  The remainder are edge
    updates, inserts with probability ``insert_ratio``; when one kind
    runs out (no edges left to delete, or no absent edge to insert) the
    other is used.
    Every op is valid at its position: edge ops target alive endpoints,
    deletions existing edges, node deletions keep >= 2 vertices alive.
    """
    for name, ratio in (
        ("insert_ratio", insert_ratio),
        ("node_ratio", node_ratio),
        ("promote_ratio", promote_ratio),
    ):
        if not 0.0 <= ratio <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1]")
    if node_ratio + promote_ratio > 1.0:
        raise ValueError("node_ratio + promote_ratio must not exceed 1")
    n = graph.num_vertices
    if n < 2:
        raise ValueError("need at least two vertices to update edges")
    rng = random.Random(seed)
    present: set[tuple[int, int]] = set(graph.edges())
    # The edges and the alive ids in sorted order, kept in step with
    # every op: each draw indexes the order sorting them would give,
    # without a sort per op.
    edges = sorted(present)
    # The sources of the edges inserted into each vertex: with the
    # graph's own in-edges, every edge a node delete may have to cut.
    inserted_into: dict[int, set[int]] = {}
    alive = list(range(n))
    next_id = n
    stream: list[UpdateOp] = []
    attempts_budget = max_attempts_factor * max(count, 1)

    def pick_absent_edge() -> tuple[int, int] | None:
        nonlocal attempts_budget
        for _ in range(64):
            attempts_budget -= 1
            if attempts_budget < 0:
                raise ValueError("could not find a missing edge to insert")
            u, v = rng.choice(alive), rng.choice(alive)
            if u != v and (u, v) not in present:
                return u, v
        return None

    while len(stream) < count:
        roll = rng.random()
        if roll < node_ratio:
            if rng.random() < 0.5 or len(alive) <= 2:
                stream.append(("add_node", next_id, next_id))
                alive.append(next_id)  # the largest id yet
                next_id += 1
            else:
                v = rng.choice(alive)
                alive.remove(v)
                # Its out-edges are one slice of the sorted list.
                lo, hi = bisect_left(edges, (v,)), bisect_left(edges, (v + 1,))
                cut = edges[lo:hi]
                del edges[lo:hi]
                sources = inserted_into.pop(v, set())
                if v < n:
                    sources.update(graph.in_neighbors(v))
                for a in sources:
                    if (a, v) in present:
                        cut.append((a, v))
                        del edges[bisect_left(edges, (a, v))]
                present.difference_update(cut)
                stream.append(("delete_node", v, v))
        elif roll < node_ratio + promote_ratio:
            v = rng.choice(alive)
            stream.append(("promote", v, IDEAL_RANK))
        else:
            want_insert = rng.random() < insert_ratio
            max_edges = len(alive) * (len(alive) - 1)
            if want_insert and len(present) >= max_edges:
                want_insert = False
            if not want_insert and not present:
                want_insert = True
            if want_insert:
                edge = pick_absent_edge()
                if edge is None:
                    continue
                present.add(edge)
                insort(edges, edge)
                inserted_into.setdefault(edge[1], set()).add(edge[0])
                stream.append(("insert", *edge))
            else:
                u, v = rng.choice(edges)
                present.discard((u, v))
                del edges[bisect_left(edges, (u, v))]
                stream.append(("delete", u, v))
    return stream


def apply_stream(dynamic, stream: list[UpdateOp]) -> None:
    """Apply an update stream to a dynamic index (all five op kinds)."""
    for op, u, v in stream:
        dynamic.apply(op, u, v)
