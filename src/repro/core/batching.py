"""Batch sequences for batch labeling (Section IV, Definition 7).

A batch sequence ``[V_1, .., V_g]`` partitions the vertices so that
every vertex in ``V_i`` has higher order than every vertex in ``V_j``
for ``i < j``.  The paper generates it geometrically: the first batch
holds the ``b`` highest-order vertices, and each subsequent batch is
``k`` times larger (``b = k = 2`` by default; Exp 7/8 sweep both).

``batch_size = 1`` for every batch degenerates to TOL's fully serial
schedule; a single batch of ``|V|`` vertices is plain DRL.
"""

from __future__ import annotations

import math

from repro.graph.order import VertexOrder


def batch_sequence(
    order: VertexOrder,
    initial_size: float = 2,
    growth_factor: float = 2.0,
) -> list[list[int]]:
    """Split vertices into geometric batches of decreasing order.

    Parameters
    ----------
    order:
        The total vertex order; batch 1 takes its highest ranks.
    initial_size:
        The paper's ``b`` (default 2).  Must be finite and at least 1.
    growth_factor:
        The paper's ``k`` (default 2).  Must be finite and at least 1;
        ``k = 1`` keeps every batch at ``b`` vertices (the pathological
        case of Exp 8).

    Returns
    -------
    list[list[int]]
        Batches of vertex ids, each sorted by decreasing order.
    """
    for name, value in (
        ("initial batch size", initial_size),
        ("growth factor", growth_factor),
    ):
        # ``nan < 1`` is false, and an infinite size has no int().
        if not (math.isfinite(value) and value >= 1):
            raise ValueError(f"{name} must be finite and >= 1, got {value}")
    n = len(order)
    batches: list[list[int]] = []
    size = float(initial_size)
    taken = 0
    while taken < n:
        count = max(1, int(size))
        batch = [order.vertex_at_rank(r) for r in range(taken, min(taken + count, n))]
        batches.append(batch)
        taken += len(batch)
        size *= growth_factor
    return batches


def validate_batch_sequence(
    batches: list[list[int]], order: VertexOrder
) -> None:
    """Assert Definition 7: disjoint cover with decreasing order.

    Raises ``ValueError`` on violation; used by tests and by callers
    that supply hand-built sequences.
    """
    seen: set[int] = set()
    previous_worst = -1  # rank of the lowest-order vertex so far
    for i, batch in enumerate(batches):
        if not batch:
            raise ValueError(f"batch {i} is empty")
        ranks = [order.rank(v) for v in batch]
        if min(ranks) <= previous_worst:
            raise ValueError(
                f"batch {i} contains a vertex of higher order than batch {i - 1}"
            )
        previous_worst = max(ranks)
        for v in batch:
            if v in seen:
                raise ValueError(f"vertex {v} appears in two batches")
            seen.add(v)
    if len(seen) != len(order):
        raise ValueError("batches do not cover every vertex")
