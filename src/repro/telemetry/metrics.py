"""Latency buckets and the one nearest-rank percentile.

The stream holds every observation a run makes (spans, events, and the
``serve.request`` records), so no second record of them is kept: a
number about a run is read from those records when it is wanted.  What
this module keeps is shared by the views that read them —
:data:`LATENCY_BUCKETS`, the bucket bounds ``repro top --openmetrics``
exposes served latency over, and :func:`sorted_percentile`, the
percentile every serving report takes over its raw latencies.
"""

from __future__ import annotations

from typing import Sequence


def exponential_buckets(start: float, factor: float, count: int) -> tuple[float, ...]:
    """``count`` upper bounds growing geometrically from ``start``."""
    if start <= 0 or factor <= 1 or count < 1:
        raise ValueError("need start > 0, factor > 1, count >= 1")
    bounds = []
    bound = start
    for _ in range(count):
        bounds.append(bound)
        bound *= factor
    return tuple(bounds)


#: Default buckets for simulated per-query latencies: the sorted-merge
#: of a 2-hop index costs ~1e-7 s, a pruned BFS fallback ~1e-3 s.
LATENCY_BUCKETS = exponential_buckets(1e-8, 10 ** 0.5, 16)


def sorted_percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of pre-sorted raw samples (0.0 when
    empty)."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1, round(fraction * (len(sorted_values) - 1))))
    return sorted_values[rank]
