"""Query serving: one backend per way of answering a query.

The paper's end state is an index "collected on one machine to support
in-memory queries"; this subpackage is the cost side of that.  Every
backend — 2-hop index, sharded 2-hop index, BFL / GRAIL / IP — answers
``query_with_cost(s, t)`` with the answer and its simulated seconds,
which is how Table VI's query-time columns are produced in spirit
(:class:`~repro.baselines.online.OnlineSearcher` already speaks the same
call).  A *stream* of queries is run by
:class:`~repro.serve.pipeline.QueryServer`.
"""

from repro.query.service import (
    DistributedIndexBackend,
    FallbackBackend,
    IndexBackend,
    MeteredSearchBackend,
)

__all__ = [
    "DistributedIndexBackend",
    "FallbackBackend",
    "IndexBackend",
    "MeteredSearchBackend",
]
