"""Query serving: one backend per way of answering a query.

The paper's end state is an index "collected on one machine to support
in-memory queries"; this subpackage is the cost side of that.  Every
backend — the collected 2-hop index, BFL, the online-search
fallback — answers ``query_with_cost(s, t)`` with the answer and its
simulated seconds, and Table VI's and the related-work
table's query columns are those seconds summed
(:class:`~repro.baselines.online.OnlineSearcher` speaks the same call).
Labels left sharded are served by the label store,
:class:`~repro.serve.ShardedIndexBackend`; a *stream* of queries is run
by :class:`~repro.serve.pipeline.QueryServer`.
"""

from repro.query.service import (
    FallbackBackend,
    IndexBackend,
    MeteredSearchBackend,
)

__all__ = [
    "FallbackBackend",
    "IndexBackend",
    "MeteredSearchBackend",
]
