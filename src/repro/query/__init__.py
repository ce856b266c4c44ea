"""Query serving: backends, batch evaluation, latency statistics.

The paper's end state is an index "collected on one machine to support
in-memory queries"; this subpackage is that serving layer.  A
:class:`~repro.query.service.QueryService` wraps any backend —
2-hop index, BFL, GRAIL, online search — and evaluates workloads with
per-query simulated-latency statistics (mean and percentiles), which is
how Table VI's query-time columns are produced in spirit.
"""

from repro.query.service import (
    BflBackend,
    DistributedIndexBackend,
    FallbackBackend,
    GrailBackend,
    IndexBackend,
    OnlineBackend,
    QueryReport,
    QueryService,
)

__all__ = [
    "BflBackend",
    "DistributedIndexBackend",
    "FallbackBackend",
    "GrailBackend",
    "IndexBackend",
    "OnlineBackend",
    "QueryReport",
    "QueryService",
]
