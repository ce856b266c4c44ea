"""``repro.serve`` — the high-throughput query-serving layer.

The paper builds the index; this subsystem *serves* it, at the scale
the ROADMAP's north star asks for.  Bottom to top:

- :mod:`~repro.serve.store` — the one label store: ``L_in``/``L_out``
  sharded across N shards via the :mod:`repro.graph.partition`
  partitioners and kept in R copies (:class:`ShardedLabelStore` at one,
  :class:`ReplicatedLabelStore` the same class at two), with per-shard
  memory accounting, fetch costs charged through the
  :class:`~repro.pregel.cost_model.CostModel`, read fan-out policies
  (primary / round-robin / hedged) and health checks with failover;
- :mod:`~repro.serve.cache` — an LRU result cache (optional negative
  caching) whose invalidation hooks subscribe to
  :class:`~repro.core.dynamic.DynamicReachabilityIndex` updates, so
  no stale answer survives an edge insert/delete;
- :mod:`~repro.serve.replica` — bounded-staleness replication of
  dynamic updates to the store's follower copies (a row-delta log and
  follower label tables), guarded so a lagging replica never returns
  an incorrect answer;
- :mod:`~repro.serve.faults` — serve-side fault schedules (replica
  crash / slow replica / recovery) and the :class:`Timeline` that fires
  them — and scenario writes — on the serving clock;
- :mod:`~repro.serve.mutation` — the write path: a
  :class:`MutationBackend` applies graph mutations (edge and node ops,
  order upgrades) to the leader index with simulated costs, so writes
  ride the same admission queue as reads (``docs/dynamic.md``);
- :mod:`~repro.serve.pipeline` — the serving loop: bounded admission
  queue (overflow sheds), request batching, deadline drops and mixed
  read/write runs (:meth:`QueryServer.run_mixed`).

One place stacks these layers: the scenario runner
(:func:`repro.scenarios.run_scenario`), which serve-bench runs too.

Architecture and a glossary of the run totals
(each named by the record it is read from) live in
``docs/serving.md``.
"""

from repro.serve.cache import CachingBackend, QueryCache
from repro.serve.faults import (
    ReplicaCrash,
    ReplicaRecovery,
    ReplicaSlow,
    ServeFaultPlan,
    ServeFaultSpecError,
    Timeline,
)
from repro.serve.mutation import MUTATION_OPS, MutationBackend
from repro.serve.pipeline import QueryServer, ServeReport
from repro.serve.replica import BoundedStalenessReplicator, ReplicatedLabelStore
from repro.serve.store import (
    READ_POLICIES,
    ReplicaSet,
    ReplicaState,
    ShardedIndexBackend,
    ShardedLabelStore,
)

__all__ = [
    "BoundedStalenessReplicator",
    "MUTATION_OPS",
    "MutationBackend",
    "CachingBackend",
    "QueryCache",
    "QueryServer",
    "READ_POLICIES",
    "ReplicaCrash",
    "ReplicaRecovery",
    "ReplicaSet",
    "ReplicaSlow",
    "ReplicaState",
    "ReplicatedLabelStore",
    "ServeFaultPlan",
    "ServeFaultSpecError",
    "ServeReport",
    "ShardedIndexBackend",
    "ShardedLabelStore",
    "Timeline",
]
