"""Write path for the serving pipeline: mutations as first-class requests.

The paper's serving story is read-only — the index is built offline and
queried online.  Its dynamic inheritance from TOL says the index *can*
absorb updates; this module puts that on the serve path.  A
:class:`MutationBackend` wraps the leader
:class:`~repro.core.dynamic.DynamicReachabilityIndex` and gives writes
the same simulated-cost contract reads have
(:meth:`~repro.query.service.QueryBackend.query_with_cost`), so
:class:`~repro.serve.pipeline.QueryServer` can interleave them through
the one admission queue: writes share queue capacity with reads, get
shed under overload, appear in traces (a ``mutation`` stage) and in
``serve.mutation.*`` metrics, and — because every applied op fires the
leader's listener hooks — automatically invalidate the
:class:`~repro.serve.cache.QueryCache` and append to the
:class:`~repro.serve.replica.BoundedStalenessReplicator` op log.

Costing: a write's simulated seconds are the label-maintenance work
estimate — the endpoint label sets whose hubs the repair starts from,
times a write-amplification factor covering the rows it goes on to
visit — not the exact maintenance cost, which would require running it twice.  The estimate
only shapes the simulated clock; correctness never depends on it.
"""

from __future__ import annotations

from repro.core.dynamic import UPDATE_OPS
from repro.observe import tracing
from repro.pregel.cost_model import DEFAULT_COST_MODEL, CostModel
from repro.telemetry import trace_event

#: Operations :meth:`MutationBackend.apply_with_cost` accepts, in the
#: ``(op, u, v)`` shape of
#: :meth:`~repro.core.dynamic.DynamicReachabilityIndex.apply`.
MUTATION_OPS = UPDATE_OPS

#: Maintenance touches roughly this many labels per seed-label entry
#: (the floods or re-runs from those hubs); calibrated against the
#: direct-path scenario runner's observed op costs.
WRITE_AMPLIFICATION = 8.0


class MutationBackend:
    """Apply graph mutations to the leader index with simulated cost.

    Parameters
    ----------
    leader:
        The writable :class:`~repro.core.dynamic.DynamicReachabilityIndex`
        reads are ultimately served from.  Caches and replicators
        should already be subscribed to it; this backend relies purely
        on the listener hooks for invalidation and op-log feeding.
    cost_model:
        Source of ``t_op`` for the write-cost estimate.
    replicator:
        Optional :class:`~repro.serve.replica.BoundedStalenessReplicator`
        attached to the leader.  When present, each write stamps the op
        log with its apply time (``note_time``) and samples the
        replication :meth:`staleness window
        <repro.serve.replica.BoundedStalenessReplicator.staleness_window>`,
        whose peak is exported as ``staleness_window_seconds``.
    """

    def __init__(
        self,
        leader,
        cost_model: CostModel | None = None,
        replicator=None,
    ):
        self.leader = leader
        self.replicator = replicator
        self._t_op = (cost_model or DEFAULT_COST_MODEL).t_op
        self.applied = 0
        self.noops = 0
        self.rejected = 0
        self.staleness_window_seconds = 0.0

    # ------------------------------------------------------------------
    def apply_with_cost(
        self, op: str, u: int, v: int, at: float = 0.0
    ) -> tuple[str, float]:
        """Apply one mutation; returns ``(status, simulated_seconds)``.

        ``status`` is ``"applied"`` (the graph changed), ``"noop"``
        (inserting a present edge, deleting an absent one, promoting to
        a non-higher rank), or ``"rejected"`` (invalid payload — id out
        of range, tombstoned vertex, self-loop).  Rejections never
        raise: on a live serve path a bad write — e.g. one referencing
        the id a shed ``add_node`` would have created — must fail the
        *request*, not the server.
        """
        if op not in MUTATION_OPS:
            raise ValueError(f"unknown mutation op {op!r}")
        if self.replicator is not None:
            self.replicator.note_time(at)
        try:
            status, seconds = self._dispatch(op, u, v)
        except (ValueError, IndexError):
            status, seconds = "rejected", self._t_op
        if status == "applied":
            self.applied += 1
            if self.replicator is not None:
                window = self.replicator.staleness_window(at)
                if window > self.staleness_window_seconds:
                    self.staleness_window_seconds = window
        elif status == "noop":
            self.noops += 1
        else:
            self.rejected += 1
        tracing.add_stage("mutation", seconds, op=op, status=status)
        trace_event(
            "serve.mutation",
            op=op, u=u, v=v, status=status, seconds=seconds, at=at,
        )
        return status, seconds

    def _dispatch(self, op: str, u: int, v: int) -> tuple[str, float]:
        leader = self.leader
        # Seed-label estimate: the hubs the update's repair starts from.
        if op == "add_node":
            units = 1
        elif op in ("insert", "delete"):
            leader._check_vertex(u)
            leader._check_vertex(v)
            units = len(leader.in_labels[u]) + len(leader.out_labels[v]) + 1
        else:
            leader._check_vertex(u)
            units = len(leader.in_labels[u]) + len(leader.out_labels[u]) + 1
        seconds = units * self._t_op * WRITE_AMPLIFICATION
        return ("applied" if leader.apply(op, u, v) else "noop"), seconds
