"""Crash recovery and checkpointing: the one fault hook of a BSP run.

The simulator installs a :class:`Recovery` for a run whose cluster has a
fault plan or a checkpoint interval.  Both read and rewind the worker's
pending messages, so the multiprocessing engine never has one.
"""

from __future__ import annotations

import copy
from array import array
from typing import NamedTuple

from repro.faults import FaultInjector, FaultPlan
from repro.graph.digraph import DiGraph
from repro.graph.partition import Routing
from repro.pregel.engine import Cluster, StepCounts, Worker, _account_superstep
from repro.pregel.metrics import RunStats, TimelineInterval
from repro.pregel.vertex_program import VertexProgram
from repro.telemetry import current_metrics


class _Checkpoint(NamedTuple):
    """A consistent barrier snapshot: program state + pending messages."""

    superstep: int
    program_state: dict
    inbox: dict[int, list]
    bytes: int


def _estimate_entries(obj) -> int:
    """Rough entry count of a checkpointed state tree (for byte cost).

    Counts leaf values inside the containers vertex programs actually
    use; shared input graphs are excluded (they are not checkpointed —
    every node re-reads its partition from the original input).
    """
    if isinstance(obj, DiGraph):
        return 0
    if isinstance(obj, (int, float, bool)) or obj is None:
        return 1
    if isinstance(obj, array):
        return len(obj)
    if isinstance(obj, (bytes, bytearray, str)):
        return max(1, len(obj) // 8)
    if isinstance(obj, dict):
        return sum(
            _estimate_entries(k) + _estimate_entries(v) for k, v in obj.items()
        )
    if isinstance(obj, (list, tuple, set, frozenset)):
        return sum(_estimate_entries(item) for item in obj)
    if isinstance(obj, VertexProgram):
        return _estimate_entries(vars(obj))
    return 1


class Recovery:
    """One run's fault state.  :meth:`~repro.pregel.engine.Engine.run`
    calls it after ``setup()``, once a super-step's replies are in and
    after each barrier.  ``committed`` is the highest super-step whose
    barrier committed: re-running one at or below it is a replay."""

    def __init__(self, cluster: Cluster, graph: DiGraph):
        self.cluster = cluster
        # A checkpoint-only cluster runs an empty plan: nothing fires,
        # nothing is drawn, every node survives.
        self.injector = cluster._injector or FaultInjector(
            FaultPlan(), cluster.num_nodes
        )
        # Crashes move vertices in place, so a fault run owns its map;
        # nodes lost in an earlier run of this cluster stay dead.
        node_of = array("q", cluster.routing(graph).node_of)
        self.injector.reassign(node_of, ())
        self.routing = Routing.of(graph, node_of)
        plan = self.injector.plan
        self.slowdown = plan.slowdowns(cluster.num_nodes) if plan.stragglers else None
        self.committed = 0

    def start(self, worker: Worker) -> None:
        """Super-step 0 snapshot: recovery without an on-disk checkpoint
        restarts from re-initialized state, so this snapshot is free
        (bytes=0) — nothing crossed the network."""
        self.worker = worker
        self.checkpoint = None
        if self.cluster.checkpoint_interval is not None or self.injector.has_pending:
            self.checkpoint = _Checkpoint(0, worker.program.snapshot(), {}, 0)

    def crashed(
        self, superstep: int, counts: StepCounts, stats: RunStats, tracer
    ) -> int | None:
        """``None`` unless a node crashed during ``superstep``; then
        account the lost attempt, recover, and return the checkpointed
        super-step the run resumes after."""
        fired = self.injector.crashes_at(superstep)
        if not fired:  # armed crashes imply a checkpoint (``start``)
            return None
        # The barrier never commits: the attempt is lost work.
        _account_superstep(
            self.cluster.cost_model, superstep, counts, stats, False, tracer,
            self, replay=True,
        )
        self._recover(stats, fired, superstep, tracer)
        return self.checkpoint.superstep

    def barrier(self, superstep: int, stats: RunStats, tracer) -> None:
        """After ``superstep``'s barrier: it committed; checkpoint if due."""
        self.committed = max(self.committed, superstep)
        interval = self.cluster.checkpoint_interval
        due = interval is not None and superstep % interval == 0
        if due and superstep > self.checkpoint.superstep:
            self.checkpoint = self._take_checkpoint(superstep, stats, tracer)

    def _take_checkpoint(self, superstep: int, stats: RunStats, tracer) -> _Checkpoint:
        """Snapshot barrier state and charge the serialization bytes."""
        cost = self.cluster.cost_model
        injector = self.injector
        pending = self.worker.pending
        state = self.worker.program.snapshot()
        messages = sum(len(bucket) for bucket in pending.values())
        nbytes = (
            _estimate_entries(state) * cost.entry_bytes
            + messages * cost.message_bytes
        )
        alive = len(injector.survivors)
        seconds = (nbytes / alive) * cost.t_checkpoint_byte
        stats.checkpoints += 1
        stats.checkpoint_seconds += seconds
        if stats.node_timeline is not None:
            stats.node_timeline.intervals.append(
                TimelineInterval("checkpoint", superstep, seconds)
            )
        if tracer is not None and tracer.enabled:
            tracer.event(
                "pregel.checkpoint",
                superstep=superstep,
                bytes=nbytes,
                pending_messages=messages,
                seconds=seconds,
            )
            current_metrics().counter("pregel.checkpoints").inc()
        return _Checkpoint(superstep, state, copy.deepcopy(pending), nbytes)

    def _recover(self, stats: RunStats, fired: tuple, superstep: int, tracer) -> None:
        """Fail over after a crash: reassign, restore, rewind the inbox.

        Charges failure detection plus the survivors' parallel read of
        the last checkpoint (every surviving node re-reads the state of
        its — possibly grown — partition from stable storage), then
        rolls program and inbox state back to the checkpointed barrier.
        """
        cost = self.cluster.cost_model
        injector = self.injector
        worker, checkpoint = self.worker, self.checkpoint
        ctx = worker.ctx
        stats.crashes += len(fired)
        node_of = ctx._node_of
        moved = injector.reassign(node_of, fired)
        _, ctx._same_out, ctx._same_in = Routing.of(ctx.graph, node_of)
        alive = len(injector.survivors)
        seconds = (
            cost.failover_seconds
            + (checkpoint.bytes / alive) * cost.t_checkpoint_byte
        )
        stats.recovery_seconds += seconds
        if stats.node_timeline is not None:
            stats.node_timeline.intervals.append(
                TimelineInterval("recovery", superstep, seconds, tuple(fired))
            )
        worker.program.restore(checkpoint.program_state)
        worker.pending = copy.deepcopy(checkpoint.inbox)
        if tracer is not None and tracer.enabled:
            for node in fired:
                tracer.event(
                    "pregel.fault",
                    kind="crash",
                    node=node,
                    superstep=superstep,
                )
            tracer.event(
                "pregel.recovery",
                superstep=superstep,
                restored_to=checkpoint.superstep,
                nodes=list(fired),
                reassigned_vertices=moved,
                seconds=seconds,
            )
            metrics = current_metrics()
            metrics.counter("pregel.crashes").inc(len(fired))
            metrics.counter("pregel.recoveries").inc()
