"""The BSP cluster engine.

:class:`Cluster` simulates a vertex-centric system running on
``num_nodes`` computation nodes.  Vertices are assigned to nodes by a
:class:`~repro.graph.partition.Partitioner`; message routing, super-step
barriers, and termination follow Pregel semantics.  All work is counted
and converted to simulated seconds by a
:class:`~repro.pregel.cost_model.CostModel` (see that module for the
formula), which is what makes single-process runs report meaningful
distributed timings.

Fault tolerance (see :mod:`repro.faults` and ``docs/simulator.md``):
a cluster built with a :class:`~repro.faults.FaultPlan` injects node
crashes, stragglers, and transit message faults; ``checkpoint_interval``
enables Pregel-style super-step checkpointing so crashed runs recover
by restoring the last checkpoint, reassigning the dead node's partition
to the survivors, and replaying.  Recovery work is accounted separately
(``RunStats.recovery_seconds`` / ``checkpoint_seconds``) so the
committed work counters stay comparable to a fault-free run.
"""

from __future__ import annotations

import copy
import time
from abc import ABC, abstractmethod
from array import array
from operator import itemgetter
from typing import Iterable

from repro.errors import ReproError
from repro.faults import FaultInjector, FaultPlan
from repro.graph.digraph import DiGraph
from repro.graph.partition import (
    HashPartitioner,
    Partitioner,
    Routing,
    node_assignment,
)
from repro.pregel.cost_model import CostModel
from repro.pregel.metrics import (
    NodeSlice,
    NodeTimeline,
    RunStats,
    SuperstepTrace,
    TimelineInterval,
)
from repro.pregel.vertex_program import VertexProgram
from repro.telemetry import ACTIVE_VERTEX_BUCKETS, current_metrics, current_tracer

_EMPTY: tuple = ()
_sender = itemgetter(0)  # of a sender-tagged bucket entry


class SuperstepLimitExceeded(ReproError):
    """The program did not terminate within ``max_supersteps``."""


class ComputeContext:
    """Facilities available to ``compute()`` during a super-step.

    Senders (:meth:`send` and the two neighbour fan-outs) only append to
    destination buckets; what crossed the network is settled once per
    super-step, at the barrier, from counts.
    """

    __slots__ = (
        "graph",
        "num_nodes",
        "superstep",
        "_node_of",
        "_same_out",
        "_same_in",
        "_current_node",
        "_current_vertex",
        "_next_inbox",
        "_units",
        "_same_node",
        "_recv_bytes",
        "_broadcast_bytes",
        "_local_messages",
        "_remote_messages",
        "_cost",
        "_base_seconds",
        "_pending_units",
        "_combine",
        "_sent_keys",
        "_aggregators",
        "_agg_current",
        "_agg_visible",
    )

    #: Bucket entries are ``(sending vertex, payload)``, not bare payloads.
    _tag_sender = False

    def __init__(
        self,
        graph: DiGraph,
        num_nodes: int,
        routing: Routing,
        cost: CostModel,
        program: VertexProgram,
    ):
        self.graph = graph
        self.num_nodes = num_nodes
        self._node_of, self._same_out, self._same_in = routing
        self._current_node = 0
        self._current_vertex = 0
        self._recv_bytes = [0] * num_nodes
        self._local_messages = 0
        self._remote_messages = 0
        self._cost = cost
        self._base_seconds = 0.0
        self._pending_units = 0
        self._combine = program.combine_duplicates
        self._sent_keys: set = set()
        self._aggregators = program.aggregators()
        self._agg_current = {
            name: agg.initial for name, agg in self._aggregators.items()
        }
        self._begin_superstep(0)

    # -- called by the engine ------------------------------------------
    def _begin_superstep(self, superstep: int) -> None:
        self.superstep = superstep
        self._next_inbox = {}
        self._units = [0] * self.num_nodes
        self._same_node = [0] * self.num_nodes
        self._broadcast_bytes = 0
        if self._combine:
            self._sent_keys = set()
        self._agg_visible = self._agg_current
        self._agg_current = {
            name: agg.initial for name, agg in self._aggregators.items()
        }

    def _run_superstep(
        self, program: VertexProgram, superstep: int, base_seconds: float,
        inbox: dict[int, list], starts: Iterable[int],
    ) -> None:
        """One super-step of ``compute()`` calls: over ``starts`` in
        super-step 1, over ``inbox`` in ascending vertex order after."""
        self._begin_superstep(superstep)
        self._base_seconds = base_seconds
        node_of, tagged = self._node_of, self._tag_sender
        for v in starts if superstep == 1 else sorted(inbox):
            messages = inbox.get(v, _EMPTY)
            if tagged and messages:
                messages.sort(key=_sender)  # stable: sim delivery order
                messages = [payload for _, payload in messages]
            self._current_vertex = v
            self._current_node = node_of[v]
            self.charge(len(messages))  # one unit per delivery
            program.compute(self, v, messages)
        self._settle()

    def _settle(self) -> None:
        """Derive the routing counters at the barrier: a node received
        what its vertices' buckets hold; what did not come from the node
        itself crossed the network."""
        received = [0] * self.num_nodes
        node_of = self._node_of
        for dst, bucket in self._next_inbox.items():
            received[node_of[dst]] += len(bucket)
        same = self._same_node
        message_bytes = self._cost.message_bytes
        self._local_messages = sum(same)
        self._remote_messages = sum(received) - self._local_messages
        self._recv_bytes = [
            (got - own) * message_bytes for got, own in zip(received, same)
        ]

    # -- called by programs --------------------------------------------
    def node_of(self, vertex: int) -> int:
        """The computation node owning ``vertex``."""
        return self._node_of[vertex]

    def charge(self, units: int = 1) -> None:
        """Charge compute units to the current vertex's node.

        Periodically re-checks the simulated cut-off so that runs whose
        single super-step explodes (DRL⁻'s refinement floods) abort as
        soon as the provisional total crosses the limit, rather than
        after finishing the super-step.
        """
        self._units[self._current_node] += units
        self._pending_units += units
        if self._pending_units >= 262_144:
            self._recheck_cutoff()

    def _recheck_cutoff(self) -> None:
        self._pending_units = 0
        self._cost.check_time(
            self._base_seconds + max(self._units) * self._cost.t_op
        )

    def send(self, dst: int, payload) -> None:
        """Send ``payload`` to vertex ``dst`` (delivered next super-step)."""
        node = self._current_node
        if self._combine:
            key = (node, dst, payload)
            if key in self._sent_keys:
                return  # combined away before reaching the network
            self._sent_keys.add(key)
        entry = (self._current_vertex, payload) if self._tag_sender else payload
        bucket = self._next_inbox.get(dst)
        if bucket is None:
            self._next_inbox[dst] = [entry]
        else:
            bucket.append(entry)
        if self._node_of[dst] == node:
            self._same_node[node] += 1

    def send_to_out_neighbors(self, payload) -> None:
        """Send ``payload`` along every out-edge of the current vertex.

        Charges one unit per edge, once, and appends the one ``payload``
        object to each destination in CSR order — the order
        ``for x in graph.out_neighbors(v): ctx.send(x, payload)`` would.
        """
        graph = self.graph
        self._fan_out(
            graph._fwd_offsets, graph._fwd_targets, self._same_out, payload
        )

    def send_to_in_neighbors(self, payload) -> None:
        """:meth:`send_to_out_neighbors` along the in-edges."""
        graph = self.graph
        self._fan_out(
            graph._rev_offsets, graph._rev_targets, self._same_in, payload
        )

    def _fan_out(self, offsets, targets, same, payload) -> None:
        vertex = self._current_vertex
        node = self._current_node
        neighbors = targets[offsets[vertex] : offsets[vertex + 1]]
        self._units[node] += len(neighbors)
        self._pending_units += len(neighbors)
        if self._pending_units >= 262_144:
            self._recheck_cutoff()
        if self._combine:  # dedup is per destination: no shortcut
            for dst in neighbors:
                self.send(dst, payload)
            return
        entry = (vertex, payload) if self._tag_sender else payload
        inbox = self._next_inbox
        for dst in neighbors:
            bucket = inbox.get(dst)
            if bucket is None:
                inbox[dst] = [entry]
            else:
                bucket.append(entry)
        self._same_node[node] += same[vertex]

    def aggregate(self, name: str, value) -> None:
        """Contribute ``value`` to aggregator ``name`` this super-step.

        The combined result (including a tiny per-value broadcast
        charge) becomes visible via :meth:`aggregated` next super-step.
        """
        aggregator = self._aggregators[name]
        self._agg_current[name] = aggregator.combine(
            self._agg_current[name], value
        )
        if self.num_nodes > 1:
            self._broadcast_bytes += self._cost.entry_bytes

    def aggregated(self, name: str):
        """The previous super-step's combined value for ``name``.

        Before any contribution round completes, returns the
        aggregator's identity value.
        """
        aggregator = self._aggregators[name]
        return self._agg_visible.get(name, aggregator.initial)

    def publish_entries(self, count: int = 1) -> None:
        """Charge the replication of ``count`` shared-list entries.

        Models Alg. 3's sharing of inverted lists (and Alg. 4's batch
        label sets): every other node receives the new entries at the
        next barrier.
        """
        if self.num_nodes > 1:
            self._broadcast_bytes += count * self._cost.entry_bytes


class FinalizeContext:
    """Per-vertex charging facilities for the post-loop pass: the
    compute context's unit meter, addressed by vertex."""

    __slots__ = ("graph", "num_nodes", "_ctx")

    def __init__(self, ctx: ComputeContext, base_seconds: float):
        self.graph = ctx.graph
        self.num_nodes = ctx.num_nodes
        self._ctx = ctx
        ctx._begin_superstep(ctx.superstep + 1)
        ctx._base_seconds = base_seconds
        ctx._pending_units = 0

    def charge(self, vertex: int, units: int = 1) -> None:
        """Charge ``units`` to the node owning ``vertex``; re-checks the
        cut-off periodically, as :meth:`ComputeContext.charge` does."""
        ctx = self._ctx
        ctx._current_node = ctx._node_of[vertex]
        ctx.charge(units)


class _Checkpoint:
    """A consistent barrier snapshot: program state + pending messages."""

    __slots__ = ("superstep", "program_state", "inbox", "agg_current", "bytes")

    def __init__(self, superstep, program_state, inbox, agg_current, nbytes):
        self.superstep = superstep
        self.program_state = program_state
        self.inbox = inbox
        self.agg_current = agg_current
        self.bytes = nbytes


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


def _slowest_node_seconds(
    cost: CostModel, units: list[int], slowdown: list[float] | None
) -> float:
    """Nodes compute in parallel: the phase lasts as long as its slowest."""
    if slowdown is None:
        return max(units) * cost.t_op
    return max(u * s for u, s in zip(units, slowdown)) * cost.t_op


def _account_superstep(
    cost: CostModel,
    ctx: ComputeContext,
    stats: RunStats,
    active: int,
    trace: bool = False,
    tracer=None,
    slowdown: list[float] | None = None,
    replay: bool = False,
    injector: FaultInjector | None = None,
    node_slices: bool = True,
) -> None:
    """Account one super-step's barrier (shared by both engines).

    Both engines feed the same per-node work counters through this
    function, which is what makes their ``RunStats`` — and therefore the
    simulated clock — identical by construction.  ``replay=True`` marks
    a discarded attempt or a post-recovery replay of an already-committed
    super-step: its full cost lands in ``recovery_seconds`` and no work
    counter or trace row is touched (the committed pass already recorded
    them).  ``node_slices=False`` suppresses the per-logical-node
    :class:`NodeSlice` emission — the multiprocessing engine records
    measured per-worker slices instead.
    """
    units = ctx._units
    comp_seconds = _slowest_node_seconds(cost, units, slowdown)
    comm_bytes = max(ctx._recv_bytes) + ctx._broadcast_bytes
    lost = duplicated = 0
    if injector is not None:
        lost, duplicated = injector.transit_faults(ctx._remote_messages)
        # Reliable transport repairs both: retransmissions put the
        # same bytes on the wire again; delivery is unaffected.
        comm_bytes += (lost + duplicated) * cost.message_bytes
    comm_seconds = comm_bytes * cost.t_byte
    telemetry_on = tracer is not None and tracer.enabled
    if telemetry_on and (lost or duplicated):
        tracer.event(
            "pregel.fault",
            kind="transit",
            superstep=ctx.superstep,
            lost=lost,
            duplicated=duplicated,
        )
    stats.messages_lost += lost
    stats.messages_duplicated += duplicated
    timeline = stats.node_timeline
    if replay:
        seconds = comp_seconds + comm_seconds + cost.t_barrier
        stats.recovery_seconds += seconds
        if timeline is not None:
            timeline.intervals.append(
                TimelineInterval("replay", ctx.superstep, seconds)
            )
        return
    if node_slices:
        _emit_node_slices(
            cost, stats, tracer, ctx.superstep, units, ctx._recv_bytes,
            ctx._broadcast_bytes, comp_seconds, comm_seconds, slowdown,
        )
    if trace or telemetry_on:
        row = SuperstepTrace(
            superstep=ctx.superstep,
            active_vertices=active,
            compute_units=sum(units),
            max_node_units=max(units),
            remote_messages=ctx._remote_messages,
            remote_bytes=sum(ctx._recv_bytes),
            broadcast_bytes=ctx._broadcast_bytes,
        )
        if trace:
            stats.trace.append(row)
        if telemetry_on:
            tracer.event("pregel.superstep", **row.to_dict())
            metrics = current_metrics()
            metrics.counter("pregel.supersteps").inc()
            metrics.counter("pregel.remote_messages").inc(
                ctx._remote_messages
            )
            metrics.histogram(
                "pregel.active_vertices", ACTIVE_VERTEX_BUCKETS
            ).observe(active)
    stats.supersteps += 1
    stats.compute_units += sum(units)
    stats.local_messages += ctx._local_messages
    stats.remote_messages += ctx._remote_messages
    stats.remote_bytes += sum(ctx._recv_bytes)
    stats.broadcast_bytes += ctx._broadcast_bytes
    stats.computation_seconds += comp_seconds
    stats.communication_seconds += comm_seconds
    stats.barrier_seconds += cost.t_barrier
    for node, node_units in enumerate(units):
        stats.per_node_units[node] += node_units


def _emit_node_slices(
    cost: CostModel,
    stats: RunStats,
    tracer,
    superstep: int,
    units: list[int],
    recv: list[int],
    bcast_bytes: int,
    comp_seconds: float,
    comm_seconds: float,
    slowdown: list[float] | None,
) -> None:
    """One :class:`NodeSlice` per logical node for one accounted step.

    BSP phases run in sequence, so a node's barrier wait is the slack
    against the slowest node in each phase; retransmission cost (charged
    to the super-step as a whole) lands in the wait term too.
    """
    timeline = stats.node_timeline
    telemetry_on = tracer is not None and tracer.enabled
    if timeline is None and not telemetry_on:
        return
    for node, node_units in enumerate(units):
        factor = 1.0 if slowdown is None else slowdown[node]
        node_comp = node_units * factor * cost.t_op
        node_comm = (recv[node] + bcast_bytes) * cost.t_byte
        piece = NodeSlice(
            superstep=superstep,
            node=node,
            units=node_units,
            compute_seconds=node_comp,
            comm_seconds=node_comm,
            barrier_wait_seconds=max(
                0.0, (comp_seconds - node_comp) + (comm_seconds - node_comm)
            ),
            barrier_seconds=cost.t_barrier,
            recv_bytes=recv[node],
            slowdown=factor,
        )
        if timeline is not None:
            timeline.slices.append(piece)
        if telemetry_on:
            tracer.event("pregel.node", **piece.to_dict())


def _account_finalize(
    cost: CostModel,
    stats: RunStats,
    finalize_units: list[int],
    superstep: int,
    slowdown: list[float] | None = None,
    tracer=None,
    node_slices: bool = True,
) -> None:
    """Account the post-loop finalize pass as one extra super-step."""
    if not any(finalize_units):
        return
    stats.supersteps += 1
    stats.compute_units += sum(finalize_units)
    finalize_seconds = _slowest_node_seconds(cost, finalize_units, slowdown)
    stats.computation_seconds += finalize_seconds
    stats.barrier_seconds += cost.t_barrier
    for node, units in enumerate(finalize_units):
        stats.per_node_units[node] += units
    if node_slices:
        _emit_node_slices(
            cost, stats, tracer, superstep + 1, finalize_units,
            [0] * len(finalize_units), 0, finalize_seconds, 0.0, slowdown,
        )


class Engine(ABC):
    """An execution strategy for the BSP contract behind :class:`Cluster`.

    The engine owns the mechanics — compute scheduling, message routing,
    the super-step barrier, and checkpoint hooks — while the cluster
    owns the configuration (node count, partitioner, cost model, fault
    plan).  Two implementations ship:

    - :class:`SimulatorEngine` — the deterministic single-process
      simulator with the charged cost model and fault injection; and
    - :class:`repro.pregel.mp.MultiprocessEngine` — real parallelism
      across worker processes over a shared-memory CSR, producing the
      identical labels and the identical simulated-clock accounting
      while the wall clock actually drops with cores.
    """

    #: Short name used by ``--engine`` and telemetry.
    name: str = "?"
    #: Whether the engine honours fault plans and checkpoint intervals.
    supports_faults: bool = False

    @abstractmethod
    def run(
        self,
        cluster: "Cluster",
        graph: DiGraph,
        program: VertexProgram,
        max_supersteps: int = 100_000,
        stats: RunStats | None = None,
        trace: bool = False,
        node_timeline: bool = False,
    ) -> RunStats:
        """Execute ``program`` on ``graph`` under ``cluster``'s config."""


class SimulatorEngine(Engine):
    """The deterministic single-process simulator (the default engine).

    Runs every vertex in one process, charging all work through the
    cluster's :class:`CostModel`; supports fault injection, super-step
    checkpointing, and crash recovery.  Wall-clock time is irrelevant
    here — the simulated clock is the result.
    """

    name = "sim"
    supports_faults = True

    def run(
        self,
        cluster: "Cluster",
        graph: DiGraph,
        program: VertexProgram,
        max_supersteps: int = 100_000,
        stats: RunStats | None = None,
        trace: bool = False,
        node_timeline: bool = False,
    ) -> RunStats:
        tracer = current_tracer()
        with tracer.span(
            "pregel.run",
            program=type(program).__name__,
            num_nodes=cluster.num_nodes,
            vertices=graph.num_vertices,
            edges=graph.num_edges,
            engine=self.name,
        ) as span:
            cost = cluster.cost_model
            injector = cluster._injector
            routing = cluster.routing(graph)
            if injector is not None:
                # Crashes move vertices in place, so a fault run owns its
                # map; nodes lost in an earlier run of this cluster stay
                # dead.
                node_of = array("q", routing.node_of)
                injector.reassign(node_of, ())
                routing = Routing.of(graph, node_of)
            slowdown = (
                cluster.faults.slowdowns(cluster.num_nodes)
                if cluster.faults is not None and cluster.faults.stragglers
                else None
            )
            if stats is None:
                stats = RunStats(num_nodes=cluster.num_nodes)
                stats.per_node_units = [0] * cluster.num_nodes
            if node_timeline and stats.node_timeline is None:
                stats.node_timeline = NodeTimeline(num_nodes=cluster.num_nodes)
            wall_start = time.perf_counter()
            simulated_start = stats.simulated_seconds

            ctx = ComputeContext(
                graph, cluster.num_nodes, routing, cost, program
            )
            program.setup(ctx)

            # Super-step 0 snapshot: recovery without an on-disk
            # checkpoint restarts from re-initialized state, so this
            # snapshot is free (bytes=0) — nothing crossed the network.
            checkpoint: _Checkpoint | None = None
            interval = cluster.checkpoint_interval
            if interval is not None or (
                injector is not None and injector.has_pending
            ):
                checkpoint = _Checkpoint(
                    0, program.snapshot(), {}, dict(ctx._agg_current), 0
                )

            inbox: dict[int, list] = {}
            superstep = 0
            committed = 0
            while True:
                superstep += 1
                if superstep > max_supersteps:
                    raise SuperstepLimitExceeded(
                        f"no termination after {max_supersteps} supersteps"
                    )
                ctx._run_superstep(
                    program, superstep, stats.simulated_seconds, inbox,
                    program.initial_vertices(graph),
                )
                active = len(inbox) if superstep > 1 else graph.num_vertices
                fired = (
                    injector.crashes_at(superstep)
                    if injector is not None
                    else ()
                )
                if fired and checkpoint is not None:
                    # The barrier never commits: the attempt is lost work.
                    _account_superstep(
                        cost, ctx, stats, active, False, tracer,
                        slowdown=slowdown, replay=True, injector=injector,
                    )
                    inbox = self._recover(
                        cluster, ctx, stats, checkpoint, injector, fired,
                        superstep, program, tracer,
                    )
                    superstep = checkpoint.superstep
                    cost.check_time(stats.simulated_seconds)
                    continue
                replay = superstep <= committed
                _account_superstep(
                    cost, ctx, stats, active, trace, tracer,
                    slowdown=slowdown, replay=replay, injector=injector,
                )
                committed = max(committed, superstep)
                program.on_barrier(superstep)
                if (
                    checkpoint is not None
                    and interval is not None
                    and superstep % interval == 0
                    and superstep > checkpoint.superstep
                ):
                    checkpoint = self._take_checkpoint(
                        cluster, superstep, program, ctx, stats, injector,
                        tracer,
                    )
                cost.check_time(stats.simulated_seconds)
                inbox = ctx._next_inbox
                if not inbox:
                    break

            program.finalize(FinalizeContext(ctx, stats.simulated_seconds))
            _account_finalize(
                cost, stats, ctx._units, superstep,
                slowdown=slowdown, tracer=tracer,
            )
            cost.check_time(stats.simulated_seconds)
            stats.wall_seconds += time.perf_counter() - wall_start
            if tracer.enabled:
                span.set(supersteps=superstep)
                span.add_simulated(stats.simulated_seconds - simulated_start)
        return stats

    def _take_checkpoint(
        self,
        cluster: "Cluster",
        superstep: int,
        program: VertexProgram,
        ctx: ComputeContext,
        stats: RunStats,
        injector: FaultInjector | None,
        tracer,
    ) -> _Checkpoint:
        """Snapshot barrier state and charge the serialization bytes."""
        cost = cluster.cost_model
        state = program.snapshot()
        pending = ctx._next_inbox
        messages = sum(len(bucket) for bucket in pending.values())
        nbytes = (
            _estimate_entries(state) * cost.entry_bytes
            + messages * cost.message_bytes
        )
        alive = (
            len(injector.survivors) if injector is not None else cluster.num_nodes
        )
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
        return _Checkpoint(
            superstep,
            state,
            copy.deepcopy(pending),
            copy.deepcopy(ctx._agg_current),
            nbytes,
        )

    def _recover(
        self,
        cluster: "Cluster",
        ctx: ComputeContext,
        stats: RunStats,
        checkpoint: _Checkpoint,
        injector: FaultInjector,
        fired: tuple[int, ...],
        superstep: int,
        program: VertexProgram,
        tracer,
    ) -> dict[int, list]:
        """Fail over after a crash: reassign, restore, return the inbox.

        Charges failure detection plus the survivors' parallel read of
        the last checkpoint (every surviving node re-reads the state of
        its — possibly grown — partition from stable storage), then
        rolls program, aggregator, and inbox state back to the
        checkpointed barrier.
        """
        cost = cluster.cost_model
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
        program.restore(checkpoint.program_state)
        ctx._agg_current = copy.deepcopy(checkpoint.agg_current)
        ctx._agg_visible = {}
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
        return copy.deepcopy(checkpoint.inbox)


#: Engine names accepted by :func:`resolve_engine` and ``--engine``.
ENGINE_NAMES = ("sim", "mp")


def resolve_engine(engine: "str | Engine", workers: int | None = None) -> Engine:
    """Resolve an engine selector (name or instance) to an :class:`Engine`.

    ``workers`` only applies to the multiprocessing engine (the
    simulator has no worker processes) and is ignored when ``engine``
    is already an instance.
    """
    if isinstance(engine, Engine):
        return engine
    if engine == "sim":
        return SimulatorEngine()
    if engine == "mp":
        from repro.pregel.mp import MultiprocessEngine

        return MultiprocessEngine(workers=workers)
    raise ValueError(
        f"unknown engine {engine!r}; choose one of {', '.join(ENGINE_NAMES)}"
    )


class Cluster:
    """A cluster of ``num_nodes`` computation nodes.

    Parameters
    ----------
    num_nodes:
        Number of computation nodes (the paper uses up to 32).
    cost_model:
        Converts work counts to simulated seconds; defaults to the MPI
        cluster model.
    partitioner:
        Vertex-to-node assignment; defaults to the paper's hash-by-id
        scheme.
    faults:
        Optional :class:`~repro.faults.FaultPlan` injected into every
        run of this cluster.  Crash events fire once per cluster
        lifetime and dead nodes stay dead across chained runs (DRL_b's
        batches), exactly as on real hardware.  Simulator engine only.
    checkpoint_interval:
        Snapshot vertex state, pending messages, and aggregators every
        this many super-steps, charging the serialization bytes through
        the cost model.  Required for crash recovery to resume anywhere
        other than super-step 0.  Simulator engine only.
    engine:
        Execution engine: ``"sim"`` (default) for the deterministic
        single-process simulator, ``"mp"`` for real parallelism across
        worker processes (:class:`repro.pregel.mp.MultiprocessEngine`),
        or any :class:`Engine` instance.
    workers:
        Worker-process count for ``engine="mp"`` (defaults to the
        machine's core count); ignored by the simulator.
    """

    def __init__(
        self,
        num_nodes: int = 32,
        cost_model: CostModel | None = None,
        partitioner: Partitioner | None = None,
        faults: FaultPlan | None = None,
        checkpoint_interval: int | None = None,
        engine: "str | Engine" = "sim",
        workers: int | None = None,
    ):
        if num_nodes < 1:
            raise ValueError("num_nodes must be at least 1")
        if partitioner is not None and partitioner.num_nodes != num_nodes:
            raise ValueError("partitioner and cluster disagree on num_nodes")
        if checkpoint_interval is not None and checkpoint_interval < 1:
            raise ValueError("checkpoint_interval must be at least 1")
        self.engine = resolve_engine(engine, workers)
        if not self.engine.supports_faults and (
            faults is not None or checkpoint_interval is not None
        ):
            raise ReproError(
                f"the {self.engine.name!r} engine does not support fault "
                "injection or checkpointing; use engine='sim'"
            )
        self.num_nodes = num_nodes
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.partitioner = (
            partitioner if partitioner is not None else HashPartitioner(num_nodes)
        )
        self.faults = faults
        self.checkpoint_interval = checkpoint_interval
        self._injector = (
            FaultInjector(faults, num_nodes) if faults is not None else None
        )
        self._routing: tuple[DiGraph, Routing] | None = None

    def routing(self, graph: DiGraph) -> Routing:
        """Vertex placement and same-node neighbour counts: computed once
        per graph, shared by every run of this cluster (DRL_b's batches)
        and by the multiprocessing engine's workers."""
        if self._routing is None or self._routing[0] is not graph:
            node_of = node_assignment(self.partitioner, graph.num_vertices)
            self._routing = (graph, Routing.of(graph, node_of))
        return self._routing[1]

    def run(
        self,
        graph: DiGraph,
        program: VertexProgram,
        max_supersteps: int = 100_000,
        stats: RunStats | None = None,
        trace: bool = False,
        node_timeline: bool = False,
    ) -> RunStats:
        """Execute ``program`` on ``graph`` until no messages remain.

        When ``stats`` is given, accounting accumulates into it (used to
        chain the batches of DRL_b into one run) and the time-limit check
        covers the accumulated total.  ``trace=True`` records one
        :class:`~repro.pregel.metrics.SuperstepTrace` row per super-step.

        ``node_timeline=True`` additionally records one
        :class:`~repro.pregel.metrics.NodeSlice` per node per committed
        super-step (plus recovery/replay/checkpoint intervals) into
        ``stats.node_timeline`` — the input of
        :func:`repro.profiling.analyze_skew`.  Off by default: the flag
        costs nothing when disabled and no telemetry session is active.
        Under the multiprocessing engine the slices carry *measured*
        per-worker wall-clock seconds instead of simulated per-node ones.

        With a fault plan, crashed super-steps are discarded and
        replayed from the last checkpoint; discarded attempts and
        replays charge ``stats.recovery_seconds`` only, so the work
        counters and trace rows describe committed progress exactly
        once — identical to a fault-free run of the same program.

        When a telemetry session is active (see :mod:`repro.telemetry`),
        the whole run is wrapped in a ``pregel.run`` span and every
        super-step emits a ``pregel.superstep`` event carrying the
        :class:`SuperstepTrace` fields plus one ``pregel.node`` event
        per node carrying the :class:`NodeSlice` fields, independent of
        ``trace``/``node_timeline``.  Faults additionally emit
        ``pregel.fault``, ``pregel.recovery``, and ``pregel.checkpoint``
        events.
        """
        return self.engine.run(
            self,
            graph,
            program,
            max_supersteps=max_supersteps,
            stats=stats,
            trace=trace,
            node_timeline=node_timeline,
        )
