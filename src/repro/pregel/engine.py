"""The BSP cluster engine.

:class:`Cluster` simulates a vertex-centric system running on
``num_nodes`` computation nodes.  Vertices are assigned to nodes by a
:class:`~repro.graph.partition.Partitioner`; message routing, super-step
barriers, and termination follow Pregel semantics.  All work is counted
and converted to simulated seconds by a
:class:`~repro.pregel.cost_model.CostModel` (see that module for the
formula), which is what makes single-process runs report meaningful
distributed timings.  The runtime exists once: :meth:`Engine.run` is the
master loop and drives :class:`Worker` objects, one in-process for the
simulator, several in forked processes for :mod:`repro.pregel.mp`.

Fault tolerance (see :mod:`repro.faults` and ``docs/simulator.md``):
a cluster built with a :class:`~repro.faults.FaultPlan` injects node
crashes, stragglers, and transit message faults; ``checkpoint_interval``
enables Pregel-style super-step checkpointing so crashed runs recover
by restoring the last checkpoint, reassigning the dead node's partition
to the survivors, and replaying.  All of it lives in the one hook the
simulator installs for such a run, :class:`repro.pregel.recovery.Recovery`.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from contextlib import contextmanager
from operator import itemgetter
from typing import TYPE_CHECKING, ContextManager, Iterable, NamedTuple

from repro.errors import ReproError, check_count
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

if TYPE_CHECKING:  # pragma: no cover
    from repro.pregel.recovery import Recovery

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
        "_broadcast_bytes",
        "_cost",
        "_base_seconds",
        "_pending_units",
        "_combine",
        "_sent_keys",
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
        self._cost = cost
        self._base_seconds = 0.0
        self._pending_units = 0
        self._combine = program.combine_duplicates
        self._sent_keys: set = set()
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

    def _run_superstep(
        self, program: VertexProgram, superstep: int, base_seconds: float,
        inbox: dict[int, list], starts: Iterable[int],
    ) -> tuple[list[int], int, int]:
        """One super-step of ``compute()`` calls: over ``starts`` in
        super-step 1, over ``inbox`` in ascending vertex order after.
        Returns what :meth:`_settle` derives."""
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
        return self._settle()

    def _settle(self) -> tuple[list[int], int, int]:
        """Derive the routing counters at the barrier — bytes received
        per node, local messages, remote messages: a node received what
        its vertices' buckets hold; what did not come from the node
        itself crossed the network."""
        received = [0] * self.num_nodes
        node_of = self._node_of
        for dst, bucket in self._next_inbox.items():
            received[node_of[dst]] += len(bucket)
        same = self._same_node
        message_bytes = self._cost.message_bytes
        local = sum(same)
        recv_bytes = [
            (got - own) * message_bytes for got, own in zip(received, same)
        ]
        return recv_bytes, local, sum(received) - local

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


class StepCounts(NamedTuple):
    """What one super-step did: one worker's share or, summed in worker
    order, the cluster's.  ``units`` and ``recv_bytes`` are per logical
    node; ``pending`` counts the message buckets sent."""

    active: int
    units: list[int]
    recv_bytes: list[int]
    broadcast_bytes: int
    local_messages: int
    remote_messages: int
    pending: int

    def plus(self, other: tuple) -> "StepCounts":
        active, units, recv_bytes, broadcast, local, remote, pending = other
        return StepCounts(
            self.active + active,
            [a + b for a, b in zip(self.units, units)],
            [a + b for a, b in zip(self.recv_bytes, recv_bytes)],
            self.broadcast_bytes + broadcast,
            self.local_messages + local,
            self.remote_messages + remote,
            self.pending + pending,
        )


def _splice(inbox: dict[int, list], buckets: dict[int, list]) -> None:
    """Append ``buckets`` to ``inbox``, vertex by vertex."""
    for dst, entries in buckets.items():
        bucket = inbox.get(dst)
        if bucket is None:
            inbox[dst] = entries
        else:
            bucket.extend(entries)


def apply_barrier(program: VertexProgram, superstep: int, deltas) -> None:
    """One program copy's barrier: every replica's published delta, in
    worker order, then ``on_barrier()``."""
    for delta in deltas:
        if delta is not None:
            program.mp_apply_published(delta)
    program.on_barrier(superstep)


class Worker:
    """One BSP worker: the logical nodes ``n`` with ``n % num_workers ==
    index``, their vertices, and the messages waiting for those vertices.

    The master loop (:meth:`Engine.run`) drives every worker through
    :meth:`step`, :meth:`barrier` and :meth:`finalize`.  The simulator
    has one, in the master's process and on the master's own program;
    the multiprocessing engine forks ``num_workers`` of them, each with
    a ``replica`` of the program whose published deltas and final state
    have to travel back.
    """

    def __init__(
        self, ctx: ComputeContext, program: VertexProgram,
        index: int = 0, num_workers: int = 1, replica: bool = False,
    ):
        self.ctx = ctx
        self.program = program
        self.index = index
        self.num_workers = num_workers
        self.replica = replica
        #: Messages for this worker's vertices, delivered next super-step.
        self.pending: dict[int, list] = {}
        self.owned = self._mine(ctx.graph.vertices())

    def _mine(self, vertices: Iterable[int]) -> Iterable[int]:
        if self.num_workers == 1:
            return vertices
        node_of, workers, index = self.ctx._node_of, self.num_workers, self.index
        return [v for v in vertices if node_of[v] % workers == index]

    def step(
        self, superstep: int, base_seconds: float, incoming: dict[int, list],
    ) -> tuple[tuple, dict[int, dict[int, list]], object]:
        """Deliver ``pending`` plus the other workers' ``incoming``
        buckets, run ``compute()`` over them and keep what was sent to
        own vertices.  Returns — as plain tuples, which cross a pipe
        cheaply — the step's :class:`StepCounts` fields, the buckets
        bound for other workers (``{worker: {vertex: entries}}``) and a
        replica's ``mp_publish_delta()``."""
        ctx, program = self.ctx, self.program
        inbox = self.pending
        _splice(inbox, incoming)
        recv_bytes, local_messages, remote_messages = ctx._run_superstep(
            program, superstep, base_seconds, inbox,
            self._mine(program.initial_vertices(ctx.graph))
            if superstep == 1
            else (),
        )
        sent = ctx._next_inbox
        outgoing: dict[int, dict[int, list]] = {}
        if self.num_workers == 1:
            self.pending = sent
        else:
            node_of, workers, index = ctx._node_of, self.num_workers, self.index
            self.pending = pending = {}
            for dst, bucket in sent.items():
                worker = node_of[dst] % workers
                if worker == index:
                    pending[dst] = bucket
                else:
                    outgoing.setdefault(worker, {})[dst] = bucket
        counts = (
            len(inbox) if superstep > 1 else len(self.owned),
            ctx._units,
            recv_bytes,
            ctx._broadcast_bytes,
            local_messages,
            remote_messages,
            len(sent),
        )
        delta = program.mp_publish_delta() if self.replica else None
        return counts, outgoing, delta

    def barrier(self, superstep: int, deltas) -> None:
        apply_barrier(self.program, superstep, deltas)

    def finalize(self, base_seconds: float) -> tuple[list[int], object]:
        """The post-loop pass — all of ``program.finalize()`` on the
        master's program, the owned share of it on a replica — as
        ``(per-node units, a replica's mp_collect())``."""
        fctx = FinalizeContext(self.ctx, base_seconds)
        if not self.replica:
            self.program.finalize(fctx)
            return self.ctx._units, None
        self.program.finalize_vertices(fctx, self.owned)
        return self.ctx._units, self.program.mp_collect(self.owned)


class _InProcessWorkers:
    """The simulator's transport: one :class:`Worker`, called directly.
    It sweeps every vertex in ascending order, so each bucket already
    holds its messages in the delivery order sender tags exist to
    restore."""

    remote = False

    def __init__(self, worker: Worker):
        self.worker = worker

    def __len__(self) -> int:
        return 1

    def step(self, superstep, base_seconds, routed):
        return [self.worker.step(superstep, base_seconds, routed[0])]

    def barrier(self, superstep, deltas) -> None:
        self.worker.barrier(superstep, deltas)

    def finalize(self, base_seconds):
        return [self.worker.finalize(base_seconds)]


def _slowest_node_seconds(
    cost: CostModel, units: list[int], slowdown: list[float] | None
) -> float:
    """Nodes compute in parallel: the phase lasts as long as its slowest."""
    if slowdown is None:
        return max(units) * cost.t_op
    return max(u * s for u, s in zip(units, slowdown)) * cost.t_op


def _account_superstep(
    cost: CostModel,
    superstep: int,
    counts: StepCounts,
    stats: RunStats,
    trace: bool = False,
    tracer=None,
    recovery: Recovery | None = None,
    replay: bool = False,
    node_slices: bool = True,
) -> None:
    """Account one super-step's barrier from the workers' summed counters.

    ``recovery`` is the run's fault hook: stragglers, the transit draw and
    the replay of an already-committed super-step; ``replay=True`` marks a
    discarded attempt.  A replay's full cost lands in
    ``recovery_seconds`` and touches no work counter or trace row (the
    committed pass already recorded them).  ``node_slices=False``
    suppresses the per-logical-node :class:`NodeSlice` emission — worker
    processes are recorded as measured per-worker slices instead.
    """
    units = counts.units
    slowdown = None if recovery is None else recovery.slowdown
    comp_seconds = _slowest_node_seconds(cost, units, slowdown)
    comm_bytes = max(counts.recv_bytes) + counts.broadcast_bytes
    lost = duplicated = 0
    if recovery is not None:
        replay = replay or superstep <= recovery.committed
        lost, duplicated = recovery.injector.transit_faults(counts.remote_messages)
        # Reliable transport repairs both: retransmissions put the
        # same bytes on the wire again; delivery is unaffected.
        comm_bytes += (lost + duplicated) * cost.message_bytes
    comm_seconds = comm_bytes * cost.t_byte
    telemetry_on = tracer is not None and tracer.enabled
    if telemetry_on and (lost or duplicated):
        tracer.event(
            "pregel.fault",
            kind="transit",
            superstep=superstep,
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
                TimelineInterval("replay", superstep, seconds)
            )
        return
    if node_slices:
        _emit_node_slices(
            cost, stats, tracer, superstep, units, counts.recv_bytes,
            counts.broadcast_bytes, comp_seconds, comm_seconds, slowdown,
        )
    if trace or telemetry_on:
        row = SuperstepTrace(
            superstep=superstep,
            active_vertices=counts.active,
            compute_units=sum(units),
            max_node_units=max(units),
            remote_messages=counts.remote_messages,
            remote_bytes=sum(counts.recv_bytes),
            broadcast_bytes=counts.broadcast_bytes,
        )
        if trace:
            stats.trace.append(row)
        if telemetry_on:
            tracer.event("pregel.superstep", **row.to_dict())
            metrics = current_metrics()
            metrics.counter("pregel.supersteps").inc()
            metrics.counter("pregel.remote_messages").inc(
                counts.remote_messages
            )
            metrics.histogram(
                "pregel.active_vertices", ACTIVE_VERTEX_BUCKETS
            ).observe(counts.active)
    stats.supersteps += 1
    stats.compute_units += sum(units)
    stats.local_messages += counts.local_messages
    stats.remote_messages += counts.remote_messages
    stats.remote_bytes += sum(counts.recv_bytes)
    stats.broadcast_bytes += counts.broadcast_bytes
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
    recovery: Recovery | None = None,
    tracer=None,
    node_slices: bool = True,
) -> None:
    """Account the post-loop finalize pass as one extra super-step."""
    if not any(finalize_units):
        return
    slowdown = None if recovery is None else recovery.slowdown
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
    """The BSP runtime behind :class:`Cluster`: one master loop over the
    workers an implementation starts.

    :meth:`run` owns the protocol — step every worker, sum their
    counters in worker order, account the barrier, route the buckets
    that change worker, publish deltas, ``on_barrier()``, cut-off,
    termination, finalize — and the cluster owns the configuration
    (node count, partitioner, cost model, fault plan).  What differs
    between engines is only where the :class:`Worker` objects live:

    - :class:`SimulatorEngine` — one worker in the master's process
      owning every node: deterministic, with fault injection; and
    - :class:`repro.pregel.mp.MultiprocessEngine` — the same workers in
      forked processes over a shared-memory CSR, producing the identical
      labels and the identical simulated-clock accounting while the wall
      clock actually drops with cores.
    """

    #: Short name used by ``--engine`` and telemetry.
    name: str = "?"
    #: Whether the engine honours fault plans and checkpoint intervals:
    #: both need the in-process worker :mod:`repro.pregel.recovery` rewinds.
    supports_faults: bool = False

    @abstractmethod
    def _start_workers(
        self, cluster: "Cluster", ctx: ComputeContext, program: VertexProgram
    ) -> ContextManager:
        """A context manager yielding the run's workers — an object with
        ``step(superstep, base_seconds, routed)`` and
        ``finalize(base_seconds)`` returning one reply per worker in
        worker order, ``barrier(superstep, deltas)``, ``len()`` and
        ``remote`` (the workers are replicas in other processes, which
        ``emit_slices`` reports as measured).  ``ctx`` is the context
        ``program.setup()`` ran on."""

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
            num_nodes = cluster.num_nodes
            recovery = self._fault_hook(cluster, graph)
            routing = cluster.routing(graph) if recovery is None else recovery.routing
            if stats is None:
                stats = RunStats(num_nodes=num_nodes)
                stats.per_node_units = [0] * num_nodes
            wall_start = time.perf_counter()
            simulated_start = stats.simulated_seconds

            ctx = ComputeContext(graph, num_nodes, routing, cost, program)
            program.setup(ctx)
            with self._start_workers(cluster, ctx, program) as workers:
                remote = workers.remote
                if remote:
                    span.set(workers=len(workers))
                if node_timeline and stats.node_timeline is None:
                    stats.node_timeline = NodeTimeline(
                        num_nodes=len(workers) if remote else num_nodes
                    )
                if recovery is not None:
                    recovery.start(workers.worker)

                routed: list[dict[int, list]] = [{} for _ in range(len(workers))]
                superstep = 0
                while True:
                    superstep += 1
                    if superstep > max_supersteps:
                        raise SuperstepLimitExceeded(
                            f"no termination after {max_supersteps} supersteps"
                        )
                    shares, outgoing, deltas = zip(*workers.step(
                        superstep, stats.simulated_seconds, routed
                    ))
                    # Fixed worker order: the merge cannot depend on the
                    # order replies arrived in.
                    counts = StepCounts(*shares[0])
                    for share in shares[1:]:
                        counts = counts.plus(share)
                    if recovery is not None:
                        resume = recovery.crashed(superstep, counts, stats, tracer)
                        if resume is not None:
                            superstep = resume
                            cost.check_time(stats.simulated_seconds)
                            continue
                    routed = [{} for _ in range(len(workers))]
                    for sent in outgoing:
                        for worker, buckets in sent.items():
                            _splice(routed[worker], buckets)
                    _account_superstep(
                        cost, superstep, counts, stats, trace, tracer, recovery,
                        node_slices=not remote,
                    )
                    workers.barrier(superstep, deltas)
                    if remote:
                        workers.emit_slices(
                            stats, tracer, superstep, counts.units,
                            counts.recv_bytes,
                        )
                    if recovery is not None:
                        recovery.barrier(superstep, stats, tracer)
                    cost.check_time(stats.simulated_seconds)
                    if not counts.pending:
                        break

                finalized = workers.finalize(stats.simulated_seconds)
                units = [sum(node) for node in zip(*(u for u, _ in finalized))]
                _account_finalize(
                    cost, stats, units, superstep, recovery, tracer,
                    node_slices=not remote,
                )
                if remote:
                    if any(units):
                        workers.emit_slices(
                            stats, tracer, superstep + 1, units, [0] * num_nodes
                        )
                    for _, collected in finalized:  # fixed order
                        program.mp_merge(collected)
            cost.check_time(stats.simulated_seconds)
            stats.wall_seconds += time.perf_counter() - wall_start
            if tracer.enabled:
                span.set(supersteps=superstep)
                span.add_simulated(stats.simulated_seconds - simulated_start)
        return stats

    def _fault_hook(self, cluster: "Cluster", graph: DiGraph) -> Recovery | None:
        """The run's :class:`~repro.pregel.recovery.Recovery`: installed
        when the engine ``supports_faults`` and the cluster has a fault
        plan or a checkpoint interval."""
        if not self.supports_faults or (
            cluster.faults is None and cluster.checkpoint_interval is None
        ):
            return None
        from repro.pregel.recovery import Recovery

        return Recovery(cluster, graph)


class SimulatorEngine(Engine):
    """The deterministic single-process simulator (the default engine).

    Runs every vertex in one process, charging all work through the
    cluster's :class:`CostModel`; supports fault injection, super-step
    checkpointing, and crash recovery.  Wall-clock time is irrelevant
    here — the simulated clock is the result.
    """

    name = "sim"
    supports_faults = True

    @contextmanager
    def _start_workers(self, cluster, ctx, program):
        yield _InProcessWorkers(Worker(ctx, program))


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
        Snapshot program state and pending messages every this many
        super-steps, charging the serialization bytes through the cost
        model.  Required for crash recovery to resume anywhere other
        than super-step 0.  Simulator engine only.
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
        num_nodes = check_count("num_nodes", num_nodes)
        if partitioner is not None and partitioner.num_nodes != num_nodes:
            raise ValueError("partitioner and cluster disagree on num_nodes")
        if checkpoint_interval is not None:
            checkpoint_interval = check_count("checkpoint_interval", checkpoint_interval)
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
            max_supersteps=check_count("max_supersteps", max_supersteps),
            stats=stats,
            trace=trace,
            node_timeline=node_timeline,
        )
