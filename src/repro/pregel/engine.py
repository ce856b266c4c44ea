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
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from contextlib import contextmanager
from typing import ContextManager, Iterable, NamedTuple

from repro.errors import ReproError, check_count
from repro.graph.digraph import DiGraph
from repro.graph.partition import (
    HashPartitioner,
    Partitioner,
    Routing,
    node_assignment,
)
from repro.pregel.cost_model import CostModel
from repro.pregel.metrics import NodeSlice, RunStats
from repro.pregel.vertex_program import VertexProgram
from repro.telemetry import current_tracer

_EMPTY: tuple = ()


class SuperstepLimitExceeded(ReproError):
    """The program did not terminate within ``max_supersteps``."""


class ComputeContext:
    """Facilities available to ``compute()`` during a super-step.

    Senders (:meth:`send` and the two neighbour fan-outs) only append to
    the outbox — here one bucket per destination; what crossed the
    network is settled once per super-step, at the barrier, from counts.
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
        "_outbox",
        "_units",
        "_same_node",
        "_broadcast_bytes",
        "_cost",
        "_base_seconds",
        "_pending_units",
        "_combine",
        "_sent_keys",
    )

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
        self._outbox = {}
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
        node_of = self._node_of
        for v in starts if superstep == 1 else sorted(inbox):
            messages = inbox.get(v, _EMPTY)
            self._current_vertex = v
            self._current_node = node_of[v]
            self.charge(len(messages))  # one unit per delivery
            program.compute(self, v, messages)
        return self._settle()

    def _deliver(self, pending: dict[int, list], incoming) -> dict[int, list]:
        """The inbox of the next super-step: the buckets this context
        filled, as they are (a lone worker receives from nobody else)."""
        return pending

    def _received(self) -> list[int]:
        """Messages sent this super-step, per receiving node: a node
        received what its vertices' buckets hold."""
        received = [0] * self.num_nodes
        node_of = self._node_of
        for dst, bucket in self._outbox.items():
            received[node_of[dst]] += len(bucket)
        return received

    def _settle(self) -> tuple[list[int], int, int]:
        """Derive the routing counters at the barrier — bytes received
        per node, local messages, remote messages: what did not come
        from the receiving node itself crossed the network."""
        received = self._received()
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
        if self._combine and self._combined(dst, payload):
            return
        bucket = self._outbox.get(dst)
        if bucket is None:
            self._outbox[dst] = [payload]
        else:
            bucket.append(payload)
        node = self._current_node
        if self._node_of[dst] == node:
            self._same_node[node] += 1

    def _combined(self, dst: int, payload) -> bool:
        """Whether the combiner drops this message: the current node
        sent ``payload`` to ``dst`` already this super-step."""
        key = (self._current_node, dst, payload)
        if key in self._sent_keys:
            return True  # combined away before reaching the network
        self._sent_keys.add(key)
        return False

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
        self.charge(len(neighbors))
        if self._combine:  # dedup is per destination: no shortcut
            for dst in neighbors:
                self.send(dst, payload)
            return
        outbox = self._outbox
        for dst in neighbors:
            bucket = outbox.get(dst)
            if bucket is None:
                outbox[dst] = [payload]
            else:
                bucket.append(payload)
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
    node; ``pending`` counts what was sent — a lone worker's message
    buckets, or the records (:mod:`repro.pregel.mp`) of one of several:
    non-zero exactly when a message is in flight."""

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


class Worker:
    """One BSP worker: the logical nodes ``n`` with ``n % num_workers ==
    index``, their vertices, and the messages waiting for those vertices.

    The master loop (:meth:`Engine.run`) drives every worker through
    :meth:`step`, :meth:`barrier` and :meth:`finalize`.  The simulator
    has one, in the master's process and on the master's own program;
    the multiprocessing engine forks ``num_workers`` of them, each with
    a ``replica`` of the program whose published deltas travel to the
    other workers and whose final state travels to the master.
    """

    def __init__(
        self, ctx: ComputeContext, program: VertexProgram,
        index: int = 0, num_workers: int = 1, replica: bool = False,
        owned: Iterable[int] | None = None,
    ):
        self.ctx = ctx
        self.program = program
        self.index = index
        self.num_workers = num_workers
        self.replica = replica
        #: What this worker sent last super-step, delivered in the next:
        #: its buckets or, with several workers, its records.
        self.pending = ctx._outbox
        #: The vertices this worker owns (``owned`` reuses an earlier
        #: run's: the placement is the cluster's, fixed per graph).
        self.owned = self._mine(ctx.graph.vertices()) if owned is None else owned

    def _mine(self, vertices: Iterable[int]) -> Iterable[int]:
        if self.num_workers == 1:
            return vertices
        node_of, workers, index = self.ctx._node_of, self.num_workers, self.index
        return [v for v in vertices if node_of[v] % workers == index]

    def step(
        self, superstep: int, base_seconds: float, incoming: Iterable[list] = (),
    ) -> tuple[tuple, list | None, object]:
        """Deliver what is ``pending`` — with several workers, merged with
        what the others sent last super-step (``incoming``, one record
        list per sender) —, run ``compute()`` over it and keep what it
        sends.  Returns — as plain tuples, which cross a pipe cheaply —
        the step's :class:`StepCounts` fields and, for the other
        workers, this step's records and the program's
        ``mp_publish_delta()`` (a lone worker has neither)."""
        ctx, program = self.ctx, self.program
        inbox = ctx._deliver(self.pending, incoming)
        recv_bytes, local_messages, remote_messages = ctx._run_superstep(
            program, superstep, base_seconds, inbox,
            self._mine(program.initial_vertices(ctx.graph))
            if superstep == 1
            else (),
        )
        self.pending = sent = ctx._outbox
        counts = (
            len(inbox) if superstep > 1 else len(self.owned),
            ctx._units,
            recv_bytes,
            ctx._broadcast_bytes,
            local_messages,
            remote_messages,
            len(sent),
        )
        if self.num_workers == 1:
            return counts, None, None
        return counts, sent, program.mp_publish_delta()

    def barrier(self, superstep: int, deltas=()) -> None:
        """The other workers' published ``deltas``, in worker order, then
        ``on_barrier()``; a replica's own entries are in place already."""
        for delta in deltas:
            self.program.mp_apply_published(delta)
        self.program.on_barrier(superstep)

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
    holds its messages in delivery order: by ascending sender."""

    remote = False

    def __init__(self, worker: Worker):
        self.worker = worker

    def __len__(self) -> int:
        return 1

    def step(self, superstep, base_seconds):
        return [self.worker.step(superstep, base_seconds)[0]]

    def barrier(self, superstep) -> None:
        self.worker.barrier(superstep)

    def finalize(self, base_seconds):
        return [self.worker.finalize(base_seconds)]


def _account_superstep(
    cost: CostModel,
    superstep: int,
    counts: StepCounts,
    stats: RunStats,
    tracer=None,
    node_slices: bool = True,
) -> None:
    """Account one super-step's barrier from the workers' summed counters.

    Nodes compute in parallel, so the compute phase lasts as long as its
    slowest node.  ``node_slices=False`` suppresses the per-logical-node
    :class:`NodeSlice` emission — worker processes are recorded as
    measured per-worker slices instead.
    """
    units = counts.units
    comp_seconds = max(units) * cost.t_op
    comm_seconds = (max(counts.recv_bytes) + counts.broadcast_bytes) * cost.t_byte
    if tracer is not None and tracer.enabled:
        if node_slices:
            _emit_node_slices(
                cost, tracer, superstep, units, counts.recv_bytes,
                counts.broadcast_bytes, comp_seconds, comm_seconds,
            )
        tracer.event(
            "pregel.superstep",
            superstep=superstep,
            active_vertices=counts.active,
            compute_units=sum(units),
            max_node_units=max(units),
            remote_messages=counts.remote_messages,
            remote_bytes=sum(counts.recv_bytes),
            broadcast_bytes=counts.broadcast_bytes,
        )
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
    tracer,
    superstep: int,
    units: list[int],
    recv: list[int],
    bcast_bytes: int,
    comp_seconds: float,
    comm_seconds: float,
) -> None:
    """One ``pregel.node`` event (a :class:`NodeSlice`) per logical node
    for one accounted step.

    BSP phases run in sequence, so a node's barrier wait is the slack
    against the slowest node in each phase.
    """
    for node, node_units in enumerate(units):
        node_comp = node_units * cost.t_op
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
        )
        tracer.event("pregel.node", **piece.to_dict())


def _account_finalize(
    cost: CostModel,
    stats: RunStats,
    finalize_units: list[int],
    superstep: int,
    tracer=None,
    node_slices: bool = True,
) -> None:
    """Account the post-loop finalize pass as one extra super-step."""
    if not any(finalize_units):
        return
    stats.supersteps += 1
    stats.compute_units += sum(finalize_units)
    finalize_seconds = max(finalize_units) * cost.t_op
    stats.computation_seconds += finalize_seconds
    stats.barrier_seconds += cost.t_barrier
    for node, units in enumerate(finalize_units):
        stats.per_node_units[node] += units
    if node_slices and tracer is not None and tracer.enabled:
        _emit_node_slices(
            cost, tracer, superstep + 1, finalize_units,
            [0] * len(finalize_units), 0, finalize_seconds, 0.0,
        )


class Engine(ABC):
    """The BSP runtime behind :class:`Cluster`: one master loop over the
    workers an implementation starts.

    :meth:`run` owns the protocol — step every worker, sum their
    counters in worker order, account the barrier, run the workers'
    barrier, cut-off, termination, finalize — and the cluster owns the
    configuration (node count, partitioner, cost model).
    What differs between engines is only where the :class:`Worker`
    objects live:

    - :class:`SimulatorEngine` — one worker in the master's process
      owning every node: deterministic; and
    - :class:`repro.pregel.mp.MultiprocessEngine` — the same workers in
      forked processes reading the CSR through fork, producing the identical
      labels and the identical simulated-clock accounting while the wall
      clock actually drops with cores.
    """

    #: Short name used by ``--engine`` and telemetry.
    name: str = "?"

    @abstractmethod
    def _start_workers(
        self, cluster: "Cluster", ctx: ComputeContext, program: VertexProgram
    ) -> ContextManager:
        """A context manager yielding the run's workers — an object with
        ``step(superstep, base_seconds)`` (one :class:`StepCounts`
        tuple per worker) and ``finalize(base_seconds)`` (one
        :meth:`Worker.finalize` reply per worker), both in worker order,
        ``barrier(superstep)``, ``len()`` and ``remote`` (the workers
        are replicas in other processes, which ``emit_slices`` reports
        as measured).  Records that change worker and published deltas
        are the workers' business: the loop sees counts only.  ``ctx``
        is the master's context for the run."""

    def rearm(self, program: VertexProgram, method: str, args: tuple) -> None:
        """Replay ``program``'s re-arm call on the replicas of the workers
        kept for it (:meth:`Cluster.rearm`); the simulator has none."""

    def release(self, failed: bool = False) -> None:
        """Reap the workers kept for a next run (the simulator keeps none);
        ``failed`` stops them without waiting for them to finish."""

    def run(
        self,
        cluster: "Cluster",
        graph: DiGraph,
        program: VertexProgram,
        max_supersteps: int = 100_000,
        stats: RunStats | None = None,
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
            if stats is None:
                stats = RunStats(num_nodes=num_nodes)
                stats.per_node_units = [0] * num_nodes
            wall_start = time.perf_counter()
            simulated_start = stats.simulated_seconds

            ctx = ComputeContext(
                graph, num_nodes, cluster.routing(graph), cost, program
            )
            with self._start_workers(cluster, ctx, program) as workers:
                remote = workers.remote
                if remote:
                    span.set(workers=len(workers))

                superstep = 0
                while True:
                    superstep += 1
                    if superstep > max_supersteps:
                        raise SuperstepLimitExceeded(
                            f"no termination after {max_supersteps} supersteps"
                        )
                    shares = workers.step(superstep, stats.simulated_seconds)
                    # Fixed worker order: the sum cannot depend on the
                    # order replies arrived in.
                    counts = StepCounts(*shares[0])
                    for share in shares[1:]:
                        counts = counts.plus(share)
                    _account_superstep(
                        cost, superstep, counts, stats, tracer,
                        node_slices=not remote,
                    )
                    workers.barrier(superstep)
                    if remote:
                        workers.emit_slices(
                            tracer, superstep, counts.units, counts.recv_bytes
                        )
                    cost.check_time(stats.simulated_seconds)
                    if not counts.pending:
                        break

                finalized = workers.finalize(stats.simulated_seconds)
                units = [sum(node) for node in zip(*(u for u, _ in finalized))]
                _account_finalize(
                    cost, stats, units, superstep, tracer, node_slices=not remote
                )
                if remote:
                    if any(units):
                        workers.emit_slices(
                            tracer, superstep + 1, units, [0] * num_nodes
                        )
                    for _, collected in finalized:  # fixed order
                        program.mp_merge(collected)
            cost.check_time(stats.simulated_seconds)
            stats.wall_seconds += time.perf_counter() - wall_start
            if tracer.enabled:
                span.set(supersteps=superstep)
                span.add_simulated(stats.simulated_seconds - simulated_start)
        return stats


class SimulatorEngine(Engine):
    """The deterministic single-process simulator (the default engine).

    Runs every vertex in one process, charging all work through the
    cluster's :class:`CostModel`.  Wall-clock time is irrelevant here —
    the simulated clock is the result.
    """

    name = "sim"

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
        engine: "str | Engine" = "sim",
        workers: int | None = None,
    ):
        num_nodes = check_count("num_nodes", num_nodes)
        if partitioner is not None and partitioner.num_nodes != num_nodes:
            raise ValueError("partitioner and cluster disagree on num_nodes")
        self.engine = resolve_engine(engine, workers)
        self.num_nodes = num_nodes
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.partitioner = (
            partitioner if partitioner is not None else HashPartitioner(num_nodes)
        )
        self._routing: tuple[DiGraph, Routing] | None = None
        #: Inside ``with cluster:`` the engine keeps its workers between runs.
        self.keeps_workers = False

    def __enter__(self) -> "Cluster":
        """Keep the engine's workers from one run to the next until the
        ``with`` ends, as a Pregel job keeps its workers for all of its
        floods (a build's DRL_b batches share one worker pool)."""
        self.keeps_workers = True
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.keeps_workers = False
        self.engine.release(failed=exc_type is not None)

    def rearm(self, method, *args) -> None:
        """Re-arm a finished program for its next run: call the bound
        ``method(*args)`` on the master's program and on every replica
        of it the engine keeps, after the last run's merged state.

        Between two runs the master's program may change only through
        this call, so that every copy applies the same inputs in the
        same order and holds what the simulator's one program holds."""
        method(*args)
        self.engine.rearm(method.__self__, method.__name__, args)

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
    ) -> RunStats:
        """Execute ``program`` on ``graph`` until no messages remain.

        When ``stats`` is given, accounting accumulates into it (used to
        chain the batches of DRL_b into one run) and the time-limit check
        covers the accumulated total.

        Per-super-step detail goes to the telemetry stream only (see
        :mod:`repro.telemetry`): under an active session the whole run
        is wrapped in a ``pregel.run`` span, and every
        super-step emits one ``pregel.node`` event per node (the
        :class:`~repro.pregel.metrics.NodeSlice` fields) and one
        ``pregel.superstep`` row.  Under the multiprocessing engine the
        slices are per worker and carry *measured* wall-clock seconds.
        :class:`repro.telemetry.reader.Trace` reads the rows back
        (``events("pregel.superstep")``) and rebuilds the per-node lanes,
        the input of :func:`repro.observe.skew.analyze_skew`.
        """
        return self.engine.run(
            self,
            graph,
            program,
            max_supersteps=check_count("max_supersteps", max_supersteps),
            stats=stats,
        )
