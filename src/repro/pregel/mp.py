"""Real-parallelism BSP engine: supersteps across worker processes.

:class:`MultiprocessEngine` executes the same :class:`~repro.pregel.
vertex_program.VertexProgram` contract as the simulator, but the
per-superstep ``compute()`` work actually runs in parallel across
``workers`` OS processes, so build wall-clock time drops with cores.
The charged cost accounting is reproduced *exactly*: worker-local work
counters are summed at every barrier and fed through the same
accounting code the simulator uses, so ``RunStats`` (and therefore the
simulated clock) is identical to a simulator run of the same program.

Design
------
- The input graph's CSR arrays are copied once into
  ``multiprocessing.shared_memory`` segments and the graph's ``array``
  slots are swapped for ``memoryview`` casts of those segments, so
  forked workers read the topology from shared pages instead of private
  copies.  The cluster's per-graph :class:`~repro.graph.partition.
  Routing` (vertex → node map, same-node counts) arrives through fork.
- Each worker is a full program replica forked *after* ``setup()``.
  Logical node ``n`` is pinned to worker ``n % workers``, so every
  vertex (and its per-vertex state) has exactly one writer and the
  per-node cost counters land on the same nodes as in the simulator.
- Messages between vertices on the same worker never leave it; cross
  -worker messages are routed through the master at the barrier.  Each
  message is tagged with its sending vertex and every inbox is stably
  sorted by sender before delivery — exactly the order the simulator's
  ascending vertex sweep produces — which makes results independent of
  worker count and of the order worker replies arrive in.
- Shared published state (DRL's inverted lists) moves as explicit
  deltas: at each barrier the master gathers every worker's
  ``mp_publish_delta()`` and re-broadcasts the full set, which all
  replicas apply in fixed worker order before ``on_barrier()``.
- Per-worker *measured* wall-clock timings are recorded as
  :class:`~repro.pregel.metrics.NodeSlice` rows (``node`` = worker id)
  and ``pregel.node`` telemetry events; the simulated per-node
  breakdown is available from the simulator engine.

Fault plans and checkpoint intervals are not supported here — crash
injection into real processes is a different feature; the simulator
remains the tool for fault experiments.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
from multiprocessing import shared_memory
from random import Random

from repro.errors import ReproError
from repro.graph.digraph import DiGraph
from repro.graph.partition import Routing
from repro.pregel.cost_model import CostModel
from repro.pregel.engine import (
    ComputeContext,
    Engine,
    FinalizeContext,
    SuperstepLimitExceeded,
    _account_finalize,
    _account_superstep,
)
from repro.pregel.metrics import NodeSlice, NodeTimeline, RunStats
from repro.pregel.vertex_program import VertexProgram
from repro.telemetry import current_tracer

_CSR_SLOTS = ("_fwd_offsets", "_fwd_targets", "_rev_offsets", "_rev_targets")


class _SharedGraph:
    """The graph CSR in shared-memory segments.

    ``install()`` swaps the graph's ``array('q')`` slots for
    ``memoryview`` casts of the segments; because every CSR accessor
    only indexes/slices, the swap is transparent to programs.  The
    master restores the original arrays and unlinks the segments in
    ``close()``; forked workers exit with ``os._exit`` and never touch
    the handles.
    """

    def __init__(self, graph: DiGraph):
        self._graph = graph
        self._segments: list[shared_memory.SharedMemory] = []
        self._originals = {slot: getattr(graph, slot) for slot in _CSR_SLOTS}
        self._views = {
            slot: self._to_shared(self._originals[slot]) for slot in _CSR_SLOTS
        }
        self._installed = False

    def _to_shared(self, arr):
        data = arr.tobytes()
        if not data:
            return arr  # zero-length arrays have nothing to share
        shm = shared_memory.SharedMemory(create=True, size=len(data))
        self._segments.append(shm)
        shm.buf[: len(data)] = data
        return shm.buf[: len(data)].cast("q")

    def install(self) -> None:
        for slot, view in self._views.items():
            setattr(self._graph, slot, view)
        self._installed = True

    def close(self) -> None:
        if self._installed:
            for slot, arr in self._originals.items():
                setattr(self._graph, slot, arr)
            self._installed = False
        for view in self._views.values():
            if isinstance(view, memoryview):
                view.release()
        self._views = {}
        for shm in self._segments:
            shm.close()
            shm.unlink()
        self._segments = []


class _WorkerContext(ComputeContext):
    """A worker-side compute context: messages carry their sender, so
    the receiving worker can stably sort each inbox into ascending
    sending-vertex order — the exact sequence the simulator's sweep
    appends — before ``compute()`` sees the bare payloads."""

    __slots__ = ()
    _tag_sender = True


def _worker_main(
    conn,
    worker: int,
    num_workers: int,
    graph: DiGraph,
    program: VertexProgram,
    num_nodes: int,
    routing: Routing,
    cost: CostModel,
) -> None:
    """One worker process: compute owned vertices, superstep by superstep."""
    status = 0
    try:
        node_of = routing.node_of
        ctx = _WorkerContext(graph, num_nodes, routing, cost, program)
        owned = [
            v for v in graph.vertices() if node_of[v] % num_workers == worker
        ]
        pending_local: dict[int, list] = {}
        while True:
            msg = conn.recv()
            kind = msg[0]
            if kind == "step":
                _, superstep, base_seconds, agg_visible, remote_in = msg
                started = time.perf_counter()
                if ctx._aggregators:
                    # What the master combined last barrier becomes
                    # visible as the super-step begins.
                    ctx._agg_current = agg_visible
                inbox = pending_local
                for dst, entries in remote_in.items():
                    bucket = inbox.get(dst)
                    if bucket is None:
                        inbox[dst] = entries
                    else:
                        bucket.extend(entries)
                ctx._run_superstep(
                    program, superstep, base_seconds, inbox,
                    (
                        v for v in program.initial_vertices(graph)
                        if node_of[v] % num_workers == worker
                    ),
                )
                active = len(inbox) if superstep > 1 else len(owned)
                pending_local = {}
                remote_out: dict[int, dict[int, list]] = {}
                for dst, tagged in ctx._next_inbox.items():
                    dst_worker = node_of[dst] % num_workers
                    if dst_worker == worker:
                        pending_local[dst] = tagged
                    else:
                        remote_out.setdefault(dst_worker, {})[dst] = tagged
                compute_wall = time.perf_counter() - started
                conn.send((
                    "done",
                    active,
                    list(ctx._units),
                    list(ctx._recv_bytes),
                    ctx._broadcast_bytes,
                    ctx._local_messages,
                    ctx._remote_messages,
                    sum(len(b) for b in pending_local.values()),
                    remote_out,
                    program.mp_publish_delta(),
                    dict(ctx._agg_current) if ctx._aggregators else None,
                    compute_wall,
                ))
            elif kind == "barrier":
                _, superstep, deltas = msg
                for delta in deltas:
                    if delta is not None:
                        program.mp_apply_published(delta)
                program.on_barrier(superstep)
            elif kind == "finalize":
                _, base_seconds = msg
                started = time.perf_counter()
                program.finalize_vertices(
                    FinalizeContext(ctx, base_seconds), owned
                )
                finalize_wall = time.perf_counter() - started
                conn.send((
                    "finalized",
                    list(ctx._units),
                    program.mp_collect(owned),
                    finalize_wall,
                ))
            else:  # "exit"
                break
    except BaseException as exc:  # noqa: BLE001 — forwarded to the master
        status = 1
        tb = traceback.format_exc()
        try:
            conn.send(("error", exc, tb))
        except Exception:
            try:
                conn.send(
                    ("error", ReproError(f"{type(exc).__name__}: {exc}"), tb)
                )
            except Exception:
                pass
    finally:
        try:
            conn.close()
        except Exception:
            pass
        # Skip interpreter teardown: the forked heap holds exported
        # memoryviews of the master's shared-memory segments, whose
        # destructors would raise during shutdown.  The master owns and
        # unlinks the segments.
        os._exit(status)


class _Workers:
    """The forked workers' pipes; a dead peer surfaces as a typed error."""

    def __init__(self):
        self.conns: list = []
        self.procs: list = []
        self.phase = "start-up"

    def send(self, worker: int, message: tuple) -> None:
        try:
            self.conns[worker].send(message)
        except OSError:  # BrokenPipeError: nobody is reading
            raise self._dead(worker) from None

    def recv(self, worker: int) -> tuple:
        try:
            return self.conns[worker].recv()
        except (EOFError, OSError):
            raise self._dead(worker) from None

    def _dead(self, worker: int) -> ReproError:
        proc = self.procs[worker]
        proc.join(timeout=5)
        code = proc.exitcode
        if code is None:
            fate = "stopped answering"
        elif code < 0:
            fate = f"was killed by signal {-code}"
        else:
            fate = f"exited with code {code}"
        return ReproError(f"mp worker {worker} {fate} during {self.phase}")

    def close(self) -> None:
        """Reap every worker still running and close the pipes."""
        for proc in self.procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5)
        for conn in self.conns:
            try:
                conn.close()
            except Exception:
                pass


class MultiprocessEngine(Engine):
    """Run supersteps for real across ``workers`` forked processes.

    Parameters
    ----------
    workers:
        Worker-process count; defaults to the machine's core count,
        capped at the cluster's ``num_nodes`` (extra workers would own
        no logical node).
    arrival_seed:
        Optional seed shuffling the order in which the master *awaits*
        worker replies at each barrier.  Results must not depend on it
        — merges happen in fixed worker order regardless — and the
        equivalence test suite exercises exactly that invariance.
    """

    name = "mp"
    supports_faults = False

    def __init__(
        self, workers: int | None = None, arrival_seed: int | None = None
    ):
        if workers is not None and workers < 1:
            raise ValueError("workers must be at least 1")
        self.workers = workers
        self.arrival_seed = arrival_seed

    def run(
        self,
        cluster,
        graph: DiGraph,
        program: VertexProgram,
        max_supersteps: int = 100_000,
        stats: RunStats | None = None,
        trace: bool = False,
        node_timeline: bool = False,
    ) -> RunStats:
        if cluster.faults is not None or cluster.checkpoint_interval is not None:
            raise ReproError(
                "the multiprocess engine does not support fault injection "
                "or checkpointing; use engine='sim'"
            )
        if not getattr(program, "mp_supported", False):
            raise ReproError(
                f"{type(program).__name__} does not implement the "
                "multiprocess hooks (mp_supported / mp_collect / mp_merge); "
                "run it with engine='sim'"
            )
        try:
            fork = multiprocessing.get_context("fork")
        except ValueError as exc:  # pragma: no cover — POSIX only
            raise ReproError(
                "the multiprocess engine requires the 'fork' start method"
            ) from exc
        num_nodes = cluster.num_nodes
        workers = self.workers if self.workers is not None else os.cpu_count() or 1
        workers = max(1, min(workers, num_nodes))
        cost = cluster.cost_model
        rng = Random(self.arrival_seed) if self.arrival_seed is not None else None

        tracer = current_tracer()
        with tracer.span(
            "pregel.run",
            program=type(program).__name__,
            num_nodes=num_nodes,
            vertices=graph.num_vertices,
            edges=graph.num_edges,
            engine=self.name,
            workers=workers,
        ) as span:
            if stats is None:
                stats = RunStats(num_nodes=num_nodes)
                stats.per_node_units = [0] * num_nodes
            if node_timeline and stats.node_timeline is None:
                stats.node_timeline = NodeTimeline(num_nodes=workers)
            wall_start = time.perf_counter()
            simulated_start = stats.simulated_seconds

            routing = cluster.routing(graph)
            ctx = ComputeContext(graph, num_nodes, routing, cost, program)
            program.setup(ctx)

            owned_nodes = [
                [n for n in range(num_nodes) if n % workers == w]
                for w in range(workers)
            ]
            shared = _SharedGraph(graph)
            pool = _Workers()
            try:
                shared.install()
                for w in range(workers):
                    parent_conn, child_conn = fork.Pipe()
                    proc = fork.Process(
                        target=_worker_main,
                        args=(
                            child_conn, w, workers, graph, program,
                            num_nodes, routing, cost,
                        ),
                        daemon=True,
                    )
                    proc.start()
                    child_conn.close()
                    pool.conns.append(parent_conn)
                    pool.procs.append(proc)

                superstep = self._superstep_loop(
                    cluster, graph, program, ctx, stats, pool, owned_nodes,
                    max_supersteps, trace, tracer, rng,
                )
                self._finalize(
                    cluster, program, stats, pool, owned_nodes, superstep,
                    tracer, rng,
                )
                for w in range(workers):
                    pool.send(w, ("exit",))
                for proc in pool.procs:
                    proc.join(timeout=30)
            finally:
                pool.close()
                shared.close()

            cost.check_time(stats.simulated_seconds)
            stats.wall_seconds += time.perf_counter() - wall_start
            if tracer.enabled:
                span.set(supersteps=superstep)
                span.add_simulated(stats.simulated_seconds - simulated_start)
        return stats

    # ------------------------------------------------------------------
    def _gather(self, pool, rng, expected: str) -> dict[int, tuple]:
        """Await one reply per worker, optionally in shuffled order."""
        order = list(range(len(pool.conns)))
        if rng is not None:
            rng.shuffle(order)
        replies: dict[int, tuple] = {}
        for w in order:
            msg = pool.recv(w)
            if msg[0] == "error":
                _, exc, tb = msg
                if isinstance(exc, BaseException):
                    if tb:
                        exc.add_note(f"worker {w} traceback:\n{tb}")
                    raise exc
                raise ReproError(f"worker {w} failed: {exc}\n{tb}")
            if msg[0] != expected:  # pragma: no cover — protocol bug guard
                raise ReproError(
                    f"worker {w}: expected {expected!r} reply, got {msg[0]!r}"
                )
            replies[w] = msg
        return replies

    def _superstep_loop(
        self, cluster, graph, program, ctx, stats, pool, owned_nodes,
        max_supersteps, trace, tracer, rng,
    ) -> int:
        cost = cluster.cost_model
        num_nodes = cluster.num_nodes
        workers = len(pool.conns)
        agg_visible: dict = {}
        aggregators = ctx._aggregators
        routed: list[dict[int, list]] = [{} for _ in range(workers)]
        superstep = 0
        while True:
            superstep += 1
            if superstep > max_supersteps:
                raise SuperstepLimitExceeded(
                    f"no termination after {max_supersteps} supersteps"
                )
            ctx._begin_superstep(superstep)
            pool.phase = f"superstep {superstep}"
            base = stats.simulated_seconds
            for w in range(workers):
                pool.send(w, ("step", superstep, base, agg_visible, routed[w]))
            replies = self._gather(pool, rng, "done")
            barrier_started = time.perf_counter()

            merged_units = [0] * num_nodes
            merged_recv = [0] * num_nodes
            broadcast = local_msgs = remote_msgs = 0
            active = pending = 0
            walls = [0.0] * workers
            routed = [{} for _ in range(workers)]
            deltas = []
            for w in range(workers):
                (
                    _, w_active, units, recv, w_bcast, w_local, w_remote,
                    w_pending, remote_out, delta, agg_partial, compute_wall,
                ) = replies[w]
                active += w_active
                broadcast += w_bcast
                local_msgs += w_local
                remote_msgs += w_remote
                pending += w_pending
                walls[w] = compute_wall
                deltas.append(delta)
                for node in range(num_nodes):
                    merged_units[node] += units[node]
                    merged_recv[node] += recv[node]
                for dst_worker, buckets in remote_out.items():
                    target = routed[dst_worker]
                    for dst, entries in buckets.items():
                        pending += len(entries)
                        bucket = target.get(dst)
                        if bucket is None:
                            target[dst] = entries
                        else:
                            bucket.extend(entries)
                if aggregators:
                    for name, agg in aggregators.items():
                        agg_visible_value = agg_partial[name]
                        ctx._agg_current[name] = agg.combine(
                            ctx._agg_current[name], agg_visible_value
                        )
            ctx._units = merged_units
            ctx._recv_bytes = merged_recv
            ctx._broadcast_bytes = broadcast
            ctx._local_messages = local_msgs
            ctx._remote_messages = remote_msgs
            _account_superstep(
                cost, ctx, stats, active, trace, tracer, node_slices=False
            )
            if aggregators:
                agg_visible = dict(ctx._agg_current)
            for delta in deltas:
                if delta is not None:
                    program.mp_apply_published(delta)
            program.on_barrier(superstep)
            for w in range(workers):
                pool.send(w, ("barrier", superstep, deltas))
            barrier_wall = time.perf_counter() - barrier_started
            self._emit_worker_slices(
                stats, tracer, superstep, walls, barrier_wall,
                merged_units, merged_recv, owned_nodes,
            )
            cost.check_time(stats.simulated_seconds)
            if pending == 0:
                return superstep

    def _finalize(
        self, cluster, program, stats, pool, owned_nodes, superstep,
        tracer, rng,
    ) -> None:
        cost = cluster.cost_model
        num_nodes = cluster.num_nodes
        workers = len(pool.conns)
        pool.phase = "the finalize pass"
        base = stats.simulated_seconds
        for w in range(workers):
            pool.send(w, ("finalize", base))
        replies = self._gather(pool, rng, "finalized")
        finalize_units = [0] * num_nodes
        walls = [0.0] * workers
        for w in range(workers):
            _, units, _, finalize_wall = replies[w]
            walls[w] = finalize_wall
            for node in range(num_nodes):
                finalize_units[node] += units[node]
        _account_finalize(
            cost, stats, finalize_units, superstep,
            tracer=tracer, node_slices=False,
        )
        if any(finalize_units):
            self._emit_worker_slices(
                stats, tracer, superstep + 1, walls, 0.0,
                finalize_units, [0] * num_nodes, owned_nodes,
            )
        for w in range(workers):  # fixed order: deterministic merge
            program.mp_merge(replies[w][2])

    def _emit_worker_slices(
        self, stats, tracer, superstep, walls, barrier_wall,
        merged_units, merged_recv, owned_nodes,
    ) -> None:
        """Record measured per-worker timings as NodeSlice rows.

        Unlike the simulator's per-logical-node slices (simulated
        seconds), these carry wall-clock measurements with ``node`` set
        to the worker id: ``compute_seconds`` is the worker's measured
        superstep time, ``barrier_wait_seconds`` its slack against the
        slowest worker, and ``barrier_seconds`` the master's measured
        routing/merge time.
        """
        timeline = stats.node_timeline
        telemetry_on = tracer is not None and tracer.enabled
        if timeline is None and not telemetry_on:
            return
        slowest = max(walls)
        for w, wall in enumerate(walls):
            piece = NodeSlice(
                superstep=superstep,
                node=w,
                units=sum(merged_units[n] for n in owned_nodes[w]),
                compute_seconds=wall,
                comm_seconds=0.0,
                barrier_wait_seconds=max(0.0, slowest - wall),
                barrier_seconds=barrier_wall,
                recv_bytes=sum(merged_recv[n] for n in owned_nodes[w]),
            )
            if timeline is not None:
                timeline.slices.append(piece)
            if telemetry_on:
                tracer.event("pregel.node", **piece.to_dict())
