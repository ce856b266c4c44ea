"""The process transport: BSP workers in forked processes.

:class:`MultiprocessEngine` runs the one master loop
(:meth:`repro.pregel.engine.Engine.run`) over ``workers`` OS processes,
each holding the same :class:`~repro.pregel.engine.Worker` the simulator
runs in-process, so ``compute()`` really runs in parallel while the
workers' counters, summed in worker order and accounted by the same
code, leave ``RunStats`` identical to a simulator run.  This module holds
only what is about processes (``docs/simulator.md``, "One runtime, two
transports", has the whole picture):

- The workers are forked once per program, at its first run, and
  read the master's own ``array('q')`` CSR and the cluster's per-graph
  :class:`~repro.graph.partition.Routing` through fork, copy-on-write:
  no segment is made, so none can leak.  Inside ``with cluster:`` —
  every :class:`~repro.core.drl.FloodBuild` — later runs of the same
  program reuse the workers, as a Pregel job keeps its workers for all
  of its floods; the workers are reaped when the ``with`` ends, when a
  run raises, and after a run outside one.
- Each worker holds a replica of the program; logical node ``n`` is
  pinned to worker ``n % workers``, so every vertex has exactly one
  writer.
- A message leaves its worker as part of a *record*: a neighbour
  fan-out is one ``(sender, payload, how)`` record, however many edges
  it covers (``how`` names the direction), and a direct ``send`` — the
  combiner's per-destination sends too — one record whose ``how``
  names the destination.  A fan-out over no neighbour leaves none.
  The sender settles the step's counters from the graph (per-node
  receive counts from each target's node), so ``RunStats`` needs
  nothing from the receivers.
- The master is a coordinator, not a replica: it holds the program's
  state only as collection needs it, merging every worker's
  ``mp_collect`` value once per run (``mp_merge``), and it relays what
  the workers exchange without unpickling it.  A step reply is one
  message: a small pickled header (the
  :class:`~repro.pregel.engine.StepCounts` fields, the call's wall time
  and the sizes of the parts that follow), then the worker's published
  delta and its records, each pickled once.  The master unpickles the
  header only.  It forwards each delta and each record blob to every
  *other* worker, with the next call — the next step or the finalize
  pass, which opens with that barrier.
- Every replica applies the same inputs in worker order, none of them
  its own (its own are in place already): at each barrier, the other
  workers' deltas; between two runs, the other workers' ``mp_collect``
  values of the last one (``mp_merge``), then the program's re-arm call
  (:meth:`~repro.pregel.engine.Cluster.rearm`).
- Every call goes to all workers before any reply is awaited, each
  over the one pipe between the master and that worker: workers write
  only replies, and only after reading a whole call, so no two pipes
  can wait on each other.  A reply whose first byte does not come
  within :data:`_REPLY_DEADLINE` ends the run as a dead worker's would.
- A worker's inbox is a merge of record streams: every worker sweeps
  its own vertices in ascending order, so each stream is sorted by
  sender, and the stable merge of all of them (its own included) on
  the sender is the order the simulator's single ascending sweep
  produces, whatever the worker count or the order replies arrive
  in.  The receiver expands each record over the neighbours it owns,
  from an owned-neighbour CSR built once per worker pool.
- Per-worker *measured* wall-clock timings become ``pregel.node``
  events (:class:`~repro.pregel.metrics.NodeSlice` fields, ``node`` =
  worker id).
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import pickle
import select
import time
import traceback
from array import array
from collections import Counter
from contextlib import contextmanager
from functools import partial
from itertools import accumulate, chain, compress
from operator import itemgetter
from random import Random
from typing import NamedTuple

from repro.errors import ReproError, check_count
from repro.graph.digraph import DiGraph
from repro.graph.partition import Routing
from repro.pregel.engine import ComputeContext, Engine, Worker
from repro.pregel.metrics import NodeSlice
from repro.pregel.vertex_program import VertexProgram

#: Seconds the master waits for the replies to one call before it takes
#: a silent worker as hung: far above any super-step of a build this
#: engine can finish.  It runs to the first byte of each reply; a worker
#: that stops part-way through writing one, or through reading a call
#: larger than the pipe's buffer, still blocks the master.
_REPLY_DEADLINE = 600.0

#: Seconds a terminated worker gets to exit before it is killed (a
#: stopped process never acts on ``SIGTERM``).
_TERMINATE_GRACE = 1.0

#: A record's ``how``: a fan-out along the out- or the in-edges of its
#: sender (one pickled byte each); a direct send's is ``~destination``.
_OUT, _IN = 0, 1


def _target_nodes(graph: DiGraph, node_of, num_nodes: int) -> tuple:
    """Per direction (out, in), the node of every edge's target in CSR
    order — one byte each when the nodes fit one — and the same cut per
    vertex: what a sender counts its fan-outs' receivers by.  Built once
    per worker pool, before the fork, at C speed."""
    lookup = node_of.tolist().__getitem__
    pack = bytes if num_nodes <= 256 else partial(array, "q")
    directions = []
    for offsets, targets in (
        (graph._fwd_offsets, graph._fwd_targets),
        (graph._rev_offsets, graph._rev_targets),
    ):
        nodes = pack(map(lookup, targets))
        cuts = map(slice, offsets, offsets[1:])
        directions.append((nodes, list(map(nodes.__getitem__, cuts))))
    return tuple(directions)


class _Plane(NamedTuple):
    """One edge direction, as a worker sends and receives along it."""

    offsets: array  # the graph's CSR
    targets: array
    nodes: list  # per vertex, its targets' nodes (:func:`_target_nodes`)
    same: array  # per vertex, its same-node targets (:class:`Routing`)
    owned: list[list[int]]  # per vertex, the targets this worker owns


def _planes(
    graph: DiGraph, routing: Routing, nodes: tuple, num_nodes: int,
    index: int, workers: int,
) -> tuple[tuple[_Plane, _Plane], bytes]:
    """Worker ``index``'s out- and in-edge planes — indexed by a
    fan-out's ``how`` — and which vertices it owns, one byte each.  The
    owned targets are the CSR's filtered by an ownership mask
    (``compress``) and cut per vertex at a running count of the mask."""
    # A translation table when the nodes fit a byte.
    owns_node = bytes(
        node % workers == index for node in range(max(num_nodes, 256))
    )
    planes = []
    for offsets, targets, (edge_nodes, vertex_nodes), same in (
        (graph._fwd_offsets, graph._fwd_targets, nodes[0], routing.same_out),
        (graph._rev_offsets, graph._rev_targets, nodes[1], routing.same_in),
    ):
        if isinstance(edge_nodes, bytes):
            mask = edge_nodes.translate(owns_node)
        else:
            mask = bytes(map(owns_node.__getitem__, edge_nodes))
        before = [0, *accumulate(mask)]
        cuts = list(map(before.__getitem__, offsets))
        owned = list(compress(targets, mask))
        planes.append(_Plane(
            offsets, targets, vertex_nodes, same,
            [owned[start:end] for start, end in zip(cuts, cuts[1:])],
        ))
    return tuple(planes), bytes(map(owns_node.__getitem__, routing.node_of))


class _WorkerContext(ComputeContext):
    """A worker-side compute context when there are several workers.

    Its outbox is a list of records, one per fan-out or direct send, in
    the order ``compute()`` made them; the step's counters are settled
    here, at the sender, from the graph.  The next step's inbox is the
    merge of every worker's records (:meth:`_deliver`).  A lone worker
    sweeps every vertex, as the simulator does, and keeps buckets."""

    __slots__ = ("_planes", "_owned", "_mine", "_fanned", "_direct")

    def __init__(self, graph, num_nodes, routing, cost, program, tables):
        self._planes, self._mine = tables
        self._owned = tuple(plane.owned for plane in self._planes)
        super().__init__(graph, num_nodes, routing, cost, program)

    def _begin_superstep(self, superstep: int) -> None:
        super()._begin_superstep(superstep)
        self._outbox = []
        self._fanned: list = []  # per fan-out record, its targets' nodes
        self._direct = [0] * self.num_nodes  # direct sends, per node

    def _received(self) -> list[int]:
        received, fanned = self._direct, self._fanned
        if fanned and isinstance(fanned[0], bytes):
            joined = b"".join(fanned)
            counts = enumerate(map(joined.count, range(self.num_nodes)))
        else:
            counts = Counter(chain.from_iterable(fanned)).items()
        for node, count in counts:
            received[node] += count
        return received

    def send(self, dst: int, payload) -> None:
        if self._combine and self._combined(dst, payload):
            return
        self._outbox.append((self._current_vertex, payload, ~dst))
        node = self._node_of[dst]
        self._direct[node] += 1
        if node == self._current_node:
            self._same_node[node] += 1

    def send_to_out_neighbors(self, payload) -> None:
        self._fan_record(_OUT, payload)

    def send_to_in_neighbors(self, payload) -> None:
        self._fan_record(_IN, payload)

    def _fan_record(self, how: int, payload) -> None:
        """One record for a whole fan-out, charged as
        :meth:`ComputeContext._fan_out` charges it."""
        plane = self._planes[how]
        vertex = self._current_vertex
        nodes = plane.nodes[vertex]
        if not nodes:
            return  # no record: nothing is in flight
        self.charge(len(nodes))
        if self._combine:  # dedup is per destination
            offsets = plane.offsets
            for dst in plane.targets[offsets[vertex] : offsets[vertex + 1]]:
                self.send(dst, payload)
            return
        self._outbox.append((vertex, payload, how))
        self._fanned.append(nodes)
        self._same_node[self._current_node] += plane.same[vertex]

    def _deliver(self, pending: list, incoming) -> dict[int, list]:
        """The inbox of this worker's vertices: its own records of the
        last super-step and the other workers' (``incoming``), merged on
        the sender, each expanded over the destinations this worker
        owns — a fan-out's in CSR order.

        Each stream is in ascending sender order already, so the stable
        ``sorted`` of their concatenation is Timsort's merge of those
        runs (C speed; ``heapq.merge`` is a Python-level loop per
        record)."""
        inbox: dict[int, list] = {}
        get = inbox.get
        owned, mine = self._owned, self._mine
        if incoming:
            pending = sorted(chain(pending, *incoming), key=itemgetter(0))
        for sender, payload, how in pending:
            if how >= 0:
                destinations = owned[how][sender]
            elif mine[~how]:
                destinations = (~how,)
            else:
                continue
            for dst in destinations:
                bucket = get(dst)
                if bucket is None:
                    inbox[dst] = [payload]
                else:
                    bucket.append(payload)
        return inbox


def _dump(value) -> bytes:
    """A value pickled for the pipe; ``None`` (nothing to send) is empty."""
    return b"" if value is None else pickle.dumps(value, pickle.HIGHEST_PROTOCOL)


def _worker_main(
    conn, index: int, num_workers: int, cluster, graph: DiGraph,
    program: VertexProgram, nodes: tuple | None,
) -> None:
    """One worker process: serve the master's calls on a :class:`Worker`
    over this process's replica of ``program``, timing each, until told
    to exit.  ``nodes`` is :func:`_target_nodes` when there are several
    workers.

    A call is a pickled ``(op, args, frames)`` header followed by
    ``frames`` pickled values from the other workers, in worker order:
    for ``step`` and ``finalize``, the deltas they published at the last
    barrier (``args[-1]`` of them), then the records they sent last
    super-step; for ``rearm``, their last finalize replies.  A step
    after the first and the finalize pass open with that barrier, so a
    worker wakes once per super-step.  A reply is one message: a pickled
    ``("ok", result, wall, sizes)`` header, then that many bytes per
    part — for ``step`` the delta, then the records; for ``finalize``
    the ``mp_collect()`` value.
    ``rearm`` is not answered; a failure in it surfaces at the next
    gather."""
    # The process lives for one build and holds acyclic program state:
    # reference counting frees its garbage, and the cyclic collector
    # would only re-walk every record and delta it unpickles.
    gc.disable()
    status = 0
    try:
        routing = cluster.routing(graph)
        owned = None

        context = ComputeContext
        if num_workers > 1:
            tables = _planes(
                graph, routing, nodes, cluster.num_nodes, index, num_workers
            )
            context = partial(_WorkerContext, tables=tables)

        def fresh_worker() -> Worker:  # one per run, as in the simulator
            ctx = context(
                graph, cluster.num_nodes, routing, cluster.cost_model, program
            )
            return Worker(
                ctx, program, index, num_workers, replica=True, owned=owned
            )

        worker = fresh_worker()
        owned = worker.owned
        while True:
            op, args, frames = conn.recv()
            if op == "exit":
                break
            received = [pickle.loads(conn.recv_bytes()) for _ in range(frames)]
            if op == "rearm":
                for collected in received:
                    program.mp_merge(collected)
                method, method_args = args
                if method is not None:
                    getattr(program, method)(*method_args)
                worker = fresh_worker()
                continue
            *args, deltas = args
            if op == "finalize" or args[0] > 1:
                worker.barrier(worker.ctx.superstep, received[:deltas])
            started = time.perf_counter()
            if op == "step":
                result, records, delta = worker.step(*args, received[deltas:])
                parts = [_dump(delta), _dump(records or None)]
            else:  # finalize
                result, collected = worker.finalize(*args)
                parts = [_dump(collected)]
            wall = time.perf_counter() - started
            sizes = [len(part) for part in parts]
            conn.send_bytes(b"".join([_dump(("ok", result, wall, sizes)), *parts]))
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
        # Skip interpreter teardown: the forked heap is the master's, and
        # so are its exit hooks and buffered files.
        os._exit(status)


class _ProcessWorkers:
    """The forked workers behind their pipes, kept for every run of one
    program on one cluster and graph: every call is sent to all of them
    before any answer is awaited, and a dead peer surfaces as a typed
    error."""

    remote = True

    def __init__(
        self, cluster, graph: DiGraph, program: VertexProgram, workers: int,
        rng: Random | None,
    ):
        self.cluster, self.graph = cluster, graph
        self.program = program  # the master's copy, merged once per run
        self.rng = rng
        self.conns: list = []
        self.procs: list = []
        self._pollers: list = []  # per worker, its pipe's readiness
        self.phase = "start-up"
        self._walls: list[float] = []  # of the last gathered call, per worker
        self._gathered = self._barrier_wall = 0.0
        #: The last step's frames, per sender: its delta and its records.
        self._deltas: list[memoryview] = []
        self._records: list[memoryview] = []
        #: The last run's finalize frames, not yet merged into the replicas.
        self._collects: list[memoryview] | None = None
        nodes = (
            _target_nodes(graph, cluster.routing(graph).node_of, cluster.num_nodes)
            if workers > 1 else None
        )
        try:
            fork = multiprocessing.get_context("fork")
            for w in range(workers):
                parent_conn, child_conn = fork.Pipe()
                proc = fork.Process(
                    target=_worker_main,
                    args=(child_conn, w, workers, cluster, graph, program, nodes),
                    daemon=True,
                )
                proc.start()
                child_conn.close()
                self.conns.append(parent_conn)
                self.procs.append(proc)
                poller = select.poll()
                poller.register(parent_conn, select.POLLIN)
                self._pollers.append(poller)
        except BaseException:
            self.close(failed=True)
            raise

    def __len__(self) -> int:
        return len(self.conns)

    def serves(self, cluster, graph: DiGraph, program: VertexProgram) -> bool:
        return (
            self.cluster is cluster and self.graph is graph
            and self.program is program
        )

    def _send(self, worker: int, op: str, args: tuple, frames=()) -> None:
        """Send ``worker`` one call: its header, then ``frames`` as they are."""
        conn = self.conns[worker]
        try:
            conn.send_bytes(_dump((op, args, len(frames))))
            for frame in frames:
                conn.send_bytes(frame)
        except OSError:  # BrokenPipeError: nobody is reading
            raise self._dead(worker) from None

    @staticmethod
    def _others(frames: list, worker: int) -> list:
        """Every *other* worker's non-empty frame, in worker order:
        nobody gets its own back."""
        return [
            frame for sender, frame in enumerate(frames)
            if frame and sender != worker
        ]

    def _receive(self, worker: int, deadline: float) -> bytes:
        """The next message from ``worker``, if its first byte comes by
        ``deadline``."""
        wait_ms = max(0.0, deadline - time.monotonic()) * 1000
        if not self._pollers[worker].poll(wait_ms):
            raise self._dead(worker, hung=True)
        return self.conns[worker].recv_bytes()

    def _gather(self) -> tuple[list, list[list[memoryview]]]:
        """Await one reply per worker, optionally in shuffled order, all
        within :data:`_REPLY_DEADLINE`: the results and, per worker, its
        reply's parts — views of the frame as it came off the pipe."""
        workers = len(self.conns)
        order = list(range(workers))
        if self.rng is not None:
            self.rng.shuffle(order)
        results: list = [None] * workers
        parts: list = [None] * workers
        self._walls = [0.0] * workers
        deadline = time.monotonic() + _REPLY_DEADLINE
        for worker in order:
            try:
                reply = self._receive(worker, deadline)
            except (EOFError, OSError):
                raise self._dead(worker) from None
            # The header: ``loads`` ignores the parts that follow it.
            kind, *rest = pickle.loads(reply)
            if kind == "error":
                exc, tb = rest
                if tb:
                    exc.add_note(f"worker {worker} traceback:\n{tb}")
                raise exc
            results[worker], self._walls[worker], sizes = rest
            frame = memoryview(reply)[len(reply) - sum(sizes) :]
            parts[worker] = [
                frame[end - size : end]
                for size, end in zip(sizes, accumulate(sizes))
            ]
        self._gathered = time.perf_counter()
        return results, parts

    def _dead(self, worker: int, hung: bool = False) -> ReproError:
        """The error for a worker that closed its pipe — or, ``hung``,
        that let the reply deadline pass."""
        proc = self.procs[worker]
        if not hung:
            proc.join(timeout=5)
        code = proc.exitcode
        if code is None:
            fate = "stopped answering"
        elif code < 0:
            fate = f"was killed by signal {-code}"
        else:
            fate = f"exited with code {code}"
        return ReproError(f"mp worker {worker} {fate} during {self.phase}")

    def rearm(self, method: str | None, args: tuple) -> None:
        """Bring every replica to the master's program between two runs:
        the other workers' finalize replies of the last run, merged in
        worker order (a replica's own rows are in place already), then
        the master's re-arm call (none before a plain re-run).  Each
        worker starts the next run on a fresh :class:`Worker`."""
        self.phase = "the re-arm between two runs"
        collects, self._collects = self._collects or [], None
        for worker in range(len(self.conns)):
            self._send(worker, "rearm", (method, args), self._others(collects, worker))

    def _call(self, op: str, args: tuple) -> tuple[list, list]:
        """Send every worker ``op`` with the other workers' deltas of the
        last barrier and their records of the last step; gather."""
        deltas, self._deltas = self._deltas, []
        records, self._records = self._records, []
        for worker in range(len(self.conns)):
            frames = self._others(deltas, worker)
            self._send(
                worker, op, (*args, len(frames)),
                frames + self._others(records, worker),
            )
        return self._gather()

    def step(self, superstep, base_seconds) -> list:
        if superstep == 1 and self._collects is not None:
            self.rearm(None, ())
        self.phase = f"superstep {superstep}"
        counts, parts = self._call("step", (superstep, base_seconds))
        self._deltas = [delta for delta, _ in parts]
        self._records = [records for _, records in parts]
        return counts

    def barrier(self, superstep) -> None:
        """The workers apply it as the next call opens (:meth:`_call`)."""
        self._barrier_wall = time.perf_counter() - self._gathered

    def finalize(self, base_seconds) -> list:
        self.phase = "the finalize pass"
        self._barrier_wall = 0.0
        units, parts = self._call("finalize", (base_seconds,))
        self._collects = [collect for collect, in parts]
        return [
            (node_units, pickle.loads(collect) if collect else None)
            for node_units, collect in zip(units, self._collects)
        ]

    def emit_slices(self, tracer, superstep, units, recv_bytes) -> None:
        """Emit the last call's measured per-worker timings as
        ``pregel.node`` events (:class:`NodeSlice` fields).

        Unlike the simulator's per-logical-node slices (simulated
        seconds), these carry wall-clock measurements with ``node`` set
        to the worker id: ``compute_seconds`` is the worker's measured
        superstep time, ``barrier_wait_seconds`` its slack against the
        slowest worker, and ``barrier_seconds`` the master's measured
        relay time.
        """
        if tracer is None or not tracer.enabled:
            return
        slowest = max(self._walls)
        workers = len(self)
        for w, wall in enumerate(self._walls):
            piece = NodeSlice(
                superstep=superstep,
                node=w,
                units=sum(units[w::workers]),
                compute_seconds=wall,
                comm_seconds=0.0,
                barrier_wait_seconds=max(0.0, slowest - wall),
                barrier_seconds=self._barrier_wall,
                recv_bytes=sum(recv_bytes[w::workers]),
            )
            tracer.event("pregel.node", **piece.to_dict())

    def close(self, failed: bool) -> None:
        """Reap every worker — told to exit, or stopped at once when the
        run ``failed``: terminated, then killed if it is still there (a
        stopped worker) —, and close the pipes."""
        if not failed:
            try:
                for worker in range(len(self.conns)):
                    self._send(worker, "exit", ())
            except ReproError:
                pass
            for proc in self.procs:
                proc.join(timeout=30)
        for proc in self.procs:
            if proc.is_alive():
                proc.terminate()
        for proc in self.procs:
            proc.join(timeout=_TERMINATE_GRACE)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=5)
        for conn in self.conns:
            try:
                conn.close()
            except Exception:
                pass


class MultiprocessEngine(Engine):
    """Run supersteps for real across ``workers`` forked processes.

    The workers are forked at a program's first run.  While the cluster
    is entered (``with cluster:``) they stay for the program's later
    runs, re-armed through :meth:`~repro.pregel.engine.Cluster.rearm`,
    and are reaped when the ``with`` ends; a run outside one reaps them
    when it returns, and a run that raises reaps them at once.

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

    def __init__(
        self, workers: int | None = None, arrival_seed: int | None = None
    ):
        self.workers = None if workers is None else check_count("workers", workers)
        self.arrival_seed = arrival_seed
        self._pool: _ProcessWorkers | None = None

    @contextmanager
    def _start_workers(self, cluster, ctx, program):
        pool = self._pool
        if pool is None or not pool.serves(cluster, ctx.graph, program):
            self.release()
            pool = self._pool = self._fork(cluster, ctx.graph, program)
        try:
            yield pool
        except BaseException:
            self.release(failed=True)
            raise
        if not cluster.keeps_workers:
            self.release()

    def _fork(self, cluster, graph: DiGraph, program) -> _ProcessWorkers:
        if not getattr(program, "mp_supported", False):
            raise ReproError(
                f"{type(program).__name__} does not implement the "
                "multiprocess hooks (mp_supported / mp_collect / mp_merge); "
                "run it with engine='sim'"
            )
        if "fork" not in multiprocessing.get_all_start_methods():
            raise ReproError(  # pragma: no cover — POSIX only
                "the multiprocess engine requires the 'fork' start method"
            )
        workers = self.workers if self.workers is not None else os.cpu_count() or 1
        return _ProcessWorkers(
            cluster, graph, program, max(1, min(workers, cluster.num_nodes)),
            Random(self.arrival_seed) if self.arrival_seed is not None else None,
        )

    def rearm(self, program, method, args) -> None:
        if self._pool is not None and self._pool.program is program:
            self._pool.rearm(method, args)

    def release(self, failed: bool = False) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.close(failed)
