"""The process transport: BSP workers in forked processes.

:class:`MultiprocessEngine` runs the one master loop
(:meth:`repro.pregel.engine.Engine.run`) over ``workers`` OS processes,
each holding the same :class:`~repro.pregel.engine.Worker` the simulator
runs in-process, so ``compute()`` really runs in parallel while the
workers' counters, summed in worker order and accounted by the same
code, leave ``RunStats`` identical to a simulator run.  This module holds
only what is about processes (``docs/simulator.md``, "One runtime, two
transports", has the whole picture):

- The workers are forked once per program, at its first run: the
  graph's CSR arrays are copied into ``multiprocessing.shared_memory``
  segments and the ``array`` slots swapped for ``memoryview`` casts of
  them, so the workers read the topology from shared pages.  The
  cluster's per-graph :class:`~repro.graph.partition.Routing` arrives
  through fork.  Inside ``with cluster:`` — every
  :class:`~repro.core.drl.FloodBuild` — later runs of the same program
  reuse the workers, as a Pregel job keeps its workers for all of its
  floods; the workers and the segments are reaped when the ``with``
  ends, when a run raises, and after a run outside one.
- Each worker holds a replica of the program; logical node ``n`` is
  pinned to worker ``n % workers``, so every vertex has exactly one
  writer.
- The master's program is one more replica, and every replica applies
  the same inputs in worker order: at each barrier, every worker's
  published delta; between two runs, every worker's ``mp_collect``
  value of the last one (``mp_merge``), then the program's re-arm call
  (:meth:`~repro.pregel.engine.Cluster.rearm`).
- Every call goes to all workers before any reply is awaited.  A bucket
  is assembled from several workers' output, so entries carry their
  sending vertex and each inbox is stably sorted by sender before
  delivery — the order the simulator's single ascending sweep produces,
  whatever the worker count or the order replies arrive in.
- Per-worker *measured* wall-clock timings become ``pregel.node``
  events (:class:`~repro.pregel.metrics.NodeSlice` fields, ``node`` =
  worker id).

Fault plans and checkpoint intervals are the simulator's
(:mod:`repro.pregel.recovery`); :class:`~repro.pregel.engine.Cluster` refuses them here.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
import traceback
from contextlib import contextmanager
from multiprocessing import shared_memory
from multiprocessing.reduction import ForkingPickler
from random import Random

from repro.errors import ReproError, check_count
from repro.graph.digraph import DiGraph
from repro.pregel.engine import ComputeContext, Engine, Worker, apply_barrier
from repro.pregel.metrics import NodeSlice
from repro.pregel.vertex_program import VertexProgram

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
    conn, index: int, num_workers: int, cluster, graph: DiGraph,
    program: VertexProgram,
) -> None:
    """One worker process: serve the master's calls on a :class:`Worker`
    over this process's replica of ``program``, timing each, until told
    to exit.  ``barrier`` and ``rearm`` are not answered; a failure in
    either surfaces at the next gather."""
    status = 0
    try:
        routing = cluster.routing(graph)

        def fresh_worker() -> Worker:  # one per run, as in the simulator
            ctx = _WorkerContext(
                graph, cluster.num_nodes, routing, cluster.cost_model, program
            )
            return Worker(ctx, program, index, num_workers, replica=True)

        worker = fresh_worker()
        while True:
            op, *args = conn.recv()
            if op == "exit":
                break
            if op == "barrier":
                worker.barrier(*args)
            elif op == "rearm":
                finished, method, method_args = args
                for reply in finished:  # every worker's, in worker order
                    _, (_, collected), _ = pickle.loads(reply)
                    program.mp_merge(collected)
                if method is not None:
                    getattr(program, method)(*method_args)
                worker = fresh_worker()
            else:
                started = time.perf_counter()
                reply = getattr(worker, op)(*args)
                conn.send(("ok", reply, time.perf_counter() - started))
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
        self.program = program  # the master's replica
        self.rng = rng
        self.conns: list = []
        self.procs: list = []
        self.phase = "start-up"
        self._walls: list[float] = []  # of the last gathered call, per worker
        self._replies: list[bytes] = []  # ditto, as they came off the pipes
        self._gathered = self._barrier_wall = 0.0
        #: The last run's finalize replies, not yet merged into the replicas.
        self._finished: list[bytes] | None = None
        self._shared = _SharedGraph(graph)
        try:
            self._shared.install()
            fork = multiprocessing.get_context("fork")
            for w in range(workers):
                parent_conn, child_conn = fork.Pipe()
                proc = fork.Process(
                    target=_worker_main,
                    args=(child_conn, w, workers, cluster, graph, program),
                    daemon=True,
                )
                proc.start()
                child_conn.close()
                self.conns.append(parent_conn)
                self.procs.append(proc)
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

    def _send_all(self, messages) -> None:
        for worker, message in enumerate(messages):
            try:
                self.conns[worker].send(message)
            except OSError:  # BrokenPipeError: nobody is reading
                raise self._dead(worker) from None

    def _broadcast(self, message) -> None:
        """Send every worker the same ``message``, pickled once."""
        data = ForkingPickler.dumps(message)
        for worker, conn in enumerate(self.conns):
            try:
                conn.send_bytes(data)
            except OSError:
                raise self._dead(worker) from None

    def _gather(self) -> list:
        """Await one reply per worker, optionally in shuffled order."""
        order = list(range(len(self.conns)))
        if self.rng is not None:
            self.rng.shuffle(order)
        replies: list = [None] * len(order)
        self._walls = [0.0] * len(order)
        self._replies = [b""] * len(order)
        for worker in order:
            try:
                data = self.conns[worker].recv_bytes()
            except (EOFError, OSError):
                raise self._dead(worker) from None
            kind, *rest = pickle.loads(data)
            if kind == "error":
                exc, tb = rest
                if tb:
                    exc.add_note(f"worker {worker} traceback:\n{tb}")
                raise exc
            replies[worker], self._walls[worker] = rest
            self._replies[worker] = data
        self._gathered = time.perf_counter()
        return replies

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

    def rearm(self, method: str | None, args: tuple) -> None:
        """Bring every replica to the master's program between two runs:
        the last run's finalize replies, merged in worker order as the
        master merged them, then the master's re-arm call (none before a
        plain re-run).  Each worker starts the next run on a fresh
        :class:`Worker`."""
        self.phase = "the re-arm between two runs"
        finished, self._finished = self._finished or [], None
        self._broadcast(("rearm", finished, method, args))

    def step(self, superstep, base_seconds, routed) -> list:
        if superstep == 1 and self._finished is not None:
            self.rearm(None, ())
        self.phase = f"superstep {superstep}"
        self._send_all(
            ("step", superstep, base_seconds, incoming) for incoming in routed
        )
        return self._gather()

    def barrier(self, superstep, deltas) -> None:
        apply_barrier(self.program, superstep, deltas)
        self._broadcast(("barrier", superstep, deltas))
        self._barrier_wall = time.perf_counter() - self._gathered

    def finalize(self, base_seconds) -> list:
        self.phase = "the finalize pass"
        self._broadcast(("finalize", base_seconds))
        self._barrier_wall = 0.0
        replies = self._gather()
        self._finished = self._replies
        return replies

    def emit_slices(self, tracer, superstep, units, recv_bytes) -> None:
        """Emit the last call's measured per-worker timings as
        ``pregel.node`` events (:class:`NodeSlice` fields).

        Unlike the simulator's per-logical-node slices (simulated
        seconds), these carry wall-clock measurements with ``node`` set
        to the worker id: ``compute_seconds`` is the worker's measured
        superstep time, ``barrier_wait_seconds`` its slack against the
        slowest worker, and ``barrier_seconds`` the master's measured
        routing/merge time.
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
        run ``failed`` —, close the pipes and unlink the CSR segments."""
        if not failed:
            try:
                self._broadcast(("exit",))
            except ReproError:
                pass
            for proc in self.procs:
                proc.join(timeout=30)
        for proc in self.procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5)
        for conn in self.conns:
            try:
                conn.close()
            except Exception:
                pass
        self._shared.close()


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
    supports_faults = False

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
