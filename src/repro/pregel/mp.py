"""The process transport: BSP workers in forked processes.

:class:`MultiprocessEngine` runs the one master loop
(:meth:`repro.pregel.engine.Engine.run`) over ``workers`` OS processes,
each holding the same :class:`~repro.pregel.engine.Worker` the simulator
runs in-process, so ``compute()`` really runs in parallel while the
workers' counters, summed in worker order and accounted by the same
code, leave ``RunStats`` identical to a simulator run.  This module holds
only what is about processes (``docs/simulator.md``, "One runtime, two
transports", has the whole picture):

- The graph's CSR arrays are copied once into
  ``multiprocessing.shared_memory`` segments and the ``array`` slots
  swapped for ``memoryview`` casts of them, so forked workers read the
  topology from shared pages.  The cluster's per-graph
  :class:`~repro.graph.partition.Routing` arrives through fork.
- Each worker is a program replica forked *after* ``setup()``; logical
  node ``n`` is pinned to worker ``n % workers``, so every vertex has
  exactly one writer.
- Every call goes to all workers before any reply is awaited.  A bucket
  is assembled from several workers' output, so entries carry their
  sending vertex and each inbox is stably sorted by sender before
  delivery — the order the simulator's single ascending sweep produces,
  whatever the worker count or the order replies arrive in.
- The master's program is one more replica: it applies every worker's
  published delta at each barrier, as the workers do.
- Per-worker *measured* wall-clock timings become ``pregel.node``
  events (:class:`~repro.pregel.metrics.NodeSlice` fields, ``node`` =
  worker id).

Fault plans and checkpoint intervals are the simulator's
(:mod:`repro.pregel.recovery`); :class:`~repro.pregel.engine.Cluster` refuses them here.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
from contextlib import contextmanager
from multiprocessing import shared_memory
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
    """One worker process: serve the master's calls on a :class:`Worker`,
    timing each, until told to exit.  ``barrier`` is not answered; a
    failure in it surfaces at the next gather."""
    status = 0
    try:
        worker = Worker(
            _WorkerContext(
                graph, cluster.num_nodes, cluster.routing(graph),
                cluster.cost_model, program,
            ),
            program, index, num_workers, replica=True,
        )
        while True:
            op, *args = conn.recv()
            if op == "exit":
                break
            started = time.perf_counter()
            reply = getattr(worker, op)(*args)
            if op != "barrier":
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
    """The forked workers behind their pipes: every call is sent to all
    of them before any answer is awaited, and a dead peer surfaces as a
    typed error."""

    remote = True

    def __init__(self, program: VertexProgram, rng: Random | None):
        self.program = program  # the master's replica
        self.rng = rng
        self.conns: list = []
        self.procs: list = []
        self.phase = "start-up"
        self._walls: list[float] = []  # of the last gathered call, per worker
        self._gathered = self._barrier_wall = 0.0

    def __len__(self) -> int:
        return len(self.conns)

    def _send_all(self, messages) -> None:
        for worker, message in enumerate(messages):
            try:
                self.conns[worker].send(message)
            except OSError:  # BrokenPipeError: nobody is reading
                raise self._dead(worker) from None

    def _gather(self) -> list:
        """Await one reply per worker, optionally in shuffled order."""
        order = list(range(len(self.conns)))
        if self.rng is not None:
            self.rng.shuffle(order)
        replies: list = [None] * len(order)
        self._walls = [0.0] * len(order)
        for worker in order:
            try:
                kind, *rest = self.conns[worker].recv()
            except (EOFError, OSError):
                raise self._dead(worker) from None
            if kind == "error":
                exc, tb = rest
                if tb:
                    exc.add_note(f"worker {worker} traceback:\n{tb}")
                raise exc
            replies[worker], self._walls[worker] = rest
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

    def step(self, superstep, base_seconds, routed) -> list:
        self.phase = f"superstep {superstep}"
        self._send_all(
            ("step", superstep, base_seconds, incoming) for incoming in routed
        )
        return self._gather()

    def barrier(self, superstep, deltas) -> None:
        apply_barrier(self.program, superstep, deltas)
        self._send_all([("barrier", superstep, deltas)] * len(self))
        self._barrier_wall = time.perf_counter() - self._gathered

    def finalize(self, base_seconds) -> list:
        self.phase = "the finalize pass"
        self._send_all([("finalize", base_seconds)] * len(self))
        self._barrier_wall = 0.0
        return self._gather()

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
        self.workers = None if workers is None else check_count("workers", workers)
        self.arrival_seed = arrival_seed

    @contextmanager
    def _start_workers(self, cluster, ctx, program):
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
        workers = self.workers if self.workers is not None else os.cpu_count() or 1
        workers = max(1, min(workers, cluster.num_nodes))
        graph = ctx.graph
        shared = _SharedGraph(graph)
        pool = _ProcessWorkers(
            program,
            Random(self.arrival_seed) if self.arrival_seed is not None else None,
        )
        try:
            shared.install()
            for w in range(workers):
                parent_conn, child_conn = fork.Pipe()
                proc = fork.Process(
                    target=_worker_main,
                    args=(child_conn, w, workers, cluster, graph, program),
                    daemon=True,
                )
                proc.start()
                child_conn.close()
                pool.conns.append(parent_conn)
                pool.procs.append(proc)
            yield pool
            pool._send_all([("exit",)] * workers)
            for proc in pool.procs:
                proc.join(timeout=30)
        finally:
            pool.close()
            shared.close()
