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
- The master is a coordinator, not a replica: it holds the program's
  state only as collection needs it, merging every worker's
  ``mp_collect`` value once per run (``mp_merge``), and it relays what
  the workers exchange without unpickling it.  A step reply is a small
  pickled header (the :class:`~repro.pregel.engine.StepCounts` fields,
  the call's wall time and the sizes of the parts that follow) and one
  frame: the worker's published delta, pickled once, then one pickled
  blob of buckets per destination worker.  The master unpickles the
  header only.  It forwards each delta to every *other* worker and each
  bucket blob to the worker it is addressed to, with the next call —
  the next step or the finalize pass, which opens with that barrier.
- Every replica applies the same inputs in worker order, none of them
  its own (its own are in place already): at each barrier, the other
  workers' deltas; between two runs, the other workers' ``mp_collect``
  values of the last one (``mp_merge``), then the program's re-arm call
  (:meth:`~repro.pregel.engine.Cluster.rearm`).
- Every call goes to all workers before any reply is awaited, each
  over the one pipe between the master and that worker: workers write
  only replies, and only after reading a whole call, so no two pipes
  can wait on each other.  A bucket is assembled from several workers'
  output, so entries carry their sending vertex and each inbox is
  stably sorted by sender before delivery — the order the simulator's
  single ascending sweep produces, whatever the worker count or the
  order replies arrive in.
- Per-worker *measured* wall-clock timings become ``pregel.node``
  events (:class:`~repro.pregel.metrics.NodeSlice` fields, ``node`` =
  worker id).
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import pickle
import time
import traceback
from contextlib import contextmanager
from itertools import accumulate
from multiprocessing import shared_memory
from random import Random

from repro.errors import ReproError, check_count
from repro.graph.digraph import DiGraph
from repro.pregel.engine import ComputeContext, Engine, Worker
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
    """A worker-side compute context when there are several workers:
    messages carry their sender, so the receiving worker can stably sort
    each inbox into ascending sending-vertex order — the exact sequence
    the simulator's sweep appends — before ``compute()`` sees the bare
    payloads.  A lone worker sweeps every vertex, as the simulator does."""

    __slots__ = ()
    _tag_sender = True


def _dump(value) -> bytes:
    """A value pickled for the pipe; ``None`` (nothing to send) is empty."""
    return b"" if value is None else pickle.dumps(value, pickle.HIGHEST_PROTOCOL)


def _worker_main(
    conn, index: int, num_workers: int, cluster, graph: DiGraph,
    program: VertexProgram,
) -> None:
    """One worker process: serve the master's calls on a :class:`Worker`
    over this process's replica of ``program``, timing each, until told
    to exit.

    A call is a pickled ``(op, args, frames)`` header followed by
    ``frames`` pickled values from the other workers, in worker order:
    for ``step`` and ``finalize``, the deltas they published at the last
    barrier (``args[-1]`` of them), then the buckets they sent this
    worker; for ``rearm``, their last finalize replies.  A step after
    the first and the finalize pass open with that barrier, so a worker
    wakes once per super-step.  A reply is a pickled ``("ok", result,
    wall, sizes)`` header followed, unless every size is 0, by one frame
    of that many bytes per part: for ``step`` the delta, then the
    buckets for each worker in worker order; for ``finalize`` the
    ``mp_collect()`` value.  ``rearm`` is not answered; a failure in it
    surfaces at the next gather."""
    # The process lives for one build and holds acyclic program state:
    # reference counting frees its garbage, and the cyclic collector
    # would only re-walk every bucket and delta it unpickles.
    gc.disable()
    status = 0
    try:
        routing = cluster.routing(graph)
        owned = None

        context = _WorkerContext if num_workers > 1 else ComputeContext

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
                counts, outgoing, delta = worker.step(*args, received[deltas:])
                parts = [_dump(delta)]
                parts += [_dump(outgoing.get(w)) for w in range(num_workers)]
                result = counts
            else:  # finalize
                result, collected = worker.finalize(*args)
                parts = [_dump(collected)]
            wall = time.perf_counter() - started
            sizes = [len(part) for part in parts]
            conn.send_bytes(_dump(("ok", result, wall, sizes)))
            if any(sizes):
                conn.send_bytes(b"".join(parts))
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
        self.program = program  # the master's copy, merged once per run
        self.rng = rng
        self.conns: list = []
        self.procs: list = []
        self.phase = "start-up"
        self._walls: list[float] = []  # of the last gathered call, per worker
        self._gathered = self._barrier_wall = 0.0
        #: The last step's frames: per worker, the buckets addressed to
        #: it; per sender, its delta.
        self._routed: list[list[memoryview]] = [[] for _ in range(workers)]
        self._deltas: list[memoryview] = []
        #: The last run's finalize frames, not yet merged into the replicas.
        self._collects: list[memoryview] | None = None
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

    def _gather(self) -> tuple[list, list[list[memoryview]]]:
        """Await one reply per worker, optionally in shuffled order:
        the results and, per worker, its reply's parts — views of the
        frame as it came off the pipe."""
        workers = len(self.conns)
        order = list(range(workers))
        if self.rng is not None:
            self.rng.shuffle(order)
        results: list = [None] * workers
        parts: list = [None] * workers
        self._walls = [0.0] * workers
        for worker in order:
            conn = self.conns[worker]
            try:
                kind, *rest = pickle.loads(conn.recv_bytes())
                if kind == "ok":
                    results[worker], self._walls[worker], sizes = rest
                    frame = memoryview(conn.recv_bytes() if any(sizes) else b"")
            except (EOFError, OSError):
                raise self._dead(worker) from None
            if kind == "error":
                exc, tb = rest
                if tb:
                    exc.add_note(f"worker {worker} traceback:\n{tb}")
                raise exc
            ends = list(accumulate(sizes))
            parts[worker] = [
                frame[end - size : end] for size, end in zip(sizes, ends)
            ]
        self._gathered = time.perf_counter()
        return results, parts

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
        the other workers' finalize replies of the last run, merged in
        worker order (a replica's own rows are in place already), then
        the master's re-arm call (none before a plain re-run).  Each
        worker starts the next run on a fresh :class:`Worker`."""
        self.phase = "the re-arm between two runs"
        collects, self._collects = self._collects or [], None
        for worker in range(len(self.conns)):
            self._send(worker, "rearm", (method, args), self._others(collects, worker))

    def _call(self, op: str, args: tuple) -> tuple[list, list]:
        """Send every worker ``op`` with the last barrier's deltas of the
        other workers and the buckets addressed to it; gather."""
        deltas, self._deltas = self._deltas, []
        for worker, buckets in enumerate(self._routed):
            frames = self._others(deltas, worker)
            self._send(worker, op, (*args, len(frames)), frames + buckets)
        return self._gather()

    def step(self, superstep, base_seconds) -> list:
        if superstep == 1 and self._collects is not None:
            self.rearm(None, ())
        self.phase = f"superstep {superstep}"
        counts, parts = self._call("step", (superstep, base_seconds))
        self._deltas = [delta for delta, *_ in parts]
        self._routed = [
            [buckets[worker] for _, *buckets in parts if buckets[worker]]
            for worker in range(len(parts))
        ]
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
        run ``failed`` —, close the pipes and unlink the CSR segments."""
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
