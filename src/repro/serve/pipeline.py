"""The request pipeline: admission control, batching, deadlines.

A bare backend (``query_with_cost`` in a loop) answers every query it
is handed, however long that takes.  A *server* cannot:
requests arrive on their own schedule, queues are finite, and a late
answer is often worth nothing.  :class:`QueryServer` runs the serving
loop on the simulated clock:

1. **Admission** — arrivals enter a bounded FIFO queue; when it is
   full the request is **shed** immediately (counted, never served).
   Shedding at the door is the backpressure mechanism: an unbounded
   queue converts overload into unbounded latency for everyone.
2. **Batching** — the server dequeues up to ``batch_size`` requests
   and pays one fixed dispatch cost (``t_hop``: one RPC round into the
   executor) per batch, amortizing it across the batch — the same
   batching argument as the paper's DRL_b, applied to serving.
3. **Deadlines** — a request that has already waited past
   ``deadline_seconds`` when dequeued is dropped (counted separately
   from sheds): serving it would waste capacity on an answer the
   client stopped waiting for.
4. **Degradation** — the backend can be a
   :class:`~repro.query.service.FallbackBackend`, so a cluster whose
   index build died keeps answering (slower, via online BFS) while
   admission control keeps the queue bounded.  The full ladder is
   documented in ``docs/serving.md``.

Everything is deterministic: time is the cost model's simulated clock,
arrivals come from :mod:`repro.workloads.traffic`, and the same inputs
always produce the same report.
"""

from __future__ import annotations

import dataclasses
import heapq
import math
import operator
from collections import deque
from typing import Sequence

from repro.errors import ShardUnavailableError, check_count, check_seconds
from repro.observe.serve_report import ServeReport
from repro.telemetry.tracing import TraceIdGenerator, begin_request, end_request
from repro.pregel.cost_model import DEFAULT_COST_MODEL, CostModel
from repro.telemetry import RequestTrace, enabled, trace_event, trace_span


def _check_schedule(arrivals: Sequence[float]) -> None:
    """Refuse a schedule that is not finite and non-decreasing, in one
    pass: ``not a <= b`` also holds when either side is NaN, and between
    two finite ends a non-decreasing schedule is finite throughout."""
    if (
        len(arrivals)
        and not (math.isfinite(arrivals[0]) and math.isfinite(arrivals[-1]))
    ) or any(not a <= b for a, b in zip(arrivals, arrivals[1:])):
        raise ValueError("arrival times must be finite and non-decreasing")


def _chain(backend):
    """The backend and whatever it wraps, outermost first."""
    seen = []
    while backend is not None and backend not in seen:
        seen.append(backend)
        backend = getattr(backend, "inner", None)
    return seen


class QueryServer:
    """Serves a request stream through admission control and batching.

    Parameters
    ----------
    backend:
        Any :class:`~repro.query.service.QueryBackend`; typically a
        :class:`~repro.serve.CachingBackend` over a
        :class:`~repro.serve.ShardedIndexBackend`.
    queue_depth:
        Admission queue bound; arrivals beyond it are shed.
    batch_size:
        Requests dequeued per dispatch.
    deadline_seconds:
        Drop requests older than this at dequeue time (``None`` keeps
        everything).
    cost_model:
        Supplies the per-batch dispatch cost (``t_hop``).
    request_tracing:
        Per-request causal tracing (see :mod:`repro.telemetry.tracing`):
        every request gets a trace ID and a ``serve.request`` event
        with admission/cache/store/backend child stages.  ``None``
        (the default) follows whether telemetry is enabled; ``False``
        forces it off so the hot path allocates nothing per request.
    on_advance:
        Optional ``callback(clock)`` invoked before each batch
        dispatch with the current simulated time.  This is how
        scheduled mid-traffic events — replica faults and scenario
        update bursts on a :class:`~repro.serve.faults.Timeline`,
        replication delivery — ride the serving clock.
    mutation_backend:
        Optional :class:`~repro.serve.mutation.MutationBackend`
        enabling the write path: :meth:`submit_mutation` and the write
        half of :meth:`run_mixed` route through it.  Writes share the
        admission queue with reads (and get shed by the same
        backpressure), but are **never deadline-dropped** — a client
        that stopped waiting for an answer still wants its write
        applied.
    """

    def __init__(
        self,
        backend,
        queue_depth: int = 1024,
        batch_size: int = 32,
        deadline_seconds: float | None = None,
        cost_model: CostModel | None = None,
        request_tracing: bool | None = None,
        on_advance=None,
        mutation_backend=None,
    ):
        if deadline_seconds is not None:
            check_seconds("deadline_seconds", deadline_seconds, positive=True)
        self._backend = backend
        self._queue_depth = check_count("queue_depth", queue_depth)
        self._batch_size = check_count("batch_size", batch_size)
        self._deadline = deadline_seconds
        self._dispatch_seconds = (cost_model or DEFAULT_COST_MODEL).t_hop
        self._request_tracing = request_tracing
        self._on_advance = on_advance
        self._mutation_backend = mutation_backend

    # -- entry points --------------------------------------------------
    def submit_mutation(
        self, op: str, u: int, v: int = -1, at: float = 0.0
    ) -> tuple[str, float]:
        """Apply one mutation immediately (no queueing): the one-shot
        write API.  Returns ``(status, simulated_seconds)`` — see
        :meth:`~repro.serve.mutation.MutationBackend.apply_with_cost`.

        This bypasses admission (nothing else is in flight), but still
        runs the full mutation path: listener-driven cache
        invalidation, replication op-log append, ``serve.mutation``
        telemetry.  For interleaved read/write traffic use
        :meth:`run_mixed`, which routes writes through the queue.
        """
        if self._mutation_backend is None:
            raise ValueError("server was built without a mutation_backend")
        return self._mutation_backend.apply_with_cost(op, u, v, at=at)

    def run_open(
        self,
        pairs: Sequence[tuple[int, int]],
        arrivals: Sequence[float],
    ) -> ServeReport:
        """Open-loop run: requests arrive at the given times whether or
        not the server keeps up (this is where shedding happens)."""
        if len(pairs) != len(arrivals):
            raise ValueError("need one arrival time per pair")
        _check_schedule(arrivals)
        return self._run("open", pairs, arrivals)

    def run_closed(
        self,
        pairs: Sequence[tuple[int, int]],
        clients: int = 8,
        think_seconds: float = 0.0,
    ) -> ServeReport:
        """Closed-loop run: ``clients`` concurrent clients each issue
        their next request ``think_seconds`` after the previous answer.

        Offered load self-limits at ``clients / (latency + think)``, so
        nothing is shed; the in-flight population is bounded by
        ``clients``.  Batching still applies when several clients are
        ready at once.
        """
        return self._run(
            "closed",
            pairs,
            None,
            clients=check_count("clients", clients),
            think_seconds=check_seconds("think_seconds", think_seconds),
        )

    def run_mixed(
        self,
        pairs: Sequence[tuple[int, int]],
        arrivals: Sequence[float],
        mutations: Sequence[tuple[str, int, int]],
        mutation_arrivals: Sequence[float],
    ) -> ServeReport:
        """Open-loop run interleaving reads and writes on one queue.

        ``pairs``/``arrivals`` are the read stream exactly as
        :meth:`run_open`; ``mutations``/``mutation_arrivals`` are
        ``(op, u, v)`` writes on their own (non-decreasing) schedule.
        The two streams are merged by arrival time (reads first on
        ties) and served through the same admission queue, batching,
        and dispatch costs — so a write storm contends with reads for
        queue capacity and inflates read latency, which is the point
        of measuring them together.
        """
        if self._mutation_backend is None:
            raise ValueError("server was built without a mutation_backend")
        if len(pairs) != len(arrivals):
            raise ValueError("need one arrival time per pair")
        if len(mutations) != len(mutation_arrivals):
            raise ValueError("need one arrival time per mutation")
        _check_schedule(arrivals)
        _check_schedule(mutation_arrivals)
        # heapq.merge is stable: on a tie the earlier stream, reads, wins.
        merged = list(
            heapq.merge(
                zip(arrivals, map(tuple, pairs)),
                zip(mutation_arrivals, map(tuple, mutations)),
                key=operator.itemgetter(0),
            )
        )
        return self._run(
            "mixed", [request for _, request in merged], [at for at, _ in merged]
        )

    # -- the serving loop ----------------------------------------------
    def _run(
        self,
        mode: str,
        pairs: Sequence[tuple[int, int]],
        arrivals: Sequence[float] | None,
        clients: int = 0,
        think_seconds: float = 0.0,
    ) -> ServeReport:
        # Everything the loop consults per batch or per request, bound
        # once per run.
        query_with_cost = self._backend.query_with_cost
        mutation_backend = self._mutation_backend
        deadline = self._deadline
        queue_depth = self._queue_depth
        batch_size = self._batch_size
        dispatch_seconds = self._dispatch_seconds
        on_advance = self._on_advance
        closed = mode == "closed"
        queue: deque[tuple[int, float]] = deque()  # (pair index, arrival)
        latencies: list[float] = []
        write_latencies: list[float] = []
        clock = 0.0
        shed = deadline_dropped = served = positives = batches = failed = 0
        mut_applied = mut_noop = mut_rejected = mut_shed = 0
        queue_peak = 0
        n = len(pairs)
        # Mixed runs carry (op, u, v) writes in the same request list;
        # reads stay 2-tuples.  Reported "offered" counts reads only.
        reads_offered = sum(1 for request in pairs if len(request) == 2)
        mutations_offered = n - reads_offered
        next_request = 0
        # Request tracing: off by default unless telemetry is on (a
        # session, or a sink attached to the stream), and forceable
        # either way.  When off, the loop below touches none of this —
        # no per-request allocation at all.
        tracing = (
            self._request_tracing
            if self._request_tracing is not None
            else enabled()
        )

        def terminal(at: float, trace: RequestTrace, **extra) -> None:
            """Emit one finished request, stamped with the serving clock."""
            trace_event("serve.request", **trace.to_attrs(), **extra, at=at)

        trace_ids = TraceIdGenerator() if tracing else None
        traces: dict[int, RequestTrace] = {}
        # Closed loop: a heap of client-ready times replaces the
        # arrival list; a client re-arms when its answer comes back.
        # The next request materializes at the schedule's next instant
        # (open loop) or when the earliest ready client is (closed loop
        # — every client may be in flight, and then nothing arrives
        # until a batch completes).
        ready: list[float] = [0.0] * clients if closed else []

        with trace_span("serve.run", mode=mode) as span:
            while next_request < n or queue:
                if not queue:
                    arrival = ready[0] if closed else arrivals[next_request]
                    if arrival > clock:
                        clock = arrival
                # Admit everything that has arrived by now.
                while next_request < n:
                    if closed:
                        if not ready or ready[0] > clock:
                            break
                        arrived = heapq.heappop(ready)
                    else:
                        arrived = arrivals[next_request]
                        if arrived > clock:
                            break
                    request = pairs[next_request]
                    is_write = len(request) == 3
                    if tracing:
                        trace = RequestTrace(
                            trace_ids.next_id(), request[-2], request[-1],
                            arrived, request[0] if is_write else None,
                        )
                    if len(queue) >= queue_depth:
                        if is_write:
                            mut_shed += 1
                        else:
                            shed += 1
                        if tracing:
                            # Shed requests leave a terminal trace too:
                            # the drop reason is part of the record.
                            trace.finish("shed", reason="queue_full")
                            terminal(clock, trace)
                        if closed:  # the client retries at once
                            heapq.heappush(ready, clock)
                    else:
                        queue.append((next_request, arrived))
                        if tracing:
                            traces[next_request] = trace
                    next_request += 1
                if len(queue) > queue_peak:
                    queue_peak = len(queue)
                # Dequeue one batch, dropping requests past deadline.
                batch: list[tuple[int, float]] = []
                while queue and len(batch) < batch_size:
                    k, arrived = queue.popleft()
                    # Writes are never deadline-dropped: the mutation
                    # must land even if its submitter stopped waiting.
                    if (
                        deadline is not None
                        and len(pairs[k]) == 2
                        and clock - arrived > deadline
                    ):
                        deadline_dropped += 1
                        if tracing:
                            expired = traces.pop(k)
                            expired.add_stage("admission", clock - arrived)
                            expired.finish(
                                "deadline", clock - arrived, reason="deadline"
                            )
                            terminal(clock, expired)
                        if closed:
                            heapq.heappush(ready, clock + think_seconds)
                        continue
                    batch.append((k, arrived))
                if not batch:
                    continue
                if on_advance is not None:
                    # Scheduled mid-traffic events (replica faults,
                    # replication delivery, update bursts) fire here,
                    # before the batch's queries execute.
                    on_advance(clock)
                batches += 1
                dequeued_at = clock
                clock += dispatch_seconds
                for k, arrived in batch:
                    request = pairs[k]
                    is_write = len(request) == 3
                    if tracing:
                        trace = traces.pop(k)
                        trace.add_stage("admission", dequeued_at - arrived)
                        begin_request(trace)
                    error = None
                    try:
                        if is_write:
                            # Write path: apply on the leader through the
                            # MutationBackend (which adds its own
                            # "mutation" trace stage and telemetry event).
                            op, u, v = request
                            status, seconds = mutation_backend.apply_with_cost(
                                op, u, v, at=clock
                            )
                        else:
                            try:
                                answer, seconds = query_with_cost(*request)
                            except ShardUnavailableError as exc:
                                error, seconds = exc, getattr(exc, "seconds", 0.0)
                    finally:
                        if tracing:
                            end_request()
                    clock += seconds
                    latency = clock - arrived
                    if is_write:
                        if status == "applied":
                            mut_applied += 1
                        elif status == "noop":
                            mut_noop += 1
                        else:
                            mut_rejected += 1
                        write_latencies.append(latency)
                        if tracing:
                            trace.finish("served", latency)
                            terminal(clock, trace, status=status)
                    elif error is not None:
                        # One lost shard degrades availability; it must
                        # not crash the server or the rest of the batch.
                        failed += 1
                        if tracing:
                            trace.finish("error", latency, reason="unavailable")
                            terminal(clock, trace)
                    else:
                        positives += answer
                        served += 1
                        latencies.append(latency)
                        if tracing:
                            trace.add_stage(
                                "backend", seconds, answer=bool(answer)
                            )
                            trace.finish("served", latency)
                            terminal(clock, trace)
                    if closed:
                        heapq.heappush(ready, clock + think_seconds)
            staleness = (
                mutation_backend.staleness_window_seconds
                if mutation_backend is not None
                else 0.0
            )
            report = ServeReport.from_tally(
                mode,
                latencies,
                write_latencies,
                offered=reads_offered,
                served=served,
                shed=shed,
                deadline_dropped=deadline_dropped,
                positives=positives,
                batches=batches,
                queue_peak=queue_peak,
                makespan_seconds=clock,
                failed=failed,
                mutations_offered=mutations_offered,
                mutations_applied=mut_applied,
                mutations_noop=mut_noop,
                mutations_rejected=mut_rejected,
                mutations_shed=mut_shed,
                staleness_window_seconds=staleness,
                **self._backend_stats(),
            )
            # The run's totals, by field name: the one record of what the
            # requests' own records do not carry (batches, queue peak,
            # cache churn, shard skew, degradation, staleness window).
            if enabled():
                span.set(**dataclasses.asdict(report))
            span.add_simulated(clock)
        return report

    def _backend_stats(self) -> dict:
        """Cache/shard/degradation numbers pulled off the backend chain."""
        stats: dict = {}
        for layer in _chain(self._backend):
            cache = getattr(layer, "cache", None)
            if cache is not None and "cache_hits" not in stats:
                stats.update(
                    cache_hits=cache.hits,
                    cache_misses=cache.misses,
                    cache_invalidated=cache.invalidated,
                    cache_evictions=cache.evictions,
                )
            store = getattr(layer, "store", None)
            if store is not None and "shard_loads" not in stats:
                stats.update(
                    shard_loads=store.shard_loads(),
                    shard_skew=store.load_skew(),
                    **store.replica_stats(),
                )
            if getattr(layer, "degraded", False):
                stats.update(
                    degraded=True,
                    fallback_queries=getattr(layer, "fallback_queries", 0),
                )
        return stats
