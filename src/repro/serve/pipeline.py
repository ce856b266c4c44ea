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
from repro.pregel.cost_model import DEFAULT_COST_MODEL
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
        enabling the write path: the write half of :meth:`run_mixed`
        routes through it.  Writes share the admission queue with reads
        (and get shed by the same backpressure), but are **never
        deadline-dropped** — a client that stopped waiting for an
        answer still wants its write applied.
    """

    def __init__(
        self,
        backend,
        queue_depth: int = 1024,
        batch_size: int = 32,
        deadline_seconds: float | None = None,
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
        self._dispatch_seconds = DEFAULT_COST_MODEL.t_hop
        self._request_tracing = request_tracing
        self._on_advance = on_advance
        self._mutation_backend = mutation_backend

    # -- entry points --------------------------------------------------
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
    ) -> ServeReport:
        """Closed-loop run: ``clients`` concurrent clients each issue
        their next request the instant the previous one leaves the
        server (served, failed, or dropped at its deadline).

        Offered load self-limits at ``clients / latency``; the in-flight
        population is bounded by ``clients``, which may not exceed
        ``queue_depth``, so nothing is shed.  Batching still applies
        when several clients are ready at once.
        """
        check_count("clients", clients)
        if clients > self._queue_depth:
            raise ValueError(
                f"clients ({clients}) exceed queue_depth ({self._queue_depth}):"
                " a closed loop keeps every client's request in the queue"
            )
        # Every client's first request arrives at 0; the loop appends the
        # clock each time a request leaves, and never decreases it, so
        # the list stays non-decreasing like an open-loop schedule.
        return self._run("closed", pairs, [0.0] * min(clients, len(pairs)))

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
            "mixed",
            [request for _, request in merged],
            [at for at, _ in merged],
            writes=len(mutations),
        )

    # -- the serving loop ----------------------------------------------
    def _run(
        self,
        mode: str,
        pairs: Sequence[tuple[int, int]],
        arrivals: list[float],
        writes: int = 0,
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
        n = len(pairs)
        # A closed loop's schedule grows: each request that leaves the
        # server re-arms its client at the current clock, until every
        # request has its arrival.
        unarmed = n - len(arrivals) if mode == "closed" else 0
        rearm = arrivals.append
        # Admitted requests by pair index: request k arrived at
        # arrivals[k], and is a write only in a run with writes.
        queue: deque[int] = deque()
        enqueue, dequeue = queue.append, queue.popleft
        latencies: list[float] = []
        write_latencies: list[float] = []
        record = latencies.append
        clock = 0.0
        shed = deadline_dropped = positives = batches = failed = 0
        mutations_shed = queue_peak = next_request = 0
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
        # The trace of each request in the queue, by pair index (tracing
        # only); a request's trace is let go as it leaves.
        traces: dict[int, RequestTrace] = {}

        with trace_span("serve.run", mode=mode) as span:
            while next_request < n or queue:
                # An empty queue waits for the next arrival (a closed
                # loop always has one: no client is in flight).
                if not queue and arrivals[next_request] > clock:
                    clock = arrivals[next_request]
                # Admit everything that has arrived by now.
                while next_request < len(arrivals):
                    arrived = arrivals[next_request]
                    if arrived > clock:
                        break
                    if tracing:
                        request = pairs[next_request]
                        traces[next_request] = RequestTrace(
                            trace_ids.next_id(), request[-2], request[-1],
                            arrived, request[0] if len(request) == 3 else None,
                        )
                    if len(queue) >= queue_depth:
                        if len(pairs[next_request]) == 3:
                            mutations_shed += 1
                        else:
                            shed += 1
                        if tracing:
                            # Shed requests leave a terminal trace too:
                            # the drop reason is part of the record.
                            trace = traces.pop(next_request)
                            trace.finish("shed", reason="queue_full")
                            terminal(clock, trace)
                    else:
                        enqueue(next_request)
                    next_request += 1
                if len(queue) > queue_peak:
                    queue_peak = len(queue)
                # Dequeue one batch, dropping requests past deadline.
                batch: list[int] = []
                while queue and len(batch) < batch_size:
                    k = dequeue()
                    # Writes are never deadline-dropped: the mutation
                    # must land even if its submitter stopped waiting.
                    if (
                        deadline is not None
                        and clock - arrivals[k] > deadline
                        and len(pairs[k]) == 2
                    ):
                        deadline_dropped += 1
                        if tracing:
                            waited = clock - arrivals[k]
                            trace = traces.pop(k)
                            trace.add_stage("admission", waited)
                            trace.finish("deadline", waited, reason="deadline")
                            terminal(clock, trace)
                        if unarmed:
                            rearm(clock)
                            unarmed -= 1
                        continue
                    batch.append(k)
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
                for k in batch:
                    request = pairs[k]
                    is_write = writes and len(request) == 3
                    if tracing:
                        trace = traces.pop(k)
                        trace.add_stage("admission", dequeued_at - arrivals[k])
                        begin_request(trace)
                    error = None
                    try:
                        if is_write:
                            # Write path: apply on the leader through the
                            # MutationBackend (which adds its own
                            # "mutation" trace stage and telemetry event,
                            # and keeps the run's write totals).
                            op, u, v = request
                            status, seconds = mutation_backend.apply_with_cost(
                                op, u, v, at=clock
                            )
                        else:
                            s, t = request
                            try:
                                answer, seconds = query_with_cost(s, t)
                            except ShardUnavailableError as exc:
                                error, seconds = exc, getattr(exc, "seconds", 0.0)
                    finally:
                        if tracing:
                            end_request()
                    clock += seconds
                    latency = clock - arrivals[k]
                    if is_write:
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
                        record(latency)
                        if tracing:
                            trace.add_stage(
                                "backend", seconds, answer=bool(answer)
                            )
                            trace.finish("served", latency)
                            terminal(clock, trace)
                    if unarmed:
                        rearm(clock)
                        unarmed -= 1
            report = ServeReport.from_tally(
                mode,
                latencies,
                write_latencies,
                offered=n - writes,
                served=len(latencies),
                shed=shed,
                deadline_dropped=deadline_dropped,
                positives=positives,
                batches=batches,
                queue_peak=queue_peak,
                makespan_seconds=clock,
                failed=failed,
                mutations_offered=writes,
                mutations_shed=mutations_shed,
                **self._backend_stats(),
            )
            # The run's totals, by field name: the one record of what the
            # requests' own records do not carry (batches, queue peak,
            # cache churn, shard skew, staleness window).
            if enabled():
                span.set(**dataclasses.asdict(report))
            span.add_simulated(clock)
        return report

    def _backend_stats(self) -> dict:
        """Run totals kept by the layers themselves: cache and shard
        numbers off the backend chain, write outcomes off the writer."""
        stats: dict = {}
        writer = self._mutation_backend
        if writer is not None:
            stats.update(
                mutations_applied=writer.applied,
                mutations_noop=writer.noops,
                mutations_rejected=writer.rejected,
                staleness_window_seconds=writer.staleness_window_seconds,
            )
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
        return stats
