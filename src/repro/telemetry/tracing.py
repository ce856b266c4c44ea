"""The request-tracing slot: where the serving path writes its stages.

A latency percentile answers "how slow is the p99"; it cannot answer
"*why was this query slow*".  Request tracing closes the gap: every
query admitted by :class:`~repro.serve.pipeline.QueryServer` gets a
**trace ID** that follows it through admission, the query cache, the
sharded label store, and the backend, with a stage recorded at each hop
on the *simulated* clock.  The record is
:class:`~repro.telemetry.spans.RequestTrace`, the stream's third record
type; finished traces are emitted as ``serve.request`` telemetry
events, so a ``--trace-out`` JSONL export carries one record per
request — including requests shed at the door or dropped past their
deadline.

Propagation uses a module-level slot instead of threading a context
argument through every backend: the server sets :data:`ACTIVE` around
the backend call (:func:`begin_request` / :func:`end_request`), and
instrumented components (:class:`~repro.serve.cache.CachingBackend`,
:class:`~repro.serve.store.ShardedLabelStore`,
:class:`~repro.serve.mutation.MutationBackend`) append their stage to
whatever request is active.  When no request is active — tracing off,
or a backend called outside a server — the cost is one
module-attribute read and a ``None`` check.  The slot is
instrumentation, not a view, so it sits with the stream: the layers
that write to it import nothing from :mod:`repro.observe`.
"""

from __future__ import annotations

import itertools

from repro.telemetry.spans import RequestTrace

#: The request currently executing its backend call, if any.
ACTIVE: RequestTrace | None = None

#: Stages the server itself records on every traced request.
SERVER_STAGES = ("admission", "backend")

_run_counter = itertools.count()


class TraceIdGenerator:
    """Deterministic trace IDs: ``<run hex>-<sequence>``.

    Each generator takes the next run number from a process-wide
    counter (explicitly overridable), so concurrent serve runs in one
    session — e.g. serve-bench's cached and uncached rows — never
    collide, while the same program always produces the same IDs.
    """

    __slots__ = ("run_id", "_sequence")

    def __init__(self, run_id: int | None = None):
        self.run_id = next(_run_counter) if run_id is None else run_id
        self._sequence = 0

    def next_id(self) -> str:
        sequence = self._sequence
        self._sequence += 1
        return f"{self.run_id:04x}-{sequence:06d}"


def begin_request(trace: RequestTrace) -> None:
    """Install ``trace`` as the active request for backend propagation."""
    global ACTIVE
    ACTIVE = trace


def end_request() -> None:
    """Clear the active request (always pair with :func:`begin_request`)."""
    global ACTIVE
    ACTIVE = None


def add_stage(name: str, seconds: float, **attrs) -> None:
    """Record a stage on the active request, if any (no-op otherwise)."""
    if ACTIVE is not None:
        ACTIVE.add_stage(name, seconds, **attrs)
