"""Structured span tracing.

A :class:`Span` is a named, timestamped interval of work carrying both
**wall seconds** (real Python time) and **simulated seconds** (the cost
model's clock — see :mod:`repro.pregel.cost_model`).  Spans nest: the
tracer keeps a stack, so a span opened while another is active records
it as its parent, and sinks can reconstruct the full tree.

A :class:`TraceEvent` is a point-in-time record attached to the current
span (the engine emits one per super-step, carrying the
:class:`~repro.pregel.metrics.SuperstepTrace` fields); a
:class:`RequestTrace` is what a ``serve.request`` event carries.

Tracing is **off by default**: the module-level tracer is a
:class:`NullTracer` whose ``span()`` returns a shared no-op context
manager, so instrumented code pays one attribute check when telemetry
is disabled.  Install a real :class:`Tracer` with
:func:`~repro.telemetry.session` (or :func:`activate` directly).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator


@dataclass
class Span:
    """One named interval of work, possibly nested under a parent."""

    name: str
    span_id: int
    parent_id: int | None
    start_wall: float
    attrs: dict = field(default_factory=dict)
    end_wall: float | None = None
    simulated_seconds: float = 0.0
    status: str = "ok"

    @property
    def wall_seconds(self) -> float:
        """Elapsed wall time (0.0 while the span is still open)."""
        if self.end_wall is None:
            return 0.0
        return self.end_wall - self.start_wall

    def set(self, **attrs) -> "Span":
        """Attach or overwrite attributes; returns ``self`` for chaining."""
        self.attrs.update(attrs)
        return self

    def add_simulated(self, seconds: float) -> None:
        """Accumulate simulated seconds onto this span."""
        self.simulated_seconds += seconds

    def to_dict(self) -> dict:
        """JSONL representation (see ``docs/observability.md``)."""
        return {
            "kind": "span",
            "name": self.name,
            "id": self.span_id,
            "parent": self.parent_id,
            "start": self.start_wall,
            "wall_seconds": self.wall_seconds,
            "simulated_seconds": self.simulated_seconds,
            "status": self.status,
            "attrs": dict(self.attrs),
        }


@dataclass(frozen=True)
class TraceEvent:
    """A point-in-time record attached to the span active when emitted."""

    name: str
    span_id: int | None
    wall: float
    attrs: dict

    def to_dict(self) -> dict:
        """JSONL representation (see ``docs/observability.md``)."""
        return {
            "kind": "event",
            "name": self.name,
            "span": self.span_id,
            "wall": self.wall,
            "attrs": dict(self.attrs),
        }


class RequestTrace:
    """One request's causal record: identity, outcome, and stages.

    The same class on both sides of a trace file.  The server creates
    one per arriving request (shed ones too, so drops leave a terminal
    record), components on the path append stages on the *simulated*
    clock, and the finished trace is emitted as a ``serve.request``
    event carrying :meth:`to_attrs`; the reader parses it back with
    :meth:`from_event`.  A stage is the flat dict the JSONL holds:
    ``{"stage": name, "seconds": s, **attrs}``.
    """

    __slots__ = (
        "trace_id", "source", "target", "arrival",
        "outcome", "latency_seconds", "reason", "stages", "run",
    )

    def __init__(self, trace_id: str, source: int, target: int, arrival: float):
        self.trace_id = trace_id
        self.source = source
        self.target = target
        self.arrival = arrival
        self.outcome = "pending"
        self.latency_seconds = 0.0
        self.reason: str | None = None
        self.stages: list[dict] = []
        #: The ``serve.run`` span id the request was read back under.
        self.run: int | None = None

    def add_stage(self, name: str, seconds: float, **attrs) -> dict:
        """Append a stage (attrs are optional annotations)."""
        stage = {"stage": name, "seconds": seconds, **attrs}
        self.stages.append(stage)
        return stage

    def finish(
        self, outcome: str, latency_seconds: float = 0.0,
        reason: str | None = None,
    ) -> "RequestTrace":
        """Mark the terminal outcome (``served`` / ``shed`` / ``deadline``)."""
        self.outcome = outcome
        self.latency_seconds = latency_seconds
        self.reason = reason
        return self

    def stage_names(self) -> list[str]:
        """The stage names in recording order."""
        return [stage.get("stage", "?") for stage in self.stages]

    def to_attrs(self) -> dict:
        """The ``serve.request`` event payload (JSONL ``attrs``)."""
        attrs = {
            "trace_id": self.trace_id,
            "source": self.source,
            "target": self.target,
            "arrival": self.arrival,
            "outcome": self.outcome,
            "latency_seconds": self.latency_seconds,
            "stages": list(self.stages),
        }
        if self.reason is not None:
            attrs["reason"] = self.reason
        return attrs

    @classmethod
    def from_event(cls, record: dict) -> "RequestTrace":
        """Parse one ``serve.request`` event record (the inverse of
        :meth:`to_attrs`; the record's ``span`` becomes :attr:`run`)."""
        attrs = record["attrs"]
        trace = cls(
            attrs["trace_id"],
            attrs.get("source", -1),
            attrs.get("target", -1),
            attrs.get("arrival", 0.0),
        )
        trace.finish(
            attrs.get("outcome", "?"),
            attrs.get("latency_seconds", 0.0),
            attrs.get("reason"),
        )
        trace.stages = list(attrs.get("stages", ()))
        trace.run = record.get("span")
        return trace


class Tracer:
    """Produces spans and events and fans them out to sinks.

    Parameters
    ----------
    sinks:
        Objects implementing the :class:`~repro.telemetry.sinks.SpanSink`
        protocol (``on_span`` / ``on_event``).  A tracer with no sinks
        still records span nesting (useful for tests via
        :meth:`finished_spans` of an attached in-memory sink).
    """

    enabled = True

    def __init__(self, sinks=()):
        self.sinks = list(sinks)
        self._stack: list[Span] = []
        self._next_id = 1

    @property
    def current_span(self) -> Span | None:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Span]:
        """Open a span; it closes (and reaches the sinks) on exit.

        An exception propagating through the block marks the span's
        ``status`` with the exception class name before re-raising, so
        aborted work (e.g. a simulated ``TimeLimitExceeded``) is still
        visible in the trace.
        """
        parent = self._stack[-1].span_id if self._stack else None
        opened = Span(
            name=name,
            span_id=self._next_id,
            parent_id=parent,
            start_wall=time.perf_counter(),
            attrs=dict(attrs),
        )
        self._next_id += 1
        self._stack.append(opened)
        try:
            yield opened
        except BaseException as exc:
            opened.status = type(exc).__name__
            raise
        finally:
            opened.end_wall = time.perf_counter()
            self._stack.pop()
            for sink in self.sinks:
                sink.on_span(opened)

    def event(self, name: str, **attrs) -> TraceEvent:
        """Emit a point-in-time event under the current span."""
        current = self._stack[-1] if self._stack else None
        emitted = TraceEvent(
            name=name,
            span_id=current.span_id if current is not None else None,
            wall=time.perf_counter(),
            attrs=attrs,
        )
        for sink in self.sinks:
            sink.on_event(emitted)
        return emitted


class _NullSpan:
    """Shared no-op stand-in yielded when tracing is disabled."""

    __slots__ = ()
    simulated_seconds = 0.0

    def set(self, **attrs) -> "_NullSpan":
        return self

    def add_simulated(self, seconds: float) -> None:
        pass


class _NullSpanContext:
    """Reusable context manager yielding the shared null span."""

    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return _NULL_SPAN

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()
_NULL_SPAN_CONTEXT = _NullSpanContext()


class NullTracer:
    """The disabled tracer: every operation is a cheap no-op."""

    enabled = False
    sinks: tuple = ()
    current_span = None

    def span(self, name: str, **attrs) -> _NullSpanContext:
        return _NULL_SPAN_CONTEXT

    def event(self, name: str, **attrs) -> None:
        return None


NULL_TRACER = NullTracer()

_active_tracer: Tracer | NullTracer = NULL_TRACER


def current_tracer() -> Tracer | NullTracer:
    """The installed tracer (the shared :class:`NullTracer` when off)."""
    return _active_tracer


def set_tracer(tracer: Tracer | NullTracer | None) -> None:
    """Install ``tracer`` globally; ``None`` restores the null tracer."""
    global _active_tracer
    _active_tracer = tracer if tracer is not None else NULL_TRACER


@contextmanager
def activate(tracer: Tracer) -> Iterator[Tracer]:
    """Install ``tracer`` for the duration of the block."""
    previous = _active_tracer
    set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)


@contextmanager
def trace_span(name: str, **attrs) -> Iterator[Span | _NullSpan]:
    """Open a span on whatever tracer is installed.

    The instrumentation entry point: modules call
    ``with trace_span("drl.flood", dataset=...) as span: ...`` and the
    call is a no-op when telemetry is disabled.
    """
    with _active_tracer.span(name, **attrs) as opened:
        yield opened


def trace_event(name: str, **attrs) -> None:
    """Emit an event on whatever tracer is installed."""
    _active_tracer.event(name, **attrs)
