"""Trace sinks: where finished spans, events, and metrics go.

:class:`SpanSink` is the protocol; three implementations cover the
usual needs (:mod:`repro.observe.incident`'s flight recorder is one more):

- :class:`InMemorySink` — keeps everything in lists (tests, notebooks);
- :class:`JsonlSink` — appends one JSON object per line to a file (the
  machine-readable export consumed by ``repro trace``);
- :class:`LoggingSink` — bridges to stdlib :mod:`logging` (the
  ``--verbose`` CLI flag).

The JSONL schema is documented in ``docs/observability.md``; every
record carries a ``"kind"`` discriminator (``span`` / ``event`` /
``metric``).
"""

from __future__ import annotations

import json
import logging
from pathlib import Path
from typing import Protocol, runtime_checkable

from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.spans import Span, TraceEvent


@runtime_checkable
class SpanSink(Protocol):
    """Anything that can receive telemetry records.

    A sink that subclasses it inherits these no-ops and overrides only
    what it keeps.
    """

    def on_span(self, span: Span) -> None: ...

    def on_event(self, event: TraceEvent) -> None: ...

    def on_metrics(self, registry: MetricsRegistry) -> None: ...

    def close(self) -> None: ...


class InMemorySink(SpanSink):
    """Collects records in lists; ``records`` preserves arrival order."""

    def __init__(self):
        self.spans: list[Span] = []
        self.events: list[TraceEvent] = []
        self.metrics: list[dict] = []
        self.records: list[dict] = []

    def on_span(self, span: Span) -> None:
        self.spans.append(span)
        self.records.append(span.to_dict())

    def on_event(self, event: TraceEvent) -> None:
        self.events.append(event)
        self.records.append(event.to_dict())

    def on_metrics(self, registry: MetricsRegistry) -> None:
        rows = list(registry.iter_records())
        self.metrics.extend(rows)
        self.records.extend(rows)

    def spans_named(self, name: str) -> list[Span]:
        """All finished spans with the given name, in finish order."""
        return [s for s in self.spans if s.name == name]


class JsonlSink(SpanSink):
    """Writes one JSON object per line to ``path`` (truncates on open)."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._file = self.path.open("w", encoding="utf-8")

    def _write(self, record: dict) -> None:
        self._file.write(json.dumps(record, separators=(",", ":")) + "\n")

    def on_span(self, span: Span) -> None:
        self._write(span.to_dict())

    def on_event(self, event: TraceEvent) -> None:
        self._write(event.to_dict())

    def on_metrics(self, registry: MetricsRegistry) -> None:
        for record in registry.iter_records():
            self._write(record)

    def close(self) -> None:
        self._file.close()


class LoggingSink(SpanSink):
    """Bridges telemetry to stdlib logging (logger ``repro.telemetry``)."""

    def __init__(self, logger: logging.Logger | None = None):
        self._logger = logger if logger is not None else logging.getLogger("repro.telemetry")

    def _format_attrs(self, attrs: dict) -> str:
        return " ".join(f"{k}={v}" for k, v in attrs.items())

    def on_span(self, span: Span) -> None:
        self._logger.info(
            "span %s wall=%.6fs sim=%.6fs status=%s %s",
            span.name,
            span.wall_seconds,
            span.simulated_seconds,
            span.status,
            self._format_attrs(span.attrs),
        )

    def on_event(self, event: TraceEvent) -> None:
        self._logger.info("event %s %s", event.name, self._format_attrs(event.attrs))

    def on_metrics(self, registry: MetricsRegistry) -> None:
        for name, value in sorted(registry.as_dict().items()):
            self._logger.info("metric %s=%s", name, value)
