"""The flight recorder: a bounded ring buffer over the event stream.

Production systems keep a *black box*: an always-on, bounded recorder
whose contents only matter in the seconds before something went wrong.
:class:`FlightRecorder` is that box for the simulated serving stack: a
**sink** on the telemetry stream like any other (join a run with
:func:`repro.telemetry.attached`).  Every event the run emits —
``serve.request`` terminals, store/replica lifecycle events (crash,
suspicion, failover, recovery), replicator lag samples — is appended as
one plain dict on the **serving clock** (the event's ``at`` attr), and
two retention bounds evict from the front:

- ``window_seconds`` — keep only the last N simulated seconds
  (time-based retention, the "black box keeps the last 30 minutes"
  contract);
- ``max_bytes`` — a hard byte budget on the JSON-encoded records, so
  a chatty run cannot grow the recorder without bound.  The budget is
  an invariant, not a hint: after every append the buffer is evicted
  back under it.

Records carry a monotonically increasing ``id`` so an incident bundle
can cite exact evidence (``dropped`` counts what eviction discarded —
a bundle knows when its history was truncated).  Listeners observe
every record as it lands; the trigger engine
(:mod:`repro.observe.incident.triggers`) is such a listener.

Nothing here imports from :mod:`repro.serve` — the serving layer emits
into the stream, where the recorder listens: the dependency is one-way.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Callable

from repro.telemetry.sinks import SpanSink
from repro.telemetry.spans import TraceEvent

#: Default byte budget: generous for a scenario run (a few thousand
#: request records), small next to the label store itself.
DEFAULT_MAX_BYTES = 1 << 20


def _encoded_size(record: dict) -> int:
    """Bytes the record costs against the budget (compact JSON)."""
    return len(json.dumps(record, separators=(",", ":"), default=str))


class FlightRecorder(SpanSink):
    """Bounded in-memory recording of the unified serving event stream.

    Parameters
    ----------
    window_seconds:
        Keep only records whose ``at`` is within this many simulated
        seconds of the newest record (``None``: no time bound).
    max_bytes:
        Hard budget on the summed compact-JSON size of buffered
        records; the oldest records are evicted to stay under it.
    """

    def __init__(
        self,
        window_seconds: float | None = None,
        max_bytes: int = DEFAULT_MAX_BYTES,
    ):
        if window_seconds is not None and window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        if max_bytes < 1:
            raise ValueError("max_bytes must be positive")
        self.window_seconds = window_seconds
        self.max_bytes = max_bytes
        self.clock = 0.0
        #: Records evicted (or too large to ever fit) since start.
        self.dropped = 0
        #: Records ever offered to the recorder.
        self.recorded = 0
        self.bytes_used = 0
        self._buffer: deque[tuple[dict, int]] = deque()
        self._next_id = 1
        self._listeners: list[Callable[[dict], None]] = []

    # ------------------------------------------------------------------
    def add_listener(self, listener: Callable[[dict], None]) -> None:
        """Call ``listener(record)`` for every record as it lands."""
        self._listeners.append(listener)

    def record(self, event: str, at: float, **attrs) -> dict:
        """Append one event on the serving clock; returns the record."""
        record = {"id": self._next_id, "at": at, "event": event}
        record.update(attrs)
        self._next_id += 1
        self.recorded += 1
        if at > self.clock:
            self.clock = at
        size = _encoded_size(record)
        self._buffer.append((record, size))
        self.bytes_used += size
        self._evict()
        for listener in self._listeners:
            listener(record)
        return record

    def on_event(self, event: TraceEvent) -> None:
        """The sink protocol's one override: the box keeps events,
        flattened — ``at`` leaves the attrs to stamp the record on the
        serving clock (an event without one lands at the current clock)."""
        self.record(event.name, **{"at": self.clock, **event.attrs})

    # ------------------------------------------------------------------
    def _evict(self) -> None:
        """Restore both retention invariants by dropping from the front."""
        buffer = self._buffer
        while buffer and self.bytes_used > self.max_bytes:
            _, size = buffer.popleft()
            self.bytes_used -= size
            self.dropped += 1
        if self.window_seconds is not None:
            horizon = self.clock - self.window_seconds
            while buffer and buffer[0][0]["at"] < horizon:
                _, size = buffer.popleft()
                self.bytes_used -= size
                self.dropped += 1

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._buffer)

    def events(self) -> list[dict]:
        """The buffered records, oldest first (copies, safe to mutate)."""
        return [dict(record) for record, _ in self._buffer]

    def snapshot(self) -> dict:
        """A self-contained dump of the buffer plus retention metadata."""
        return {
            "recorded": self.recorded,
            "dropped": self.dropped,
            "bytes_used": self.bytes_used,
            "max_bytes": self.max_bytes,
            "window_seconds": self.window_seconds,
            "clock": self.clock,
            "events": self.events(),
        }
