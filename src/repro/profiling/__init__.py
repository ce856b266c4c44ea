"""``repro.profiling`` — analysis on top of :mod:`repro.telemetry`.

The telemetry layer records what happened (spans and events);
this package answers *why a run was slow*:

- :mod:`~repro.profiling.skew` — per-node load attribution over a
  :class:`~repro.pregel.metrics.NodeTimeline`: imbalance metrics
  (max/mean load ratio, Gini coefficient, barrier-wait share),
  straggler and hot-partition nodes, and the speedup perfect
  rebalancing would buy;
- :mod:`~repro.profiling.export` — standard-format exporters: Chrome
  trace-event JSON (one "process" per simulated node; load it in
  Perfetto or ``chrome://tracing``) and folded stacks for flamegraphs.

Both are views over a :class:`~repro.telemetry.reader.Trace` with no
instrumentation of their own; the ``repro profile`` text report sits
beside ``repro trace``'s in :mod:`repro.telemetry.report`.
"""

from __future__ import annotations

from repro.profiling.export import (
    chrome_trace,
    folded_stacks,
    write_chrome_trace,
    write_folded_stacks,
)
from repro.profiling.skew import (
    NodeLoad,
    SkewReport,
    SuperstepSkew,
    analyze_skew,
)

__all__ = [
    "NodeLoad",
    "SkewReport",
    "SuperstepSkew",
    "analyze_skew",
    "chrome_trace",
    "folded_stacks",
    "write_chrome_trace",
    "write_folded_stacks",
]
