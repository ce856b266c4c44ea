"""``repro.observe`` — every view of the one event stream.

Everything here reads a :class:`~repro.telemetry.reader.Trace` (or the
requests one holds); the stream itself, and the request-tracing slot
the serving path writes to, are :mod:`repro.telemetry`.

- :mod:`repro.observe.report` — the ``repro trace`` text report: the
  skew report, top spans, the critical path, request overviews, bench
  cell tables and super-step rows;
- :mod:`repro.observe.skew` — per-node load attribution over a
  :class:`~repro.telemetry.reader.NodeTimeline`: imbalance metrics
  (max/mean load ratio, Gini coefficient, barrier-wait share),
  straggler and hot-partition nodes, and the speedup perfect
  rebalancing would buy;
- :mod:`repro.observe.export` — Chrome trace-event JSON (one "process"
  per simulated node; load it in Perfetto or ``chrome://tracing``)
  and folded stacks for flamegraphs (``repro trace --chrome-trace`` /
  ``--flamegraph``);
- :mod:`repro.observe.serve_report` — ``ServeReport``, what one
  serving run measured, built by one constructor for the server and
  for the dashboard;
- :mod:`repro.observe.dashboard` — the ``repro top`` model: the run's
  ``ServeReport`` tallied from a ``Trace``, plus shard traffic, lag
  peaks, per-window traffic and worst traces, rendered as text or as
  one JSON snapshot (``repro top --once --json``).

Nothing here imports from :mod:`repro.serve`; the serving pipeline
imports *this* package for its ``ServeReport``, keeping the dependency
one-way.  The package loads nothing: import each module by its path.
"""
