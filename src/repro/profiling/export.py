"""Standard-format exporters for a :class:`~repro.telemetry.reader.Trace`.

Two targets, both derived from an existing ``--trace-out`` file:

- :func:`chrome_trace` — the Chrome trace-event JSON format, loadable
  in Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``.  The
  driver's real spans become one wall-clock process (pid 0); every
  simulated node becomes its own process whose lane replays the BSP
  timeline (compute / comm / wait / barrier slices per super-step, on
  the simulated clock); fault intervals (recovery, replays,
  checkpoints) land on a separate cluster lane.  Wall timestamps are ``perf_counter``
  readings, normalized to the earliest span start so the trace begins
  at zero.
- :func:`folded_stacks` — folded-stack lines (``a;b;c value``) for
  flamegraph tooling, one line per distinct span path, weighted by
  *self* simulated time in integer nanoseconds.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

from repro.telemetry.reader import Trace

#: pid of the wall-clock driver process in the Chrome trace.
DRIVER_PID = 0

_MICRO = 1e6
_FAULT_EVENTS = ("pregel.fault", "pregel.recovery", "pregel.checkpoint")


def chrome_trace(trace: Trace) -> dict:
    """Convert a trace to a Chrome trace-event JSON object.

    Returns ``{"traceEvents": [...], "displayTimeUnit": "ms"}``.  The
    per-node lanes replay :attr:`Trace.node_timeline`; traces exported
    without per-node telemetry still get the wall-clock process, whose
    spans and fault markers keep the order they arrived in.  Durations
    are microseconds (fractional — simulated super-steps are routinely
    sub-microsecond).
    """
    events: list[dict] = []
    records = trace.records
    # The earliest wall timestamp in the trace is the common zero.
    zero = min(
        [r["start"] for r in trace.spans]
        + [r["wall"] for r in records if r["kind"] == "event" and "wall" in r],
        default=0.0,
    )

    events.append(
        {
            "name": "process_name",
            "ph": "M",
            "pid": DRIVER_PID,
            "tid": 0,
            "args": {"name": "driver (wall clock)"},
        }
    )
    for record in records:
        kind = record["kind"]
        if kind == "span":
            events.append(
                {
                    "name": record["name"],
                    "ph": "X",
                    "pid": DRIVER_PID,
                    "tid": 0,
                    "ts": (record["start"] - zero) * _MICRO,
                    "dur": record.get("wall_seconds", 0.0) * _MICRO,
                    "args": {
                        "id": record.get("id"),
                        "parent": record.get("parent"),
                        "status": record.get("status", "ok"),
                        "simulated_seconds": record.get(
                            "simulated_seconds", 0.0
                        ),
                        **record.get("attrs", {}),
                    },
                }
            )
        elif kind == "event" and record["name"] in _FAULT_EVENTS:
            events.append(
                {
                    "name": record["name"],
                    "ph": "i",
                    "s": "g",
                    "pid": DRIVER_PID,
                    "tid": 0,
                    "ts": (record.get("wall", zero) - zero) * _MICRO,
                    "args": dict(record.get("attrs", {})),
                }
            )

    timeline = trace.node_timeline
    if timeline is not None:
        for node in range(timeline.num_nodes):
            events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": node + 1,
                    "tid": 0,
                    "args": {"name": f"node {node} (simulated)"},
                }
            )
        cursor = 0.0
        for group in timeline.supersteps():
            span = group[0].total_seconds if group else 0.0
            for piece in group:
                offset = cursor
                for phase, seconds in (
                    ("compute", piece.compute_seconds),
                    ("comm", piece.comm_seconds),
                    ("wait", piece.barrier_wait_seconds),
                    ("barrier", piece.barrier_seconds),
                ):
                    if seconds > 0:
                        events.append(
                            {
                                "name": phase,
                                "ph": "X",
                                "pid": piece.node + 1,
                                "tid": 0,
                                "ts": offset * _MICRO,
                                "dur": seconds * _MICRO,
                                "args": {
                                    "superstep": piece.superstep,
                                    "units": piece.units,
                                    "recv_bytes": piece.recv_bytes,
                                    "slowdown": piece.slowdown,
                                },
                            }
                        )
                    offset += seconds
            cursor += span
        if timeline.intervals:
            cluster_pid = timeline.num_nodes + 1
            events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": cluster_pid,
                    "tid": 0,
                    "args": {"name": "cluster (faults, simulated)"},
                }
            )
            for interval in timeline.intervals:
                events.append(
                    {
                        "name": interval.kind,
                        "ph": "X",
                        "pid": cluster_pid,
                        "tid": 0,
                        "ts": cursor * _MICRO,
                        "dur": interval.seconds * _MICRO,
                        "args": {
                            "superstep": interval.superstep,
                            "nodes": list(interval.nodes),
                        },
                    }
                )
                cursor += interval.seconds
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(trace: Trace, path: str | Path) -> None:
    """Write :func:`chrome_trace` output as JSON to ``path``."""
    Path(path).write_text(
        json.dumps(chrome_trace(trace)) + "\n", encoding="utf-8"
    )


def folded_stacks(trace: Trace) -> list[str]:
    """Folded-stack lines for flamegraph tooling.

    One ``parent;child;leaf value`` line per distinct span path, where
    the value is the path's *self* simulated time (total minus the
    children's totals) in integer nanoseconds — nanoseconds, because
    simulated super-steps are far below the microsecond flamegraph
    tools usually assume.  Sorted for deterministic output.
    """
    spans = {record["id"]: record for record in trace.spans}
    children_sim: dict[int | None, float] = defaultdict(float)
    for record in spans.values():
        children_sim[record.get("parent")] += record.get(
            "simulated_seconds", 0.0
        )

    def stack_of(record: dict) -> str:
        names = [record["name"]]
        seen = {record["id"]}
        parent = record.get("parent")
        while parent in spans and parent not in seen:
            seen.add(parent)
            record = spans[parent]
            names.append(record["name"])
            parent = record.get("parent")
        return ";".join(reversed(names))

    weights: dict[str, int] = defaultdict(int)
    for span_id, record in spans.items():
        self_sim = record.get("simulated_seconds", 0.0) - children_sim.get(
            span_id, 0.0
        )
        value = round(max(0.0, self_sim) * 1e9)
        if value > 0:
            weights[stack_of(record)] += value
    return [f"{stack} {value}" for stack, value in sorted(weights.items())]


def write_folded_stacks(trace: Trace, path: str | Path) -> None:
    """Write :func:`folded_stacks` lines to ``path``."""
    lines = folded_stacks(trace)
    Path(path).write_text(
        "\n".join(lines) + ("\n" if lines else ""), encoding="utf-8"
    )
