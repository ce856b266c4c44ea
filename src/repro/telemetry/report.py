"""Summaries of exported JSONL traces (the ``repro trace`` command).

A trace file is a sequence of JSON records (see
``docs/observability.md``): finished spans, point-in-time events, and
the session's final metric snapshots.  :func:`summarize_trace` turns
one into the analyst's view of a run:

- **top spans** by total simulated seconds, aggregated by name;
- **bench cell tables** — one per experiment tag, reconstructing the
  comp/comm split of Fig. 5 (or the timing grid of any other
  experiment) from the spans alone;
- a **super-step table** for the run with the most super-steps;
- **histogram percentiles** and counter/gauge values.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

from repro.bench.results import Cell, ExperimentTable
from repro.observe.dashboard import (
    RequestRecord,
    format_request,
    requests_from_records,
)
from repro.telemetry.metrics import percentile_from_record


class TraceReadError(ValueError):
    """The trace file is missing or not valid JSONL."""


class TraceRecords(list):
    """The records of a trace file plus a log of skipped lines.

    A plain ``list`` of record dicts, so every existing consumer works
    unchanged; ``skipped`` holds one ``"path:lineno: reason"`` string
    per malformed line that was tolerated (truncated tails, partial
    writes from a killed run, stray text).
    """

    def __init__(self, records=(), skipped: list[str] | None = None):
        super().__init__(records)
        self.skipped: list[str] = skipped if skipped is not None else []


def read_trace(path: str | Path) -> TraceRecords:
    """Load the records of a JSONL trace file, tolerating bad lines.

    Malformed lines (invalid JSON, or JSON that is not a trace record)
    are skipped and logged in the returned :class:`TraceRecords`'
    ``skipped`` list — a truncated export from a killed run still
    summarizes.  Raises :class:`TraceReadError` only when the file
    contains no valid record at all, which means it is not a trace
    file (or an empty one) rather than a damaged one.
    """
    records = TraceRecords()
    with Path(path).open("r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                records.skipped.append(f"{path}:{lineno}: not JSON: {exc}")
                continue
            if not isinstance(record, dict) or "kind" not in record:
                records.skipped.append(f"{path}:{lineno}: not a trace record")
                continue
            records.append(record)
    if not records and records.skipped:
        raise TraceReadError(
            f"{path}: no valid trace records "
            f"({len(records.skipped)} malformed line(s); first: "
            f"{records.skipped[0]})"
        )
    return records


# ----------------------------------------------------------------------
# Section builders
# ----------------------------------------------------------------------
def top_spans_section(records: list[dict], top: int = 15) -> str:
    """Span names ranked by total simulated seconds."""
    totals: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    for record in records:
        if record["kind"] != "span":
            continue
        entry = totals[record["name"]]
        entry[0] += 1
        entry[1] += record.get("simulated_seconds", 0.0)
        entry[2] += record.get("wall_seconds", 0.0)
    ranked = sorted(totals.items(), key=lambda kv: kv[1][1], reverse=True)
    width = max([len(name) for name, _ in ranked[:top]] + [len("Name")])
    title = "Top spans by simulated time"
    lines = [title, "=" * len(title)]
    lines.append(
        f"{'Name'.ljust(width)} | {'count':>6} | {'simulated s':>12} | "
        f"{'wall s':>10}"
    )
    lines.append("-" * len(lines[-1]))
    for name, (count, simulated, wall) in ranked[:top]:
        lines.append(
            f"{name.ljust(width)} | {count:>6d} | {simulated:>12.6f} | "
            f"{wall:>10.6f}"
        )
    return "\n".join(lines)


def bench_cell_tables(records: list[dict]) -> list[ExperimentTable]:
    """Rebuild per-experiment comp/comm grids from ``bench.cell`` spans.

    Uses the same split as the harness: *comp* is computation plus
    barrier seconds, *comm* is communication seconds, so the rendered
    numbers match the experiment's own table.
    """
    by_experiment: dict[str, list[dict]] = defaultdict(list)
    for record in records:
        if record["kind"] == "span" and record["name"] == "bench.cell":
            experiment = record["attrs"].get("experiment", "?")
            by_experiment[experiment].append(record)
    tables = []
    for experiment in sorted(by_experiment):
        cells = by_experiment[experiment]
        methods: list[str] = []
        for record in cells:
            method = record["attrs"].get("method", "?")
            if method not in methods:
                methods.append(method)
        columns = []
        for method in methods:
            columns += [f"{method} comp", f"{method} comm"]
        table = ExperimentTable(
            f"Experiment {experiment} — comp/comm per cell (simulated s)",
            columns,
        )
        for record in cells:
            attrs = record["attrs"]
            dataset = attrs.get("dataset", "?")
            method = attrs.get("method", "?")
            if record.get("status", "ok") != "ok":
                table.set(dataset, f"{method} comp", Cell.timeout())
                table.set(dataset, f"{method} comm", Cell.timeout())
                continue
            comp = attrs.get("computation_seconds", 0.0) + attrs.get(
                "barrier_seconds", 0.0
            )
            table.set(dataset, f"{method} comp", comp)
            table.set(
                dataset, f"{method} comm", attrs.get("communication_seconds", 0.0)
            )
        tables.append(table)
    return tables


def superstep_table(records: list[dict], limit: int = 20) -> ExperimentTable | None:
    """Super-step rows of the longest run (by super-step events)."""
    by_span: dict[int | None, list[dict]] = defaultdict(list)
    for record in records:
        if record["kind"] == "event" and record["name"] == "pregel.superstep":
            by_span[record.get("span")].append(record)
    if not by_span:
        return None
    events = max(by_span.values(), key=len)
    columns = ["active", "units", "max node units", "remote msgs",
               "remote bytes", "broadcast bytes"]
    shown = min(len(events), limit)
    table = ExperimentTable(
        f"Super-steps of the longest run ({shown} of {len(events)} shown)",
        columns,
        precision=0,
    )
    for event in events[:limit]:
        attrs = event["attrs"]
        row = str(attrs.get("superstep", "?"))
        table.set(row, "active", float(attrs.get("active_vertices", 0)))
        table.set(row, "units", float(attrs.get("compute_units", 0)))
        table.set(row, "max node units", float(attrs.get("max_node_units", 0)))
        table.set(row, "remote msgs", float(attrs.get("remote_messages", 0)))
        table.set(row, "remote bytes", float(attrs.get("remote_bytes", 0)))
        table.set(row, "broadcast bytes", float(attrs.get("broadcast_bytes", 0)))
    return table


def requests_overview_section(records: list[dict]) -> str | None:
    """Outcome counts over the trace's ``serve.request`` events."""
    requests = requests_from_records(records)
    if not requests:
        return None
    outcomes: dict[str, int] = defaultdict(int)
    reasons: dict[str, int] = defaultdict(int)
    for request in requests:
        outcomes[request.outcome] += 1
        if request.reason:
            reasons[request.reason] += 1
    title = "Request traces"
    lines = [title, "=" * len(title)]
    lines.append(
        f"{len(requests)} traced requests: "
        + ", ".join(f"{count} {name}" for name, count in sorted(outcomes.items()))
    )
    if reasons:
        lines.append(
            "drop reasons: "
            + ", ".join(f"{count} {name}" for name, count in sorted(reasons.items()))
        )
    lines.append("(drill down with `repro top`, `repro trace --slowest N`, "
                 "or `repro trace --trace-id ID`)")
    return "\n".join(lines)


def slowest_requests_section(records: list[dict], n: int) -> str | None:
    """The ``n`` worst served request traces, per-stage breakdown."""
    requests = [
        request
        for request in requests_from_records(records)
        if request.outcome == "served"
    ]
    if not requests:
        return None
    requests.sort(key=lambda r: (-r.latency_seconds, r.trace_id))
    shown = requests[: max(n, 0)]
    title = f"Slowest {len(shown)} request(s)"
    lines = [title, "=" * len(title)]
    lines.extend(format_request(request) for request in shown)
    return "\n".join(lines)


def find_request_traces(records: list[dict], trace_id: str) -> list[RequestRecord]:
    """The ``serve.request`` events matching one trace ID exactly."""
    return [
        request
        for request in requests_from_records(records)
        if request.trace_id == trace_id
    ]


def metrics_lines(records: list[dict]) -> list[str]:
    """Human-readable lines for every exported metric record."""
    lines = []
    for record in records:
        if record["kind"] != "metric":
            continue
        name = record["name"]
        if record["metric"] == "histogram":
            count = record.get("count", 0)
            if not count:
                lines.append(f"{name}: histogram, no observations")
                continue
            mean = record.get("sum", 0.0) / count
            lines.append(
                f"{name}: count={count} mean={mean:.3e} "
                f"p50={percentile_from_record(record, 0.50):.3e} "
                f"p95={percentile_from_record(record, 0.95):.3e} "
                f"p99={percentile_from_record(record, 0.99):.3e} "
                f"max={record.get('max') or 0.0:.3e}"
            )
        else:
            lines.append(f"{name}: {record['value']}")
    return lines


def summarize_trace(
    records: list[dict], top: int = 15, superstep_limit: int = 20
) -> str:
    """The full text summary printed by ``repro trace``."""
    spans = sum(1 for r in records if r["kind"] == "span")
    events = sum(1 for r in records if r["kind"] == "event")
    metrics = sum(1 for r in records if r["kind"] == "metric")
    sections = [
        f"{len(records)} records: {spans} spans, {events} events, "
        f"{metrics} metrics"
    ]
    if spans:
        sections.append(top_spans_section(records, top=top))
    overview = requests_overview_section(records)
    if overview is not None:
        sections.append(overview)
    sections.extend(table.render() for table in bench_cell_tables(records))
    steps = superstep_table(records, limit=superstep_limit)
    if steps is not None:
        sections.append(steps.render())
    lines = metrics_lines(records)
    if lines:
        sections.append("Metrics\n=======\n" + "\n".join(lines))
    return "\n\n".join(sections)
