"""The ``repro top`` dashboard: one serving run at a glance.

Builds a :class:`DashboardModel` from a
:class:`~repro.telemetry.reader.Trace` — the ``serve.request`` events
written by :class:`~repro.serve.pipeline.QueryServer` under a telemetry
session — and renders it as a live-refreshing console dashboard or a
single JSON snapshot (``--once --json``) for scripting.

The run totals are a :class:`~repro.observe.serve_report.ServeReport`
built by the server's own constructor from counts tallied off the
records — reads by outcome, writes (records with an ``op``) by their
``mutation`` stage's status, the makespan as the last completion of
any request — so it equals the run's report on every field a trace
carries.  Each window is the same tally over the requests that arrived
in it; windows and worst traces count reads only, as the report does.
Beside the report the model keeps what it cannot hold: shard traffic
and stage counts, and lag peaks.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass, field

from repro.observe.serve_report import ServeReport
from repro.telemetry.reader import Trace
from repro.telemetry.spans import RequestTrace
from repro.telemetry.tracing import SERVER_STAGES

#: Default number of windows the run's span is divided into.
DEFAULT_WINDOW_COUNT = 12

#: Weight of the newest window in a row's ``ewma_rate``.
_RATE_EWMA_ALPHA = 0.3


@dataclass
class WindowRow:
    """One dashboard window: traffic and tail latency."""

    index: int
    start: float
    end: float
    offered: int = 0
    served: int = 0
    shed: int = 0
    deadline_dropped: int = 0
    p99_seconds: float = 0.0
    rate: float = 0.0           # served per simulated second
    ewma_rate: float = 0.0

    def to_dict(self) -> dict:
        return asdict(self)


#: A read's terminal outcome -> the ServeReport count it lands in.
_OUTCOMES = {
    "served": "served",
    "shed": "shed",
    "deadline": "deadline_dropped",
    "error": "failed",
}


def _tally(
    requests: list[RequestTrace], failovers: int = 0
) -> tuple[ServeReport, list[float]]:
    """The :class:`ServeReport` the request records carry, and the
    sorted latencies of the served reads.  What records do not carry —
    batches, queue peak, cache churn, per-shard loads, replica health,
    the staleness window — stays zero."""
    counts: Counter[str] = Counter()
    latencies: list[float] = []
    write_latencies: list[float] = []
    makespan = 0.0
    for request in requests:
        makespan = max(makespan, request.arrival + request.latency_seconds)
        stages = {stage.get("stage"): stage for stage in request.stages}
        if request.op is not None:
            counts["mutations_offered"] += 1
            counts["mutations_shed"] += request.outcome == "shed"
            if request.outcome == "served":
                write_latencies.append(request.latency_seconds)
            status = stages.get("mutation", {}).get("status")
            if status in ("applied", "noop", "rejected"):
                counts[f"mutations_{status}"] += 1
            continue
        counts["offered"] += 1
        if request.outcome in _OUTCOMES:
            counts[_OUTCOMES[request.outcome]] += 1
        if request.outcome == "served":
            latencies.append(request.latency_seconds)
        cache = stages.get("cache")
        if cache is not None:
            counts["cache_hits" if cache.get("hit") else "cache_misses"] += 1
        store = stages.get("store", {})
        counts["hedges_won"] += bool(store.get("hedge_won"))
        counts["positives"] += bool(stages.get("backend", {}).get("answer"))
        counts["confirmed_reads"] += "confirm" in stages
        counts["forced_catchups"] += "catchup" in stages
        # A guarded stale read: the store served from a lagging
        # follower and monotonicity proved no confirmation needed.
        counts["stale_reads"] += bool(store.get("lag")) and not (
            "confirm" in stages or "catchup" in stages
        )
    report = ServeReport.from_tally(
        "trace",
        latencies,
        write_latencies,
        makespan_seconds=makespan,
        failovers=failovers,
        **counts,
    )
    return report, latencies


@dataclass
class DashboardModel:
    """Everything ``repro top`` shows, computed once from a trace:
    the run's :class:`ServeReport` as its request records carry it,
    and what a report cannot hold."""

    requests: list[RequestTrace]
    runs: int
    report: ServeReport
    latencies: list[float]  # served reads, sorted
    store_fetches: int
    remote_fetches: int
    shard_loads: dict[int, int]
    stage_counts: dict[str, int]
    traced_fraction: float
    windows: list[WindowRow]
    worst: list[RequestTrace]
    # Replicator lag peaks, from the replica.lag events.
    replication_lag_peak: int = 0
    group_lag_peaks: dict[str, int] = field(default_factory=dict)

    # -- construction --------------------------------------------------
    @classmethod
    def from_trace(
        cls,
        trace: Trace,
        *,
        run: int | None = None,
        window_seconds: float | None = None,
        slowest: int = 5,
    ) -> "DashboardModel":
        """Build the model from a trace.

        ``run`` selects the n-th serving run in the trace (1-based, in
        order of appearance) when one trace holds several — e.g.
        serve-bench's cached and uncached rows; the default aggregates
        them all.  A run is the ``serve.run`` span its requests — and
        its failover and lag events — were emitted under.
        """
        requests = trace.requests
        failovers = trace.events("serve.failover")
        # Replicator lag samples: the store emits one replica.lag event
        # whenever the worst follower lag changes, carrying per-group
        # lags; the dashboard keeps the peaks.
        lag_samples = trace.events("replica.lag")
        run_ids = list(dict.fromkeys(request.run for request in requests))
        if run is not None:
            if not 1 <= run <= len(run_ids):
                raise ValueError(
                    f"trace holds {len(run_ids)} serving run(s); "
                    f"--run {run} is out of range"
                )
            wanted = run_ids[run - 1]
            requests = [r for r in requests if r.run == wanted]
            failovers = [e for e in failovers if e.get("span") == wanted]
            lag_samples = [e for e in lag_samples if e.get("span") == wanted]
            runs = 1
        else:
            runs = len(run_ids)
        replication_lag_peak = 0
        group_lag_peaks: dict[str, int] = {}
        for sample in lag_samples:
            attrs = sample.get("attrs", {})
            replication_lag_peak = max(replication_lag_peak, attrs.get("lag", 0))
            for group, lag in (attrs.get("groups") or {}).items():
                group_lag_peaks[group] = max(group_lag_peaks.get(group, 0), lag)

        report, latencies = _tally(requests, len(failovers))
        reads = [r for r in requests if r.op is None]
        served_reads = [r for r in reads if r.outcome == "served"]
        stages = [stage for r in requests for stage in r.stages]
        stores = [stage for stage in stages if stage.get("stage") == "store"]
        fully_traced = sum(
            set(SERVER_STAGES) <= set(r.stage_names()) for r in served_reads
        )
        worst = sorted(
            served_reads, key=lambda r: (-r.latency_seconds, r.trace_id)
        )[: max(slowest, 0)]
        return cls(
            requests=requests,
            runs=runs,
            report=report,
            latencies=latencies,
            store_fetches=len(stores),
            remote_fetches=sum(fetch.get("remote") is not None for fetch in stores),
            shard_loads=Counter(
                shard
                for fetch in stores
                for shard in (fetch.get("home"), fetch.get("remote"))
                if shard is not None
            ),
            stage_counts=Counter(stage.get("stage", "?") for stage in stages),
            traced_fraction=_share(fully_traced, report.served),
            windows=cls._build_windows(
                reads, report.makespan_seconds, window_seconds
            ),
            worst=worst,
            replication_lag_peak=replication_lag_peak,
            group_lag_peaks=dict(sorted(group_lag_peaks.items())),
        )

    @staticmethod
    def _build_windows(
        requests: list[RequestTrace],
        makespan: float,
        window_seconds: float | None,
    ) -> list[WindowRow]:
        if not requests or makespan <= 0:
            return []
        start = min(r.arrival for r in requests)
        span = makespan - start
        if span <= 0:
            return []
        if window_seconds is None or window_seconds <= 0:
            window_seconds = span / DEFAULT_WINDOW_COUNT
            count = DEFAULT_WINDOW_COUNT
        elif span / window_seconds > len(requests):
            raise ValueError(
                f"--window {window_seconds:g} s cuts the run's {span:.3e} s "
                f"into more windows than its {len(requests)} requests"
            )
        else:
            count = max(1, -(-span // window_seconds).__int__())
            # Rounding can put the last cut at or past the makespan.
            while count > 1 and start + (count - 1) * window_seconds >= makespan:
                count -= 1
        cuts = [start + i * window_seconds for i in range(count)] + [makespan]
        rows = [
            WindowRow(index=i, start=cuts[i], end=cuts[i + 1])
            for i in range(count)
        ]
        buckets: list[list[RequestTrace]] = [[] for _ in rows]
        for request in requests:
            i = min(int((request.arrival - start) / window_seconds), count - 1)
            buckets[i].append(request)
        previous_end = start
        ewma_rate = None
        for row, bucket in zip(rows, buckets):
            report, _ = _tally(bucket)
            row.offered = report.offered
            row.served = report.served
            row.shed = report.shed
            row.deadline_dropped = report.deadline_dropped
            row.p99_seconds = report.p99_seconds
            duration = row.end - previous_end
            previous_end = row.end
            if duration > 0:
                row.rate = row.served / duration
                ewma_rate = (
                    row.rate
                    if ewma_rate is None
                    else _RATE_EWMA_ALPHA * row.rate
                    + (1 - _RATE_EWMA_ALPHA) * ewma_rate
                )
            # An instantaneous window has no rate and must not drag the
            # EWMA toward zero: the row keeps 0.0 and the last average.
            row.ewma_rate = ewma_rate or 0.0
        return rows

    # -- output --------------------------------------------------------
    def to_json(self) -> dict:
        """The ``repro top --once --json`` payload."""
        report = self.report
        return {
            "runs": self.runs,
            "offered": report.offered,
            "served": report.served,
            "shed": report.shed,
            "deadline_dropped": report.deadline_dropped,
            "failed": report.failed,
            "failovers": report.failovers,
            "positives": report.positives,
            "makespan_seconds": report.makespan_seconds,
            "throughput": report.throughput,
            "p50_seconds": report.p50_seconds,
            "p99_seconds": report.p99_seconds,
            "p999_seconds": report.p999_seconds,
            "max_seconds": report.max_seconds,
            "hit_rate": report.cache_hit_rate,
            "cache_hits": report.cache_hits,
            "cache_misses": report.cache_misses,
            "shed_rate": _share(report.shed, report.offered),
            **(  # a trace with writes: the report's write half
                {k: v for k, v in vars(report).items() if k.startswith("mutation")}
                if report.mutations_offered
                else {}
            ),
            "store_fetches": self.store_fetches,
            "remote_fetches": self.remote_fetches,
            "shard_loads": {
                str(shard): count
                for shard, count in sorted(self.shard_loads.items())
            },
            "stage_counts": dict(sorted(self.stage_counts.items())),
            "traced_fraction": self.traced_fraction,
            "replication": {
                "confirmed_reads": report.confirmed_reads,
                "stale_reads": report.stale_reads,
                "forced_catchups": report.forced_catchups,
                "hedges_won": report.hedges_won,
                "lag_peak": self.replication_lag_peak,
                "group_lag_peaks": dict(self.group_lag_peaks),
            },
            "windows": [w.to_dict() for w in self.windows],
            "worst": [
                {
                    "trace_id": r.trace_id,
                    "source": r.source,
                    "target": r.target,
                    "latency_seconds": r.latency_seconds,
                    "stages": list(r.stages),
                }
                for r in self.worst
            ],
        }

    def render(self) -> str:
        """The console dashboard."""
        report = self.report
        offered = report.offered
        shed_rate = _share(report.shed, offered)
        lines = [
            f"serve dashboard — {offered} requests"
            + (f" across {self.runs} runs" if self.runs > 1 else ""),
            f"  throughput {report.throughput:,.0f} q/s over "
            f"{report.makespan_seconds:.3e} s",
            f"  served {report.served}/{offered} "
            f"({1 - shed_rate - _share(report.deadline_dropped, offered):.1%})"
            f"   shed {report.shed} ({shed_rate:.1%})"
            f"   deadline {report.deadline_dropped}"
            + (f"   failed {report.failed}" if report.failed else "")
            + (f"   failovers {report.failovers}" if report.failovers else ""),
            f"  latency p50 {report.p50_seconds:.2e}s  "
            f"p99 {report.p99_seconds:.2e}s  "
            f"p999 {report.p999_seconds:.2e}s  "
            f"max {report.max_seconds:.2e}s",
        ]
        if report.mutations_offered:
            lines.append(
                f"  writes {report.mutations_offered}: "
                f"{report.mutations_applied} applied, "
                f"{report.mutations_noop} no-op, "
                f"{report.mutations_rejected} rejected, "
                f"{report.mutations_shed} shed  "
                f"write p99 {report.mutation_p99_seconds:.2e}s"
            )
        if report.cache_hits or report.cache_misses:
            lines.append(
                f"  cache {report.cache_hit_rate:.1%} hit "
                f"({report.cache_hits} hits / {report.cache_misses} misses)"
            )
        if self.shard_loads:
            loads = [
                f"s{shard}:{count}"
                for shard, count in sorted(self.shard_loads.items())
            ]
            lines.append(
                f"  shards: {self.store_fetches} fetches "
                f"({self.remote_fetches} remote)  " + " ".join(loads)
            )
        if (
            report.confirmed_reads
            or report.stale_reads
            or report.forced_catchups
            or report.hedges_won
            or self.replication_lag_peak
        ):
            groups = " ".join(
                f"g{group}:{lag}"
                for group, lag in sorted(self.group_lag_peaks.items())
            )
            lines.append(
                f"  replication: lag peak {self.replication_lag_peak}"
                + (f" ({groups})" if groups else "")
                + f"  confirmed {report.confirmed_reads}"
                f"  stale {report.stale_reads}"
                f"  catchups {report.forced_catchups}"
                f"  hedges won {report.hedges_won}"
            )
        lines.append(f"  traced: {self.traced_fraction:.1%} of served requests")

        if self.windows:
            lines.append("")
            lines.append(
                f"Windows ({len(self.windows)} x "
                f"{self.windows[0].end - self.windows[0].start:.2e} s)"
            )
            lines.append("    # |  served |    shed |      q/s |      p99")
            for row in self.windows:
                lines.append(
                    f"  {row.index:>3d} | {row.served:>7d} | {row.shed:>7d} | "
                    f"{row.rate:>8.2e} | {row.p99_seconds:>8.2e}"
                )

        if self.worst:
            lines.append("")
            lines.append("Worst requests")
            for request in self.worst:
                lines.append("  " + format_request(request))
        return "\n".join(lines)


def _share(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def format_request(request: RequestTrace) -> str:
    """One request with its per-stage breakdown, as a single line."""
    stages = []
    for stage in request.stages:
        extras = [
            f"{key}={value}"
            for key, value in stage.items()
            if key not in ("stage", "seconds")
        ]
        text = f"{stage.get('stage', '?')} {stage.get('seconds', 0.0):.2e}s"
        if extras:
            text += " (" + " ".join(extras) + ")"
        stages.append(text)
    head = (
        f"{request.trace_id}  q({request.source},{request.target})  "
        f"{request.outcome}"
    )
    if request.reason:
        head += f"[{request.reason}]"
    head += f"  latency {request.latency_seconds:.2e}s"
    if stages:
        head += "  |  " + " -> ".join(stages)
    return head
