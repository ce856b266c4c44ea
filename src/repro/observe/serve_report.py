"""What one serving run measured: :class:`ServeReport`.

:meth:`ServeReport.from_tally` is its one constructor.  The server
tallies a run as it serves it, the dashboard from the ``serve.request``
records the server emitted; both hand their counts and latencies here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence


def sorted_percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of pre-sorted raw samples (0.0 when
    empty)."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1, round(fraction * (len(sorted_values) - 1))))
    return sorted_values[rank]


@dataclass(frozen=True)
class ServeReport:
    """Everything one serving run measured (all seconds simulated)."""

    mode: str
    offered: int = 0
    served: int = 0
    shed: int = 0
    deadline_dropped: int = 0
    positives: int = 0
    batches: int = 0
    queue_peak: int = 0
    makespan_seconds: float = 0.0
    mean_seconds: float = 0.0
    p50_seconds: float = 0.0
    p99_seconds: float = 0.0
    p999_seconds: float = 0.0
    max_seconds: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_invalidated: int = 0
    cache_evictions: int = 0
    shard_loads: list[int] = field(default_factory=list)
    shard_skew: float = 1.0
    degraded: bool = False
    fallback_queries: int = 0
    failed: int = 0
    failovers: int = 0
    replica_timeouts: int = 0
    hedges_won: int = 0
    stale_reads: int = 0
    confirmed_reads: int = 0
    forced_catchups: int = 0
    replication_lag: int = 0
    replicas_down: int = 0
    mutations_offered: int = 0
    mutations_applied: int = 0
    mutations_noop: int = 0
    mutations_rejected: int = 0
    mutations_shed: int = 0
    mutation_p50_seconds: float = 0.0
    mutation_p99_seconds: float = 0.0
    mutation_max_seconds: float = 0.0
    staleness_window_seconds: float = 0.0

    @classmethod
    def from_tally(
        cls,
        mode: str,
        latencies: list[float],
        write_latencies: list[float],
        **counts,
    ) -> "ServeReport":
        """The report over a run's counts (any other fields, by name;
        zero when absent) and the latencies of its served reads and of
        its executed writes, both sorted here in place."""
        latencies.sort()
        write_latencies.sort()
        return cls(
            mode=mode,
            mean_seconds=sum(latencies) / len(latencies) if latencies else 0.0,
            p50_seconds=sorted_percentile(latencies, 0.50),
            p99_seconds=sorted_percentile(latencies, 0.99),
            p999_seconds=sorted_percentile(latencies, 0.999),
            max_seconds=latencies[-1] if latencies else 0.0,
            mutation_p50_seconds=sorted_percentile(write_latencies, 0.50),
            mutation_p99_seconds=sorted_percentile(write_latencies, 0.99),
            mutation_max_seconds=write_latencies[-1] if write_latencies else 0.0,
            **counts,
        )

    @property
    def throughput(self) -> float:
        """Served queries per simulated second of makespan."""
        if not self.makespan_seconds:
            return 0.0
        return self.served / self.makespan_seconds

    @property
    def availability(self) -> float:
        """Served over offered (1.0 when nothing was offered).

        Sheds, deadline drops, and failed requests all count against
        availability — the client got no answer either way.
        """
        if not self.offered:
            return 1.0
        return self.served / self.offered

    @property
    def cache_hit_rate(self) -> float:
        """Hits over cache lookups (0.0 without a cache)."""
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    @property
    def update_throughput(self) -> float:
        """Applied mutations per simulated second of makespan."""
        if not self.makespan_seconds:
            return 0.0
        return self.mutations_applied / self.makespan_seconds

    def summary(self) -> str:
        """Multi-line human-readable report."""
        lines = [
            f"{self.mode} run: {self.offered} offered, {self.served} served, "
            f"{self.shed} shed, {self.deadline_dropped} past deadline"
            + (f", {self.failed} failed" if self.failed else ""),
            f"  throughput {self.throughput:,.0f} q/s over "
            f"{self.makespan_seconds:.3e} s (queue peak {self.queue_peak}, "
            f"{self.batches} batches)",
            f"  latency p50 {self.p50_seconds:.2e}s  p99 {self.p99_seconds:.2e}s  "
            f"p999 {self.p999_seconds:.2e}s  max {self.max_seconds:.2e}s",
        ]
        if self.mutations_offered:
            lines.append(
                f"  writes: {self.mutations_offered} offered, "
                f"{self.mutations_applied} applied, {self.mutations_noop} no-op, "
                f"{self.mutations_rejected} rejected, {self.mutations_shed} shed "
                f"({self.update_throughput:,.0f} u/s, "
                f"write p99 {self.mutation_p99_seconds:.2e}s, "
                f"staleness window {self.staleness_window_seconds:.2e}s)"
            )
        if self.cache_hits or self.cache_misses:
            lines.append(
                f"  cache: {self.cache_hit_rate:.1%} hit rate "
                f"({self.cache_hits} hits / {self.cache_misses} misses, "
                f"{self.cache_invalidated} invalidated, "
                f"{self.cache_evictions} evicted)"
            )
        if self.shard_loads:
            lines.append(
                f"  shards: load skew {self.shard_skew:.2f} "
                f"(max/mean over {len(self.shard_loads)} shards)"
            )
        if self.failovers or self.replica_timeouts or self.replicas_down:
            lines.append(
                f"  replicas: {self.failovers} failover(s), "
                f"{self.replica_timeouts} timed-out reads, "
                f"{self.replicas_down} down at end "
                f"(availability {self.availability:.2%})"
            )
        if self.stale_reads or self.confirmed_reads:
            lines.append(
                f"  staleness: {self.stale_reads} guarded stale reads, "
                f"{self.confirmed_reads} leader-confirmed"
            )
        if self.degraded:
            lines.append(
                f"  DEGRADED: {self.fallback_queries} queries served by "
                f"online-BFS fallback"
            )
        return "\n".join(lines)
