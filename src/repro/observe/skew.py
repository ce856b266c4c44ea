"""Skew and straggler attribution from per-node timelines.

The simulator's cost formula charges every super-step at the pace of
its slowest node (see ``docs/simulator.md``), so imbalance — skewed
partitions, injected stragglers — turns directly into barrier wait.
:func:`analyze_skew` quantifies that: per-node load shares, the
max/mean load ratio, the Gini coefficient of busy time, each node's
apparent slowdown (its effective seconds-per-unit against the fastest
node), and the speedup a perfectly rebalanced partitioning would buy.

Input is a :class:`~repro.telemetry.reader.NodeTimeline`, which
:attr:`repro.telemetry.reader.Trace.node_timeline` rebuilds from a
run's ``pregel.node`` events — a live ``Trace(sink.records)`` of an
:class:`~repro.telemetry.sinks.InMemorySink` or an exported trace file.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.telemetry.reader import NodeTimeline

#: A node whose apparent slowdown exceeds this names it a straggler.
STRAGGLER_THRESHOLD = 1.5

#: A run whose max/mean busy ratio stays below this is "balanced".
BALANCED_THRESHOLD = 1.2


@dataclass(frozen=True)
class NodeLoad:
    """One node's aggregate load across a whole timeline."""

    node: int
    units: int
    compute_seconds: float
    comm_seconds: float
    barrier_wait_seconds: float
    busy_seconds: float
    #: This node's fraction of the cluster's total busy seconds.
    busy_share: float
    #: Fraction of this node's lane spent idle at barriers.
    wait_share: float
    #: Effective seconds-per-unit against the fastest node (1.0 means
    #: hardware-identical; an injected ``straggler=NxF`` shows ~F here).
    apparent_slowdown: float


@dataclass
class SkewReport:
    """Whole-run imbalance metrics (see :func:`analyze_skew`)."""

    num_nodes: int
    supersteps: int
    node_loads: list[NodeLoad]
    #: max over nodes of busy seconds / mean over nodes.
    max_mean_ratio: float
    #: Gini coefficient of per-node busy seconds (0 = equal).
    gini: float
    #: Cluster-wide fraction of lane time lost to barrier waits.
    barrier_wait_share: float
    #: ``(node, apparent_slowdown)`` above the straggler threshold,
    #: worst first.
    stragglers: list[tuple[int, float]] = field(default_factory=list)
    #: The worst straggler, or ``None`` when none crosses the threshold.
    dominant_straggler: int | None = None
    #: The node carrying the largest share of busy time.
    hot_node: int | None = None
    #: Estimated run-time factor recovered by perfectly rebalancing
    #: every super-step's busy time (>= 1.0).
    rebalance_speedup: float = 1.0

    @property
    def balanced(self) -> bool:
        """True when no straggler is named and load is near-uniform."""
        return (
            self.dominant_straggler is None
            and self.max_mean_ratio < BALANCED_THRESHOLD
        )

    def render(self) -> str:
        """Human-readable skew report."""
        title = "Skew report"
        lines = [title, "=" * len(title)]
        lines.append(
            f"{self.num_nodes} nodes, {self.supersteps} super-steps; "
            f"max/mean load ratio {self.max_mean_ratio:.2f}, "
            f"Gini {self.gini:.3f}, "
            f"barrier-wait share {self.barrier_wait_share:.1%}"
        )
        if self.dominant_straggler is not None:
            named = ", ".join(
                f"node {node} ({slowdown:.1f}x)"
                for node, slowdown in self.stragglers
            )
            lines.append(f"stragglers: {named}")
        elif self.balanced:
            lines.append("load is near-balanced; no straggler detected")
        if self.hot_node is not None:
            hot = self.node_loads[self.hot_node]
            lines.append(
                f"hot partition: node {self.hot_node} "
                f"({hot.busy_share:.1%} of busy time, {hot.units} units)"
            )
        if self.rebalance_speedup > 1.005:
            lines.append(
                f"perfect rebalancing would speed the run up "
                f"{self.rebalance_speedup:.2f}x"
            )
        header = (
            f"{'node':>4} | {'units':>10} | {'compute s':>11} | "
            f"{'comm s':>11} | {'wait s':>11} | {'busy %':>7} | "
            f"{'wait %':>7} | {'slowdown':>8}"
        )
        lines += ["", header, "-" * len(header)]
        for load in self.node_loads:
            lines.append(
                f"{load.node:>4} | {load.units:>10d} | "
                f"{load.compute_seconds:>11.6f} | "
                f"{load.comm_seconds:>11.6f} | "
                f"{load.barrier_wait_seconds:>11.6f} | "
                f"{load.busy_share:>7.1%} | {load.wait_share:>7.1%} | "
                f"{load.apparent_slowdown:>8.2f}"
            )
        return "\n".join(lines)


def _gini(values: list[float]) -> float:
    """Gini coefficient of a non-negative sample (0 = perfectly equal)."""
    total = sum(values)
    n = len(values)
    if n < 2 or total <= 0:
        return 0.0
    ordered = sorted(values)
    # Σᵢ Σⱼ |xᵢ-xⱼ| / (2 n Σx), via the sorted-prefix identity.
    weighted = sum((2 * i - n + 1) * x for i, x in enumerate(ordered))
    return weighted / (n * total)


def analyze_skew(timeline: NodeTimeline) -> SkewReport:
    """Compute whole-run imbalance metrics.

    *Busy* time is compute plus communication — the work a node would
    keep under any partitioning; barrier wait is the imbalance cost.
    The rebalance estimate replays every super-step with its busy time
    spread evenly over the nodes (barrier latency unchanged), which is
    the best any partitioner could do without changing the algorithm.
    """
    # Per node: units, compute, comm, barrier-wait, busy and lane seconds.
    sums = [[0, 0.0, 0.0, 0.0, 0.0, 0.0] for _ in range(timeline.num_nodes)]
    for piece in timeline.slices:
        row = sums[piece.node]
        row[0] += piece.units
        row[1] += piece.compute_seconds
        row[2] += piece.comm_seconds
        row[3] += piece.barrier_wait_seconds
        row[4] += piece.busy_seconds
        row[5] += piece.total_seconds
    busy = [row[4] for row in sums]
    total_busy = sum(busy)
    mean_busy = total_busy / max(1, len(busy))
    lane_time = sum(row[5] for row in sums)
    total_wait = sum(row[3] for row in sums)

    # Apparent slowdown: effective seconds-per-unit vs the fastest node.
    rates = [row[1] / row[0] if row[0] else None for row in sums]
    measured = [rate for rate in rates if rate is not None and rate > 0]
    base_rate = min(measured) if measured else None

    loads = [
        NodeLoad(
            node=node,
            units=units,
            compute_seconds=compute,
            comm_seconds=comm,
            barrier_wait_seconds=wait,
            busy_seconds=node_busy,
            busy_share=node_busy / total_busy if total_busy else 0.0,
            wait_share=wait / lane if lane else 0.0,
            apparent_slowdown=(
                rates[node] / base_rate
                if rates[node] is not None and base_rate
                else 1.0
            ),
        )
        for node, (units, compute, comm, wait, node_busy, lane) in enumerate(sums)
    ]

    stragglers = sorted(
        (
            (load.node, load.apparent_slowdown)
            for load in loads
            if load.apparent_slowdown >= STRAGGLER_THRESHOLD
        ),
        key=lambda pair: pair[1],
        reverse=True,
    )

    groups = timeline.supersteps()
    actual = 0.0
    ideal = 0.0
    for group in groups:
        group_busy = [piece.busy_seconds for piece in group]
        barrier = group[0].barrier_seconds
        actual += max(group_busy) + barrier
        ideal += sum(group_busy) / len(group_busy) + barrier

    return SkewReport(
        num_nodes=timeline.num_nodes,
        supersteps=len(groups),
        node_loads=loads,
        max_mean_ratio=max(busy, default=0.0) / mean_busy if mean_busy else 1.0,
        gini=_gini(busy),
        barrier_wait_share=total_wait / lane_time if lane_time else 0.0,
        stragglers=stragglers,
        dominant_straggler=stragglers[0][0] if stragglers else None,
        hot_node=(
            max(loads, key=lambda load: load.busy_seconds).node
            if loads and total_busy > 0
            else None
        ),
        rebalance_speedup=actual / ideal if ideal else 1.0,
    )
