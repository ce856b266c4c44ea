"""Skew and straggler attribution from per-node timelines.

The simulator's cost formula charges every super-step at the pace of
its slowest node (see ``docs/simulator.md``), so imbalance — skewed
partitions, injected stragglers — turns directly into barrier wait.
:func:`analyze_skew` quantifies that: per-node load shares, the
max/mean load ratio, the Gini coefficient of busy time, each node's
apparent slowdown (its effective seconds-per-unit against the fastest
node), and the speedup a perfectly rebalanced partitioning would buy.

Input is a :class:`~repro.pregel.metrics.NodeTimeline`, either taken
live from ``RunStats.node_timeline`` (build with ``node_timeline=True``)
or rebuilt from an exported trace's ``pregel.node`` events
(:attr:`repro.telemetry.reader.Trace.node_timeline`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.pregel.metrics import NodeTimeline

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


@dataclass(frozen=True)
class SuperstepSkew:
    """Imbalance metrics for one super-step occurrence."""

    superstep: int
    max_mean_ratio: float
    gini: float
    slowest_node: int


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
    per_superstep: list[SuperstepSkew] = field(default_factory=list)

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
    """Compute whole-run and per-super-step imbalance metrics.

    *Busy* time is compute plus communication — the work a node would
    keep under any partitioning; barrier wait is the imbalance cost.
    The rebalance estimate replays every super-step with its busy time
    spread evenly over the nodes (barrier latency unchanged), which is
    the best any partitioner could do without changing the algorithm.
    """
    groups = timeline.supersteps()
    totals = timeline.node_totals()
    busy = [entry["busy_seconds"] for entry in totals]
    total_busy = sum(busy)
    mean_busy = total_busy / max(1, len(busy))
    lane_time = sum(entry["total_seconds"] for entry in totals)
    total_wait = sum(entry["barrier_wait_seconds"] for entry in totals)

    # Apparent slowdown: effective seconds-per-unit vs the fastest node.
    rates = [
        entry["compute_seconds"] / entry["units"] if entry["units"] else None
        for entry in totals
    ]
    measured = [rate for rate in rates if rate is not None and rate > 0]
    base_rate = min(measured) if measured else None
    slowdowns = [
        rate / base_rate if rate is not None and base_rate else 1.0
        for rate in rates
    ]

    loads = [
        NodeLoad(
            node=entry["node"],
            units=entry["units"],
            compute_seconds=entry["compute_seconds"],
            comm_seconds=entry["comm_seconds"],
            barrier_wait_seconds=entry["barrier_wait_seconds"],
            busy_seconds=entry["busy_seconds"],
            busy_share=entry["busy_seconds"] / total_busy if total_busy else 0.0,
            wait_share=(
                entry["barrier_wait_seconds"] / entry["total_seconds"]
                if entry["total_seconds"]
                else 0.0
            ),
            apparent_slowdown=slowdowns[entry["node"]],
        )
        for entry in totals
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

    per_superstep = []
    actual = 0.0
    ideal = 0.0
    for group in groups:
        group_busy = [piece.busy_seconds for piece in group]
        group_mean = sum(group_busy) / max(1, len(group_busy))
        group_max = max(group_busy, default=0.0)
        barrier = group[0].barrier_seconds if group else 0.0
        actual += group_max + barrier
        ideal += group_mean + barrier
        per_superstep.append(
            SuperstepSkew(
                superstep=group[0].superstep if group else 0,
                max_mean_ratio=group_max / group_mean if group_mean else 1.0,
                gini=_gini(group_busy),
                slowest_node=max(
                    group, key=lambda piece: piece.busy_seconds
                ).node
                if group
                else 0,
            )
        )

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
        per_superstep=per_superstep,
    )
