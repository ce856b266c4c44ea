"""Run statistics collected by the cluster engine."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field


@dataclass(frozen=True)
class NodeSlice:
    """One node's share of one super-step (a ``pregel.node`` event).

    BSP phases are sequential — compute, then communicate, then the
    barrier — so every node's slice spans the same interval and the
    identity ``compute + comm + barrier_wait + barrier`` is constant
    across the nodes of a super-step.  ``barrier_wait_seconds`` is the
    idle time spent waiting for slower nodes in both phases, which is
    what the skew analyzer attributes to stragglers and hot partitions.
    """

    superstep: int
    node: int
    units: int
    compute_seconds: float
    comm_seconds: float
    barrier_wait_seconds: float
    barrier_seconds: float
    recv_bytes: int

    @property
    def busy_seconds(self) -> float:
        """Time this node actually worked (compute + communication)."""
        return self.compute_seconds + self.comm_seconds

    @property
    def total_seconds(self) -> float:
        """Wall span of the super-step on this node (same for all nodes)."""
        return (
            self.compute_seconds
            + self.comm_seconds
            + self.barrier_wait_seconds
            + self.barrier_seconds
        )

    def to_dict(self) -> dict:
        """Plain-dict view (``pregel.node`` telemetry event payload)."""
        return asdict(self)


@dataclass
class RunStats:
    """Work and cost accounting for one cluster run.

    ``computation_seconds`` and ``communication_seconds`` are the two
    bar segments of the paper's Fig. 5; their sum (plus barriers) is the
    *index time* reported in Table VI and Figs. 6-9.

    Per-super-step rows and per-node lanes are not kept here: a run
    emits them as ``pregel.*`` events, which
    :class:`repro.telemetry.reader.Trace` reads back (``events`` and
    :attr:`~repro.telemetry.reader.Trace.node_timeline`).
    """

    num_nodes: int = 1
    supersteps: int = 0
    compute_units: int = 0
    local_messages: int = 0
    remote_messages: int = 0
    remote_bytes: int = 0
    broadcast_bytes: int = 0
    computation_seconds: float = 0.0
    communication_seconds: float = 0.0
    barrier_seconds: float = 0.0
    per_node_units: list[int] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def simulated_seconds(self) -> float:
        """Total simulated time: computation + communication + barriers."""
        return (
            self.computation_seconds
            + self.communication_seconds
            + self.barrier_seconds
        )

    @property
    def total_messages(self) -> int:
        """All messages, local and remote."""
        return self.local_messages + self.remote_messages

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.simulated_seconds:.3f}s simulated "
            f"({self.computation_seconds:.3f}s comp, "
            f"{self.communication_seconds:.3f}s comm, "
            f"{self.barrier_seconds:.3f}s barrier) over "
            f"{self.supersteps} supersteps on {self.num_nodes} nodes; "
            f"{self.compute_units} units, "
            f"{self.remote_messages}/{self.total_messages} remote msgs"
        )
