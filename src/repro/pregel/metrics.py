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
    idle time spent waiting for slower nodes in both phases (plus any
    retransmission cost charged to the super-step as a whole), which is
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
    slowdown: float = 1.0

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

    Fault accounting (see :mod:`repro.faults`): the work counters
    (``compute_units``, messages, bytes) describe *committed*
    progress only, so they match a fault-free run of the same program.
    Everything a fault costs on top — discarded super-step attempts,
    checkpoint replay, failover detection, checkpoint restore I/O — is
    isolated in ``recovery_seconds``; periodic checkpoint writes land in
    ``checkpoint_seconds``.  Both are part of ``simulated_seconds``.

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
    checkpoint_seconds: float = 0.0
    recovery_seconds: float = 0.0
    checkpoints: int = 0
    crashes: int = 0
    messages_lost: int = 0
    messages_duplicated: int = 0
    per_node_units: list[int] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def simulated_seconds(self) -> float:
        """Total simulated time, fault overhead included (computation +
        communication + barriers + checkpointing + recovery)."""
        return (
            self.computation_seconds
            + self.communication_seconds
            + self.barrier_seconds
            + self.checkpoint_seconds
            + self.recovery_seconds
        )

    @property
    def total_messages(self) -> int:
        """All messages, local and remote."""
        return self.local_messages + self.remote_messages

    def merge(self, other: "RunStats") -> "RunStats":
        """Accumulate another phase's stats into this one (in place).

        ``num_nodes`` must agree — merging runs from differently sized
        clusters would make ``per_node_units`` and the max-per-node time
        formula meaningless.  A pristine accumulator (no work recorded
        yet) adopts ``other``'s node count instead.
        """
        if other.num_nodes != self.num_nodes:
            if self.supersteps == 0 and not self.per_node_units:
                self.num_nodes = other.num_nodes
            else:
                raise ValueError(
                    f"cannot merge stats from a {other.num_nodes}-node run "
                    f"into a {self.num_nodes}-node accumulator"
                )
        self.supersteps += other.supersteps
        self.compute_units += other.compute_units
        self.local_messages += other.local_messages
        self.remote_messages += other.remote_messages
        self.remote_bytes += other.remote_bytes
        self.broadcast_bytes += other.broadcast_bytes
        self.computation_seconds += other.computation_seconds
        self.communication_seconds += other.communication_seconds
        self.barrier_seconds += other.barrier_seconds
        self.checkpoint_seconds += other.checkpoint_seconds
        self.recovery_seconds += other.recovery_seconds
        self.checkpoints += other.checkpoints
        self.crashes += other.crashes
        self.messages_lost += other.messages_lost
        self.messages_duplicated += other.messages_duplicated
        self.wall_seconds += other.wall_seconds
        if len(self.per_node_units) < len(other.per_node_units):
            self.per_node_units.extend(
                [0] * (len(other.per_node_units) - len(self.per_node_units))
            )
        for node, units in enumerate(other.per_node_units):
            self.per_node_units[node] += units
        return self

    def summary(self) -> str:
        """One-line human-readable summary."""
        text = (
            f"{self.simulated_seconds:.3f}s simulated "
            f"({self.computation_seconds:.3f}s comp, "
            f"{self.communication_seconds:.3f}s comm, "
            f"{self.barrier_seconds:.3f}s barrier) over "
            f"{self.supersteps} supersteps on {self.num_nodes} nodes; "
            f"{self.compute_units} units, "
            f"{self.remote_messages}/{self.total_messages} remote msgs"
        )
        if self.crashes or self.checkpoints:
            text += (
                f"; {self.crashes} crash(es), {self.checkpoints} "
                f"checkpoint(s), {self.recovery_seconds:.3f}s recovery, "
                f"{self.checkpoint_seconds:.3f}s checkpointing"
            )
        return text
