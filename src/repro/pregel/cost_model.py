"""Cost model for the simulated cluster.

The paper runs on 32 MPI nodes (Xeon 2.7 GHz, 32 GB).  We replace wall
clocks with a deterministic cost model: every algorithm *counts* its
work (compute units, bytes crossing node boundaries, super-steps) and
the model converts counts into **simulated seconds**:

    time = Σ_supersteps [ max_node(compute_units) · t_op
                          + max_node(remote_recv_bytes) · t_byte
                          + broadcast_bytes · t_byte · (nodes > 1)
                          + t_barrier ]

Centralized algorithms are charged ``total_units · t_op`` with no
barrier or byte costs.  Constants are calibrated to commodity hardware
(≈40 M graph operations/s per core, ≈1 GiB/s effective network, ≈0.3 ms
per MPI barrier); all comparisons in the paper are ratios, which do not
depend on the constants.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import OutOfMemoryError, TimeLimitExceeded

GIB = 2**30


@dataclass(frozen=True)
class CostModel:
    """Converts work counts into simulated seconds.

    Attributes
    ----------
    t_op:
        Seconds per compute unit (one message handled, one edge scanned,
        one label-entry comparison).
    t_byte:
        Seconds per byte received over the network by one node.
    t_barrier:
        Seconds per super-step synchronisation barrier.
    t_hop:
        Seconds per *serialized* cross-node hop (token passing in a
        distributed DFS cannot be batched, unlike BSP messages).
    message_bytes:
        Wire size of one vertex-to-vertex message (the paper's messages
        carry ``{ID, order}``).
    entry_bytes:
        Wire/size unit for one label or inverted-list entry.
    node_memory_bytes:
        Per-node memory budget (the paper's machines have 32 GB).
    time_limit_seconds:
        Simulated cut-off (the paper uses 2 hours); ``None`` disables.
    """

    t_op: float = 2.5e-8
    t_byte: float = 1.0e-9
    t_barrier: float = 3.0e-4
    t_hop: float = 2.0e-6
    message_bytes: int = 16
    entry_bytes: int = 8
    node_memory_bytes: int = 32 * GIB
    time_limit_seconds: float | None = 7200.0

    def with_time_limit(self, seconds: float | None) -> "CostModel":
        """Copy of the model with a different cut-off."""
        return replace(self, time_limit_seconds=seconds)

    def check_memory(self, required_bytes: int, what: str = "run") -> None:
        """Raise :class:`OutOfMemoryError` when the budget is exceeded."""
        if required_bytes > self.node_memory_bytes:
            raise OutOfMemoryError(required_bytes, self.node_memory_bytes, what)

    def check_time(self, elapsed_seconds: float) -> None:
        """Raise :class:`TimeLimitExceeded` past the cut-off."""
        limit = self.time_limit_seconds
        if limit is not None and elapsed_seconds > limit:
            raise TimeLimitExceeded(elapsed_seconds, limit)


#: Shared default instance for code paths that accept an optional
#: :class:`CostModel`.  Query backends and the serving layer all fall
#: back to this one object, so mixed-backend evaluations (serve-bench,
#: Table VI) are guaranteed to charge under the same constants
#: unless a caller explicitly passes a different model.
DEFAULT_COST_MODEL = CostModel()


def mpi_cluster_model(**overrides) -> CostModel:
    """The default distributed-cluster model (paper's Exp setup)."""
    return replace(CostModel(), **overrides)


#: Simulated cut-off for the scaled experiments (stands in for the
#: paper's 2-hour limit; our stand-in graphs are ~10³× smaller).
SCALED_CUTOFF_SECONDS = 0.06


def paper_scale_model(**overrides) -> CostModel:
    """Cost model for the paper-reproduction benchmarks.

    The stand-in graphs are roughly three orders of magnitude smaller
    than the paper's, so the fixed per-super-step barrier cost and the
    cut-off are scaled down consistently (otherwise barrier overhead —
    negligible at billion-edge scale — would dominate every comparison
    and invert the paper's shapes).
    """
    defaults = dict(
        t_barrier=2.0e-6,
        t_hop=2.0e-7,
        time_limit_seconds=SCALED_CUTOFF_SECONDS,
    )
    defaults.update(overrides)
    return replace(CostModel(), **defaults)


def shared_memory_model(**overrides) -> CostModel:
    """Cost model for the multi-core variant DRL_b^M (Exp 3).

    Threads exchange data through shared memory, so bytes are free and
    barriers are two orders of magnitude cheaper than MPI barriers; the
    memory budget stays that of a *single* machine.
    """
    defaults = dict(t_byte=0.0, t_barrier=3.0e-6)
    defaults.update(overrides)
    return replace(CostModel(), **defaults)
