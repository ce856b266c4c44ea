"""Exception types shared across the library, the two checks that
refuse a malformed count or duration where a setting comes in, and the
one that refuses a vertex id outside an index where a query comes in."""

from __future__ import annotations

import math
import operator


def check_count(
    name: str, value, minimum: int = 1, error: type[Exception] = ValueError
) -> int:
    """``value`` as an ``int`` when ``operator.index`` takes it and it is
    at least ``minimum``; otherwise raises ``error`` naming ``name`` —
    ``2.5``, ``nan`` and ``"8"`` are not counts."""
    try:
        count = operator.index(value)
    except TypeError:
        count = None
    if count is None or count < minimum:
        raise error(f"{name} must be an integer >= {minimum}, got {value!r}")
    return count


def check_seconds(
    name: str, value, positive: bool = False, error: type[Exception] = ValueError
) -> float:
    """``value`` when it is a finite number ``>= 0`` (``> 0`` with
    ``positive``); otherwise raises ``error`` naming ``name``.  A NaN
    compares false with everything, so an unchecked one never fires a
    deadline or delivers an op."""
    try:
        ok = math.isfinite(value) and (value > 0 if positive else value >= 0)
    except TypeError:
        ok = False
    if not ok:
        bound = "> 0" if positive else ">= 0"
        raise error(f"{name} must be a finite number {bound}, got {value!r}")
    return value


def check_vertex(v: int, n: int) -> int:
    """``v`` when it names one of an index's ``n`` vertices; otherwise
    raises :class:`ReproError`.  A negative id would count from the end
    of a row list and answer for another vertex."""
    if not 0 <= v < n:
        raise ReproError(f"vertex {v} is outside the index (0..{n - 1})")
    return v


class ReproError(Exception):
    """Base class for all library-specific errors."""


class OutOfMemoryError(ReproError):
    """A (simulated) computation node exceeded its memory budget.

    Mirrors the paper's "-" entries in Table VI: centralized algorithms
    cannot index graphs that do not fit on a single machine.
    """

    def __init__(self, required_bytes: int, budget_bytes: int, what: str = "run"):
        self.required_bytes = required_bytes
        self.budget_bytes = budget_bytes
        super().__init__(
            f"{what} needs {required_bytes / 2**30:.2f} GiB but the node "
            f"budget is {budget_bytes / 2**30:.2f} GiB"
        )


class ShardOutOfMemoryError(OutOfMemoryError):
    """One label shard's data exceeded its per-shard memory budget.

    Raised with everything an operator needs to act on: *which* shard
    overflowed, how many bytes it attempted to hold, what the budget
    was, and how the shard got that big (vertices / label entries) —
    instead of only GiB-rounded totals that read as "0.00 GiB" for
    small test budgets.
    """

    def __init__(
        self,
        shard_id: int,
        attempted_bytes: int,
        budget_bytes: int,
        vertices: int = 0,
        entries: int = 0,
    ):
        self.shard_id = shard_id
        self.attempted_bytes = attempted_bytes
        self.budget_bytes = budget_bytes
        self.vertices = vertices
        self.entries = entries
        # Skip OutOfMemoryError.__init__: its message rounds to GiB,
        # which loses the actual numbers for small budgets.  Keep its
        # attribute contract so existing handlers work unchanged.
        self.required_bytes = attempted_bytes
        ReproError.__init__(
            self,
            f"label shard {shard_id} needs {attempted_bytes:,} bytes "
            f"({vertices} vertices, {entries} label entries) but the "
            f"per-shard budget is {budget_bytes:,} bytes; rebalance the "
            f"partitioner or add shards",
        )


class ShardUnavailableError(ReproError):
    """Every replica of a label shard is down; the read cannot be served.

    The serving pipeline catches this per request (the request is
    counted as failed, not served) so one lost shard degrades
    availability instead of crashing the server.
    """

    def __init__(self, shard_id: int, replicas: int):
        self.shard_id = shard_id
        self.replicas = replicas
        super().__init__(
            f"all {replicas} replica(s) of label shard {shard_id} are "
            f"unavailable"
        )


class IndexAuditError(ReproError):
    """A maintained index differs from a from-scratch rebuild.

    Raised by :meth:`DynamicReachabilityIndex.check
    <repro.core.dynamic.DynamicReachabilityIndex.check>` with the first
    vertex and direction (``"in"`` / ``"out"``) whose label set is off,
    or, with ``backward``, the first hub whose backward label set
    ``L⁻`` is not the inversion of the label rows.
    """

    def __init__(self, vertex: int, direction: str, live, expected, backward: bool = False):
        self.vertex = vertex
        self.direction = direction
        self.backward = backward
        self.live = sorted(live)
        self.expected = sorted(expected)
        if backward:
            message = f"L⁻_{direction}({vertex}) is {self.live} but the label rows give"
        else:
            message = f"L_{direction}({vertex}) is {self.live} but a rebuild under the current order gives"
        super().__init__(f"{message} {self.expected}")


class WriteAbortedError(ReproError):
    """A write to a :class:`~repro.core.dynamic.DynamicReachabilityIndex`
    raised part-way and was rolled back: its label rows, edges, order
    and vertex flags are as they were before it, and no listener heard
    of it.  The error it raised is the ``__cause__``."""

    def __init__(self, op: str, u: int, v: int):
        self.op, self.u, self.v = op, u, v
        super().__init__(f"{op} ({u}, {v}) raised part-way and was rolled back")


class IndexFormatError(ReproError, ValueError):
    """An index file is not one, is truncated, has trailing bytes, or
    does not match its checksum (raised by ``ReachabilityIndex.load``)."""


class GraphFormatError(ReproError, ValueError):
    """A graph file is malformed: an edge-list row with a non-integer,
    negative or out-of-range id or fewer than two columns (named by
    ``path:line``), or text that is not UTF-8."""


class TimeLimitExceeded(ReproError):
    """The simulated cut-off time (paper: 2 hours) was exceeded.

    Mirrors the paper's "INF" entries.
    """

    def __init__(self, elapsed_seconds: float, limit_seconds: float):
        self.elapsed_seconds = elapsed_seconds
        self.limit_seconds = limit_seconds
        super().__init__(
            f"simulated time {elapsed_seconds:.1f}s exceeded the "
            f"cut-off of {limit_seconds:.1f}s"
        )
