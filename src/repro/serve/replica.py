"""Bounded-staleness replication: the row-delta log and follower tables.

:class:`~repro.serve.store.ShardedLabelStore` keeps ``replicas`` copies
of every shard and owns routing, health and failover; this module is
what makes those copies *lag*.  With a
:class:`BoundedStalenessReplicator`, writes go to the *leader*
:class:`~repro.core.dynamic.DynamicReachabilityIndex` (replica group 0
serves reads straight from it).  Replication is **physical**: a log
entry carries the label rows its op changed and a follower group is a
:class:`LabelTable` — rows only, no graph, no order — that installs
them after a delivery delay, so a follower may serve an index that is
a few updates behind.  Correctness survives because reachability
under single-edge updates is **monotone**: an insert can
only flip answers ``False → True`` and a delete only ``True → False``.
At read time the store checks the follower's pending (undelivered)
ops; if the stale answer is on the side an in-flight op could flip —
``False`` with pending inserts, or ``True`` with pending deletes — the
read is **confirmed** against the leader (one extra hop, counted in
``confirmed_reads``).  Every other stale read is provably equal to the
leader's current answer.  Hence the scenario library's flagship
assertion: *zero incorrect answers, even during failover under a write
burst*.  A follower whose lag exceeds :attr:`BoundedStalenessReplicator.max_lag`
is force-caught-up before serving (charged per op), which bounds how
much confirmation traffic a slow follower can generate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from repro.core.labels import ReachabilityIndex
from repro.errors import check_count, check_seconds
from repro.serve.store import ShardedLabelStore


class LogEntry(NamedTuple):
    """One applied leader update and the label rows it changed: vertex
    → the row the op left it with, for exactly the rows that differ."""

    op: str
    u: int
    v: int
    issued_at: float
    in_rows: dict[int, frozenset[int]]
    out_rows: dict[int, frozenset[int]]


@dataclass(slots=True)
class LabelTable:
    """A follower's copy of the index: label rows and nothing else.
    Rows are immutable ``frozenset`` objects shared with the log; applying
    an entry swaps row pointers, it never re-runs maintenance."""

    in_labels: list
    out_labels: list

    @property
    def num_vertices(self) -> int:
        """Rows installed so far (``add_node`` appends one)."""
        return len(self.out_labels)

    def query(self, s: int, t: int) -> bool:
        """``q(s, t)`` as of the last installed log entry."""
        return not self.out_labels[s].isdisjoint(self.in_labels[t])

    def snapshot(self) -> ReachabilityIndex:
        """An immutable index of the rows currently installed."""
        return ReachabilityIndex.from_label_lists(self.in_labels, self.out_labels)

    def install(self, in_rows: dict, out_rows: dict) -> None:
        """Install one log entry's rows."""
        for labels, rows in ((self.in_labels, in_rows), (self.out_labels, out_rows)):
            for w, row in rows.items():
                # Replaces row w, or appends it (add_node: w == len).
                labels[w : w + 1] = (row,)


class BoundedStalenessReplicator:
    """Versioned row-delta log between a leader index and follower tables.

    Parameters
    ----------
    leader:
        The authoritative :class:`~repro.core.dynamic.DynamicReachabilityIndex`.
        Writes must go through it; the replicator subscribes to its
        update hook, so any applied update is logged automatically.
        Replica group 0 serves reads straight from the leader.
    num_replicas:
        Total replica groups, including the leader's group 0.
    delay_seconds:
        Delivery delay: an update issued at simulated second ``T``
        becomes visible to followers at ``T + delay_seconds``.
    max_lag:
        A follower more than this many ops behind is caught up
        *before* serving a read (charged ``apply_seconds_per_op`` per
        op) — the bounded-staleness guarantee.
    apply_seconds_per_op:
        Simulated cost of applying one logged op during a forced
        catch-up.

    The replicator does not own a clock; callers set :attr:`clock`
    (via :meth:`note_time`) before applying leader updates so each op's
    issue time is recorded on the serving timeline.
    """

    def __init__(
        self,
        leader,
        num_replicas: int,
        delay_seconds: float = 2e-3,
        max_lag: int = 64,
        apply_seconds_per_op: float = 1e-5,
    ):
        self.leader = leader
        self.num_replicas = check_count("num_replicas", num_replicas)
        self.delay_seconds = check_seconds("delay_seconds", delay_seconds)
        self.max_lag = check_count("max_lag", max_lag)
        self.apply_seconds_per_op = check_seconds(
            "apply_seconds_per_op", apply_seconds_per_op
        )
        self.clock = 0.0
        #: One :class:`LogEntry` per applied leader update, in order.
        self.log: list[LogEntry] = []
        self.forced_catchups = 0
        self.catchup_ops = 0
        # One frozen copy of the leader's rows; followers start as pointer
        # copies of it (no build).
        in_rows = [frozenset(row) for row in leader.in_labels]
        out_rows = [frozenset(row) for row in leader.out_labels]
        self._followers: list = [None] + [  # group 0 reads the leader
            LabelTable(list(in_rows), list(out_rows))
            for _ in range(1, num_replicas)
        ]
        self._applied = [0] * num_replicas
        #: Bumped whenever the log grows or a group's position moves:
        #: equal counts mean equal lags.
        self.changes = 0
        #: The earliest instant :meth:`advance` can deliver anything
        #: (``inf`` while no follower has an op pending), as of the last
        #: :meth:`advance`; an append since then shows in :attr:`changes`.
        self.next_due = math.inf
        leader.subscribe(self._on_update)

    # ------------------------------------------------------------------
    def _on_update(self, op: str, u: int, v: int) -> None:
        """Log the op with the rows it changed: the leader's ``touched``
        names exactly those (nothing for an edge write that left the
        closure alone), so each is copied as the op left it."""
        leader = self.leader
        above, below = leader.touched
        in_rows = {w: frozenset(leader.in_labels[w]) for w in below}
        out_rows = {w: frozenset(leader.out_labels[w]) for w in above}
        self.log.append(LogEntry(op, u, v, self.clock, in_rows, out_rows))
        self.changes += 1

    def note_time(self, clock: float) -> None:
        """Stamp subsequent leader updates with this issue time."""
        self.clock = clock

    @property
    def version(self) -> int:
        """Ops applied to the leader so far."""
        return len(self.log)

    def lag(self, replica: int) -> int:
        """How many logged ops group ``replica`` has not applied yet."""
        if replica == 0:
            return 0
        return len(self.log) - self._applied[replica]

    def max_follower_lag(self) -> int:
        """The laggiest group's lag (0 with no followers)."""
        return max((self.lag(r) for r in range(1, self.num_replicas)), default=0)

    def pending_kinds(self, replica: int) -> tuple[bool, bool]:
        """``(has_pending_insert, has_pending_delete)`` for the group."""
        ops = {entry.op for entry in self.log[self._applied[replica]:]}
        # add_node / promote never change an answer: neutral.
        return "insert" in ops, "delete" in ops or "delete_node" in ops

    def staleness_window(self, clock: float) -> float:
        """Age of the oldest leader op some follower has yet to apply.

        0.0 when every follower is caught up — the bound the serving
        layer reports as ``staleness_window_seconds``.
        """
        return max(0.0, clock - self._oldest_pending())

    def _oldest_pending(self) -> float:
        """Issue time of the oldest op some follower has yet to apply
        (``inf`` when every follower is caught up)."""
        log = self.log
        return min(
            (log[i].issued_at for i in self._applied[1:] if i < len(log)),
            default=math.inf,
        )

    def view(self, replica: int):
        """What group ``replica`` reads: the leader or a :class:`LabelTable`."""
        return self.leader if replica == 0 else self._followers[replica]

    # ------------------------------------------------------------------
    def advance(self, clock: float, paused: set[int] | None = None) -> int:
        """Deliver every op due by ``clock`` to unpaused follower groups.

        ``paused`` groups (e.g. a group with a crashed member, which
        cannot atomically install updates) keep accumulating lag;
        :meth:`catch_up` settles the debt when they rejoin.  Returns
        the number of op applications performed.
        """
        applied = 0
        log = self.log
        for r in range(1, self.num_replicas):
            if paused and r in paused:
                continue
            stop = self._applied[r]
            while stop < len(log) and log[stop].issued_at + self.delay_seconds <= clock:
                stop += 1
            applied += self._install(r, stop)
        self.next_due = self._oldest_pending() + self.delay_seconds
        return applied

    def catch_up(self, replica: int) -> int:
        """Apply every pending op to the group now; returns the count."""
        if replica == 0:
            return 0
        count = self._install(replica, len(self.log))
        self.catchup_ops += count
        return count

    def _install(self, replica: int, stop: int) -> int:
        """Bring the group's table up to log position ``stop``."""
        follower = self._followers[replica]
        start = self._applied[replica]
        for entry in self.log[start:stop]:
            follower.install(entry.in_rows, entry.out_rows)
        if stop != start:
            self._applied[replica] = stop
            self.changes += 1
        return stop - start


class ReplicatedLabelStore(ShardedLabelStore):
    """:class:`~repro.serve.store.ShardedLabelStore` under the name the
    replicated stacks use: the same store, two copies of every shard
    unless told otherwise."""

    default_replicas = 2
