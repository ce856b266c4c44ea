"""Replicated label serving: N copies per shard, failover, staleness.

One copy of every shard (:class:`~repro.serve.store.ShardedLabelStore`)
means one crashed process takes a slice of the key space down with it.
This module keeps ``replicas`` full copies of the sharded index — a
**replica group** ``r`` is copy ``r`` of every shard — and routes each
read to one group under a configurable fan-out policy:

``primary``
    Always the group's current primary (lowest-id healthy group);
    cheapest, no read amplification.
``round-robin``
    Rotate across healthy groups; spreads load evenly.
``hedged``
    Fastest-of-two: race two healthy groups, take the faster answer,
    charge the winner's service time plus one hedge dispatch
    (``t_hop``).  Cuts tail latency when one replica runs slow.

Failure handling is deliberately boring and explicit: a read routed to
a dead-but-not-yet-suspected replica pays a timeout plus exponential
backoff and tries the next candidate; after
:attr:`HealthPolicy.failure_threshold` consecutive failures the
replica is *suspected* (skipped at zero cost) and, if it was the
primary, the shard **fails over** — visible as a ``serve.failover``
telemetry event and in :meth:`ReplicatedLabelStore.replica_stats`.
Background health probes (driven by :meth:`ReplicatedLabelStore.advance`
as the pipeline clock moves) suspect dead replicas that see no read
traffic and un-suspect recovered ones.

Bounded-staleness replication
-----------------------------
With a :class:`BoundedStalenessReplicator`, writes go to the *leader*
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

from dataclasses import dataclass
from typing import NamedTuple

from repro.core.labels import ReachabilityIndex
from repro.errors import ShardOutOfMemoryError, ShardUnavailableError
from repro.graph.partition import HashPartitioner, Partitioner
from repro.observe import tracing
from repro.pregel.cost_model import DEFAULT_COST_MODEL, CostModel
from repro.telemetry import trace_event

#: Read fan-out policies accepted by :class:`ReplicatedLabelStore`.
READ_POLICIES = ("primary", "round-robin", "hedged")


@dataclass(frozen=True)
class HealthPolicy:
    """Timeout, backoff, and suspicion thresholds for replica reads.

    Defaults are scaled to the simulated serving clock (a 20k-request
    bench run spans ~10 ms of simulated time): a timed-out read costs
    ~20 µs — two orders of magnitude above a local label merge — and
    two consecutive failures mark the replica suspected.
    """

    timeout_seconds: float = 5e-5
    backoff_seconds: float = 2e-5
    failure_threshold: int = 2

    def __post_init__(self):
        if self.timeout_seconds <= 0:
            raise ValueError("timeout must be positive")
        if self.backoff_seconds < 0:
            raise ValueError("backoff must be non-negative")
        if self.failure_threshold < 1:
            raise ValueError("failure threshold must be >= 1")

    def penalty_seconds(self, attempt: int) -> float:
        """Cost of the ``attempt``-th failed read in one fetch (0-based)."""
        return self.timeout_seconds + self.backoff_seconds * (2 ** attempt)


class ReplicaState:
    """Health and accounting for one replica of one shard."""

    __slots__ = (
        "shard_id", "replica_id", "alive", "suspected", "slowdown",
        "requests", "timeouts", "hedges_won", "probe_failures",
    )

    def __init__(self, shard_id: int, replica_id: int):
        self.shard_id = shard_id
        self.replica_id = replica_id
        self.alive = True
        self.suspected = False
        self.slowdown = 1.0
        self.requests = 0
        self.timeouts = 0
        self.hedges_won = 0
        self.probe_failures = 0

    @property
    def serving(self) -> bool:
        """Routable: alive and not under suspicion."""
        return self.alive and not self.suspected


class ReplicaSet:
    """One shard's replicas plus its current primary."""

    __slots__ = ("shard_id", "replicas", "primary", "failovers", "_rr")

    def __init__(self, shard_id: int, num_replicas: int):
        self.shard_id = shard_id
        self.replicas = [ReplicaState(shard_id, r) for r in range(num_replicas)]
        self.primary = 0
        self.failovers = 0
        self._rr = 0

    def candidates(self, policy: str) -> list[int]:
        """Replica ids to try, in order, excluding suspected replicas.

        Dead-but-unsuspected replicas stay in the list on purpose: the
        caller pays their timeout, which is how suspicion builds.
        """
        ids = [r.replica_id for r in self.replicas if not r.suspected]
        if not ids:
            return []
        if policy == "primary":
            ids.sort(key=lambda r: (r != self.primary, r))
        else:  # round-robin and hedged both rotate for balance
            start = self._rr % len(ids)
            self._rr += 1
            ids = ids[start:] + ids[:start]
        return ids

    def maybe_failover(self, clock: float) -> dict | None:
        """Re-elect the primary if the current one stopped serving.

        Returns the failover event (also needed by the store for
        telemetry), or None when the primary is fine or no healthy
        replica remains.
        """
        if self.replicas[self.primary].serving:
            return None
        healthy = [r.replica_id for r in self.replicas if r.serving]
        if not healthy:
            return None
        old = self.primary
        self.primary = healthy[0]
        self.failovers += 1
        return {
            "event": "serve.failover",
            "at": clock,
            "shard": self.shard_id,
            "from_replica": old,
            "to_replica": self.primary,
        }


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
        if num_replicas < 1:
            raise ValueError("need at least one replica group")
        if delay_seconds < 0:
            raise ValueError("delivery delay must be non-negative")
        if max_lag < 1:
            raise ValueError("max_lag must be >= 1")
        self.leader = leader
        self.num_replicas = num_replicas
        self.delay_seconds = delay_seconds
        self.max_lag = max_lag
        self.apply_seconds_per_op = apply_seconds_per_op
        self.clock = 0.0
        #: One :class:`LogEntry` per applied leader update, in order.
        self.log: list[LogEntry] = []
        self.forced_catchups = 0
        self.catchup_ops = 0
        # The leader's rows as of the log's head, to diff each update
        # against; followers start as pointer copies of it (no build).
        head = self._head = LabelTable(
            [frozenset(row) for row in leader.in_labels],
            [frozenset(row) for row in leader.out_labels],
        )
        self._followers: list = [None] + [  # group 0 reads the leader
            LabelTable(list(head.in_labels), list(head.out_labels))
            for _ in range(1, num_replicas)
        ]
        self._applied = [0] * num_replicas
        leader.subscribe(self._on_update)

    # ------------------------------------------------------------------
    def _on_update(self, op: str, u: int, v: int) -> None:
        """Log the op with the rows it changed: the leader's touched
        cones bound the candidates, the head table says which differ."""
        leader, head = self.leader, self._head
        above, below = leader.touched
        in_rows, out_rows = (
            {w: frozenset(new[w]) for w in cone if w >= len(old) or new[w] != old[w]}
            for new, old, cone in (
                (leader.in_labels, head.in_labels, below),
                (leader.out_labels, head.out_labels, above),
            )
        )
        head.install(in_rows, out_rows)
        self.log.append(LogEntry(op, u, v, self.clock, in_rows, out_rows))

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
        log = self.log
        pending = [log[i].issued_at for i in self._applied[1:] if i < len(log)]
        return max(0.0, clock - min(pending)) if pending else 0.0

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
        self._applied[replica] = stop
        return stop - start


class ReplicatedLabelStore:
    """A sharded label store with ``replicas`` copies of every shard.

    Drop-in for :class:`~repro.serve.store.ShardedLabelStore` wherever
    reads flow (``fetch`` / ``shard_loads`` / ``load_skew`` /
    ``memory_bytes``), so :class:`~repro.serve.store.ShardedIndexBackend`,
    the cache, and the pipeline all compose unchanged.  On top of that
    it owns replica health, read routing, failover, and — when a
    :class:`BoundedStalenessReplicator` is attached — the staleness
    guard described in the module docstring.

    Parameters
    ----------
    index:
        The index to serve.  With a replicator this must be the
        replicator's leader.
    num_shards, partitioner, cost_model:
        As for :class:`~repro.serve.store.ShardedLabelStore`.
    replicas:
        Copies of every shard (>= 1).  With a replicator the two
        replica counts must agree.
    policy:
        One of :data:`READ_POLICIES`.
    health:
        Timeout/backoff/suspicion knobs (:class:`HealthPolicy`).
    replicator:
        Optional :class:`BoundedStalenessReplicator` for serving a
        dynamic index through lagging follower groups.
    """

    def __init__(
        self,
        index,
        num_shards: int = 8,
        partitioner: Partitioner | None = None,
        cost_model: CostModel | None = None,
        replicas: int = 2,
        policy: str = "primary",
        health: HealthPolicy | None = None,
        replicator: BoundedStalenessReplicator | None = None,
    ):
        if replicas < 1:
            raise ValueError("need at least one replica per shard")
        if policy not in READ_POLICIES:
            raise ValueError(
                f"unknown read policy {policy!r} (expected one of "
                f"{', '.join(READ_POLICIES)})"
            )
        if replicator is not None:
            if replicator.num_replicas != replicas:
                raise ValueError(
                    f"replicator has {replicator.num_replicas} replica "
                    f"groups but the store wants {replicas}"
                )
            if replicator.leader is not index:
                raise ValueError("the store must serve the replicator's leader")
        if partitioner is None:
            partitioner = HashPartitioner(num_shards)
        if partitioner.num_nodes != num_shards:
            raise ValueError(
                f"partitioner maps onto {partitioner.num_nodes} shards, "
                f"expected {num_shards}"
            )
        self._index = index
        self.num_shards = num_shards
        self.replicas_per_shard = replicas
        self.policy = policy
        self.health = health or HealthPolicy()
        self.replicator = replicator
        self._partitioner = partitioner
        self._cost = cost_model or DEFAULT_COST_MODEL
        self.clock = 0.0
        #: Applied fault/failover/recovery events, oldest first.
        self.events: list[dict] = []
        self.stale_reads = 0
        self.confirmed_reads = 0
        self._listeners: list = []
        self._last_lag_sample = 0

        n = index.num_vertices
        self._shard_of = [partitioner.node_of(v) for v in range(n)]
        self._shard_vertices = [0] * num_shards
        self._shard_entries = [0] * num_shards
        for v in range(n):
            home = self._shard_of[v]
            self._shard_vertices[home] += 1
            self._shard_entries[home] += len(self._labels(index, v, out=True)) + len(
                self._labels(index, v, out=False)
            )
        budget = self._cost.node_memory_bytes
        for shard_id in range(num_shards):
            attempted = self._shard_entries[shard_id] * self._cost.entry_bytes
            if attempted > budget:
                raise ShardOutOfMemoryError(
                    shard_id,
                    attempted,
                    budget,
                    vertices=self._shard_vertices[shard_id],
                    entries=self._shard_entries[shard_id],
                )
        self.replica_sets = [ReplicaSet(i, replicas) for i in range(num_shards)]

    # ------------------------------------------------------------------
    # Label access across index flavours (list-style or callable)
    # ------------------------------------------------------------------
    @staticmethod
    def _labels(index, v: int, out: bool):
        labels = index.out_labels if out else index.in_labels
        return labels[v] if isinstance(labels, list) else labels(v)

    def _view(self, replica: int):
        if self.replicator is None:
            return self._index
        return self.replicator.view(replica)

    # ------------------------------------------------------------------
    # ShardedLabelStore surface
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Vertices covered by the store."""
        return self._index.num_vertices

    def shard_of(self, v: int) -> int:
        """The shard owning vertex ``v``'s labels."""
        return self._shard_of[v]

    def memory_bytes(self) -> list[int]:
        """Per-shard simulated label bytes (one copy)."""
        entry_bytes = self._cost.entry_bytes
        return [entries * entry_bytes for entries in self._shard_entries]

    def total_memory_bytes(self) -> int:
        """All copies: per-shard bytes summed, times the replica count."""
        return sum(self.memory_bytes()) * self.replicas_per_shard

    def shard_loads(self) -> list[int]:
        """Per-shard request counts, summed across the shard's replicas."""
        return [
            sum(r.requests for r in rs.replicas) for rs in self.replica_sets
        ]

    def load_skew(self) -> float:
        """Max/mean of per-shard request counts (1.0 = perfectly even)."""
        loads = self.shard_loads()
        total = sum(loads)
        if not total:
            return 1.0
        return max(loads) / (total / len(loads))

    # ------------------------------------------------------------------
    # Fault hooks (driven by ServeFaultInjector or called directly)
    # ------------------------------------------------------------------
    def crash_replica(self, shard: int, replica: int, at: float = 0.0) -> None:
        """Kill one replica; detection happens via timeouts and probes."""
        state = self.replica_sets[shard].replicas[replica]
        state.alive = False
        self._record("serve.replica_crash", at, shard=shard, replica=replica)

    def recover_replica(self, shard: int, replica: int, at: float = 0.0) -> None:
        """Revive a replica; it rejoins once a health probe clears it."""
        state = self.replica_sets[shard].replicas[replica]
        state.alive = True
        state.probe_failures = 0
        self._record("serve.replica_recover", at, shard=shard, replica=replica)

    def set_replica_slowdown(
        self, shard: int, replica: int, factor: float, at: float = 0.0
    ) -> None:
        """Scale one replica's service time (1.0 restores full speed)."""
        self.replica_sets[shard].replicas[replica].slowdown = factor
        self._record(
            "serve.replica_slow", at, shard=shard, replica=replica, factor=factor
        )

    def subscribe(self, listener) -> None:
        """Call ``listener(event_dict)`` for every store event (plus
        ``replica.lag`` samples, which skip the event log) — this is
        how a :class:`~repro.observe.incident.recorder.FlightRecorder`
        taps the store."""
        self._listeners.append(listener)

    def _record(self, name: str, at: float, **attrs) -> None:
        self._emit({"event": name, "at": at, **attrs})

    def _emit(self, event: dict, logged: bool = True) -> None:
        """To telemetry, listeners and (lifecycle only) :attr:`events`."""
        if logged:
            self.events.append(event)
        trace_event(
            event["event"], **{k: v for k, v in event.items() if k != "event"}
        )
        for listener in self._listeners:
            listener(event)

    def _suspect(self, state: ReplicaState) -> None:
        """Mark a replica suspected and fail over if it was primary."""
        state.suspected = True
        self._record(
            "serve.replica_suspected",
            self.clock,
            shard=state.shard_id,
            replica=state.replica_id,
        )
        failover = self.replica_sets[state.shard_id].maybe_failover(self.clock)
        if failover is not None:
            # Stamp the update-log version so the failover can be
            # ordered against replicator deliveries (the event already
            # carries its simulated instant in "at").
            failover["version"] = (
                self.replicator.version if self.replicator is not None else 0
            )
            self._emit(failover)

    # ------------------------------------------------------------------
    # Background maintenance (pipeline clock hook)
    # ------------------------------------------------------------------
    def advance(self, clock: float) -> None:
        """Move the store to simulated second ``clock``.

        Delivers replication (groups with a dead member pause — they
        cannot atomically install updates — and catch up on rejoin)
        and runs one health-probe sweep: dead unsuspected replicas
        accrue probe failures toward suspicion; revived suspected
        replicas are cleared, caught up, and put back in rotation.
        """
        self.clock = clock
        if self.replicator is not None:
            paused = {
                r
                for r in range(1, self.replicas_per_shard)
                if any(not rs.replicas[r].alive for rs in self.replica_sets)
            }
            self.replicator.advance(clock, paused)
            self._sample_lag(clock)
        for rs in self.replica_sets:
            for state in rs.replicas:
                if not state.alive and not state.suspected:
                    state.probe_failures += 1
                    if state.probe_failures >= self.health.failure_threshold:
                        self._suspect(state)
                elif state.alive and state.suspected:
                    state.suspected = False
                    state.probe_failures = 0
                    if self.replicator is not None:
                        self.replicator.catch_up(state.replica_id)
                    self._record(
                        "serve.replica_up",
                        clock,
                        shard=state.shard_id,
                        replica=state.replica_id,
                    )

    def _sample_lag(self, clock: float) -> None:
        """Emit a ``replica.lag`` sample when the worst lag changes.

        Samples go to telemetry and subscribed listeners (the flight
        recorder, the dashboard via the trace) but *not* into
        :attr:`events` — scenario reports list lifecycle events only.
        """
        rep = self.replicator
        lags = {
            r: rep.lag(r) for r in range(1, self.replicas_per_shard)
        }
        peak = max(lags.values(), default=0)
        if peak == self._last_lag_sample:
            return
        self._last_lag_sample = peak
        event = {
            "event": "replica.lag",
            "at": clock,
            "lag": peak,
            "groups": {str(r): lag for r, lag in lags.items() if lag},
            "version": rep.version,
        }
        self._emit(event, logged=False)

    # ------------------------------------------------------------------
    # The read path
    # ------------------------------------------------------------------
    def fetch(self, s: int, t: int) -> tuple[bool, float]:
        """Answer ``q(s, t)`` and return the simulated seconds it cost.

        Routes to a replica group per the read policy; pays timeouts
        for dead-but-unsuspected replicas encountered on the way (and
        builds suspicion); raises
        :class:`~repro.errors.ShardUnavailableError` when no group can
        serve the home shard.
        """
        home = self._shard_of[s]
        target = self._shard_of[t]
        seconds = 0.0
        attempt = 0
        chosen: list[int] = []
        want = 2 if self.policy == "hedged" else 1
        for r in self.replica_sets[home].candidates(self.policy):
            ok, penalty = self._probe_group(r, home, target, attempt)
            seconds += penalty
            if penalty:
                attempt += 1
            if ok:
                chosen.append(r)
                if len(chosen) == want:
                    break
        if not chosen:
            error = ShardUnavailableError(home, self.replicas_per_shard)
            # The pipeline charges the timeouts this request burned
            # even though it got no answer.
            error.seconds = seconds
            raise error

        if len(chosen) == 2:
            # Hedged: race both, keep the faster answer, charge one
            # extra dispatch for the hedge itself.
            services = [self._service(r, s, t, home, target) for r in chosen]
            winner_idx = min(range(2), key=lambda i: services[i][1])
            winner = chosen[winner_idx]
            answer, service = services[winner_idx]
            seconds += service + self._cost.t_hop
            self.replica_sets[home].replicas[winner].hedges_won += 1
        else:
            winner = chosen[0]
            answer, service = self._service(winner, s, t, home, target)
            seconds += service

        answer, guard_seconds, lag = self._guard(winner, s, t, answer)
        seconds += guard_seconds
        if tracing.ACTIVE is not None:
            view = self._view(winner)
            attrs = {
                "home": home,
                "replica": winner,
                "entries": len(self._labels(view, s, out=True))
                + len(self._labels(view, t, out=False)),
            }
            if target != home:
                attrs["remote"] = target
            if lag:
                attrs["lag"] = lag
            if len(chosen) == 2:
                attrs["hedge_won"] = True
            tracing.ACTIVE.add_stage("store", seconds - guard_seconds, **attrs)
        return answer, seconds

    def _probe_group(
        self, r: int, home: int, target: int, attempt: int
    ) -> tuple[bool, float]:
        """Can group ``r`` serve ``home`` (and ``target``)?  May charge
        a timeout penalty and build suspicion on dead members."""
        for shard in (home,) if target == home else (home, target):
            state = self.replica_sets[shard].replicas[r]
            if state.suspected:
                return False, 0.0
            if not state.alive:
                state.timeouts += 1
                state.probe_failures += 1
                if state.probe_failures >= self.health.failure_threshold:
                    self._suspect(state)
                return False, self.health.penalty_seconds(attempt)
        return True, 0.0

    def _service(
        self, r: int, s: int, t: int, home: int, target: int
    ) -> tuple[bool, float]:
        """Serve the read from group ``r``; returns (answer, seconds)."""
        cost = self._cost
        view = self._view(r)
        out_labels = self._labels(view, s, out=True)
        in_labels = self._labels(view, t, out=False)
        member = self.replica_sets[home].replicas[r]
        member.requests += 1
        seconds = (len(out_labels) + len(in_labels) + 1) * cost.t_op
        seconds *= member.slowdown
        if target != home:
            remote = self.replica_sets[target].replicas[r]
            remote.requests += 1
            seconds += (
                cost.t_hop + len(in_labels) * cost.entry_bytes * cost.t_byte
            ) * remote.slowdown
        return view.query(s, t), seconds

    def _guard(
        self, r: int, s: int, t: int, answer: bool
    ) -> tuple[bool, float, int]:
        """Apply the monotonicity staleness guard to a follower read.

        Returns (final answer, extra seconds, the lag observed).  The
        final answer always equals the leader's current answer: either
        the pending ops could not flip it (monotonicity), or we
        confirmed with the leader directly.
        """
        rep = self.replicator
        if rep is None or r == 0:
            return answer, 0.0, 0
        seconds = 0.0
        lag = rep.lag(r)
        if lag > rep.max_lag:
            applied = rep.catch_up(r)
            rep.forced_catchups += 1
            seconds += applied * rep.apply_seconds_per_op
            view = rep.view(r)
            answer = view.query(s, t)
            if tracing.ACTIVE is not None:
                tracing.ACTIVE.add_stage(
                    "catchup", seconds, replica=r, ops=applied
                )
            return answer, seconds, lag
        if lag:
            pending_insert, pending_delete = rep.pending_kinds(r)
            if (not answer and pending_insert) or (answer and pending_delete):
                # The stale answer sits on the flippable side: confirm
                # against the leader (one hop + a leader-side merge).
                cost = self._cost
                leader = rep.leader
                merge = (
                    len(self._labels(leader, s, out=True))
                    + len(self._labels(leader, t, out=False))
                    + 1
                ) * cost.t_op
                confirm_seconds = cost.t_hop + merge
                seconds += confirm_seconds
                answer = leader.query(s, t)
                self.confirmed_reads += 1
                if tracing.ACTIVE is not None:
                    tracing.ACTIVE.add_stage(
                        "confirm", confirm_seconds, replica=r, lag=lag
                    )
            else:
                self.stale_reads += 1
        return answer, seconds, lag

    # ------------------------------------------------------------------
    def replica_stats(self) -> dict:
        """Aggregate replica/failover/staleness counters for reports."""
        rep = self.replicator
        return {
            "failovers": sum(rs.failovers for rs in self.replica_sets),
            "replica_timeouts": sum(
                r.timeouts for rs in self.replica_sets for r in rs.replicas
            ),
            "hedges_won": sum(
                r.hedges_won for rs in self.replica_sets for r in rs.replicas
            ),
            "stale_reads": self.stale_reads,
            "confirmed_reads": self.confirmed_reads,
            "forced_catchups": rep.forced_catchups if rep else 0,
            "replication_lag": rep.max_follower_lag() if rep else 0,
            "replicas_down": sum(
                1 for rs in self.replica_sets for r in rs.replicas if not r.alive
            ),
        }
