"""The label store: the serving layer's data tier, at one copy or many.

The paper's §III-D collects the finished index onto one machine; at
"millions of users" scale a single machine neither holds the labels of
a trillion-edge graph nor absorbs the query load.  The store keeps
``L_in``/``L_out`` partitioned across ``num_shards`` shards — reusing
the exact :mod:`repro.graph.partition` partitioners the builders use —
and charges every cross-shard label fetch through the
:class:`~repro.pregel.cost_model.CostModel`, so a query whose source
and target live on different shards pays a realistic communication
cost (one serialized hop plus the label bytes per remote shard).

Per-shard bookkeeping feeds the two serving questions the paper never
had to ask:

- **memory accounting** — each shard's label bytes are checked against
  the cost model's per-node budget at construction, so a partitioning
  that overloads one shard fails loudly instead of "fitting" because
  the total would fit;
- **load accounting** — every fetch increments the touched shards'
  request counters, so `serve-bench` can report load skew (a Zipf
  workload hammers whichever shards own the hot vertices).

Replicas
--------
One copy of every shard means one crashed process takes a slice of the
key space down with it, so the same store keeps ``replicas`` full
copies of the sharded index — a **replica group** ``r`` is copy ``r``
of every shard; :class:`ShardedLabelStore` is the store at one copy,
:class:`~repro.serve.replica.ReplicatedLabelStore` the same class at
two by default — and routes each read to one group under a configurable
fan-out policy:

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
telemetry event and in :meth:`ShardedLabelStore.replica_stats`.
Background health probes (driven by :meth:`ShardedLabelStore.advance`
as the pipeline clock moves) suspect dead replicas that see no read
traffic and un-suspect recovered ones.  While every replica serves —
the store knows without looking, because health changes in four places
only — routing is O(1): no candidate list, no probe.  Lagging follower
copies and the staleness guard: :mod:`repro.serve.replica`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.labels import label_sizes
from repro.errors import ReproError, ShardOutOfMemoryError, ShardUnavailableError
from repro.graph.partition import HashPartitioner, Partitioner, node_assignment
from repro.observe import tracing
from repro.pregel.cost_model import DEFAULT_COST_MODEL, CostModel
from repro.telemetry import trace_event

#: Read fan-out policies accepted by :class:`ShardedLabelStore`.
READ_POLICIES = ("primary", "round-robin", "hedged")

_NEVER = float("inf")


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


class ShardedLabelStore:
    """``L_in``/``L_out`` partitioned across shards, ``replicas`` copies
    of each, with fetch costs, read routing, health and failover.

    Parameters
    ----------
    index:
        The index to serve, in any flavour
        :func:`~repro.core.labels.label_sizes` reads: a finished
        :class:`~repro.core.labels.ReachabilityIndex`, or a live
        :class:`~repro.core.dynamic.DynamicReachabilityIndex` (sizes are
        always read through the underlying object, so updates are
        visible immediately).  With a replicator this must be the
        replicator's leader.
    num_shards:
        Number of label shards.
    partitioner:
        Vertex → shard mapping (default: the paper's
        :class:`HashPartitioner`); any
        :class:`~repro.graph.partition.Partitioner` with
        ``num_nodes == num_shards`` is accepted.
    cost_model:
        Charges fetches (``t_hop`` per remote shard touched plus
        ``entry_bytes · t_byte`` per label entry moved) and enforces
        the per-shard memory budget (``node_memory_bytes``, one copy).
    replicas:
        Copies of every shard (>= 1; default :attr:`default_replicas`).
        With a replicator the two replica counts must agree.
    policy:
        One of :data:`READ_POLICIES`.
    health:
        Timeout/backoff/suspicion knobs (:class:`HealthPolicy`).
    replicator:
        Optional :class:`~repro.serve.replica.BoundedStalenessReplicator`
        for serving a dynamic index through lagging follower groups.
    """

    #: Copies of every shard when ``replicas`` is not given.
    default_replicas = 1

    def __init__(
        self,
        index,
        num_shards: int = 8,
        partitioner: Partitioner | None = None,
        cost_model: CostModel | None = None,
        replicas: int | None = None,
        policy: str = "primary",
        health: HealthPolicy | None = None,
        replicator=None,
    ):
        if replicas is None:
            replicas = self.default_replicas
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
        self._last_lag_sample = 0
        # The replicator's change count at the last lag sample; none yet.
        self._sampled_changes = -1
        # What each replica group reads, as (out_size_of, in_size_of,
        # query): the index itself, or with a replicator the leader for
        # group 0 and a follower table for every other group.
        views = [
            index if replicator is None else replicator.view(r)
            for r in range(replicas)
        ]
        self._views = [(*label_sizes(view), view.query) for view in views]

        out_size_of, in_size_of, _ = self._views[0]
        n = index.num_vertices
        # A list, not the helper's array: fetch indexes it twice a read.
        self._shard_of = list(node_assignment(partitioner, n))
        self._shard_entries = [0] * num_shards
        for v, home in enumerate(self._shard_of):
            self._shard_entries[home] += out_size_of(v) + in_size_of(v)
        budget = self._cost.node_memory_bytes
        for shard_id, attempted in enumerate(self.memory_bytes()):
            if attempted > budget:
                raise ShardOutOfMemoryError(
                    shard_id,
                    attempted,
                    budget,
                    vertices=self._shard_of.count(shard_id),
                    entries=self._shard_entries[shard_id],
                )
        self.replica_sets = [ReplicaSet(i, replicas) for i in range(num_shards)]
        # While True nobody is dead or suspected and fetch routes in
        # O(1).  Written wherever ``alive`` / ``suspected`` are:
        # crash_replica, recover_replica, _suspect, advance.
        self._all_serving = True

    # ------------------------------------------------------------------
    # Placement and accounting
    # ------------------------------------------------------------------
    def shard_of(self, v: int) -> int:
        """The shard owning vertex ``v``'s labels."""
        try:
            return self._shard_of[v]
        except IndexError:
            return self._place(v)

    def _place(self, v: int) -> int:
        """Shard of a vertex the map does not cover yet: one the index
        gained since (``add_node``) extends the map, anything else is
        rejected as outside the index."""
        n = self._index.num_vertices
        if not 0 <= v < n:
            raise ReproError(f"vertex {v} is outside the index (0..{n - 1})")
        self._shard_of.extend(
            node_assignment(self._partitioner, n, start=len(self._shard_of))
        )
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
    # Fault hooks (scheduled by ServeFaultPlan.schedule or called directly)
    # ------------------------------------------------------------------
    def crash_replica(self, shard: int, replica: int, at: float = 0.0) -> None:
        """Kill one replica; detection happens via timeouts and probes."""
        self.replica_sets[shard].replicas[replica].alive = False
        self._all_serving = False
        self._record("serve.replica_crash", at, shard=shard, replica=replica)

    def recover_replica(self, shard: int, replica: int, at: float = 0.0) -> None:
        """Revive a replica; it rejoins once a health probe clears it."""
        state = self.replica_sets[shard].replicas[replica]
        state.alive = True
        state.probe_failures = 0
        self._note_recovery()
        self._record("serve.replica_recover", at, shard=shard, replica=replica)

    def _note_recovery(self) -> None:
        self._all_serving = all(
            r.serving for rs in self.replica_sets for r in rs.replicas
        )

    def set_replica_slowdown(
        self, shard: int, replica: int, factor: float, at: float = 0.0
    ) -> None:
        """Scale one replica's service time (1.0 restores full speed)."""
        self.replica_sets[shard].replicas[replica].slowdown = factor
        self._record(
            "serve.replica_slow", at, shard=shard, replica=replica, factor=factor
        )

    def _record(self, name: str, at: float, logged: bool = True, **attrs) -> None:
        """To the telemetry stream (the export, the dashboard, any
        attached sink) and, lifecycle only, :attr:`events`."""
        if logged:
            self.events.append({"event": name, "at": at, **attrs})
        trace_event(name, at=at, **attrs)

    def _suspect(self, state: ReplicaState) -> None:
        """Mark a replica suspected and fail over if it was primary."""
        state.suspected = True
        self._all_serving = False
        self._record(
            "serve.replica_suspected",
            self.clock,
            shard=state.shard_id,
            replica=state.replica_id,
        )
        rs = self.replica_sets[state.shard_id]
        healthy = [r.replica_id for r in rs.replicas if r.serving]
        if healthy and not rs.replicas[rs.primary].serving:
            old, rs.primary = rs.primary, healthy[0]
            rs.failovers += 1
            # The update-log version orders the failover against
            # replicator deliveries ("at" is its simulated instant).
            self._record(
                "serve.failover",
                self.clock,
                shard=rs.shard_id,
                from_replica=old,
                to_replica=rs.primary,
                version=self.replicator.version if self.replicator else 0,
            )

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

        The pipeline calls this before every batch, and on most batches
        there is nothing to do: it returns at once while every replica
        serves, no delivery is due and no lag moved since the last
        sample — the sweep would change nothing, and a ``replica.lag``
        sample is still stamped with the first batch that sees a change.
        """
        self.clock = clock
        rep = self.replicator
        if self._all_serving and (
            rep is None
            or (clock < rep.next_due and rep.changes == self._sampled_changes)
        ):
            return
        if rep is not None:
            paused = {
                r
                for r in range(1, self.replicas_per_shard)
                if any(not rs.replicas[r].alive for rs in self.replica_sets)
            }
            rep.advance(clock, paused)
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
                    self._note_recovery()
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

        Samples go to the telemetry stream (the trace export, the
        dashboard, any attached sink) but *not* into
        :attr:`events` — scenario reports list lifecycle events only.
        """
        rep = self.replicator
        self._sampled_changes = rep.changes
        lags = {
            r: rep.lag(r) for r in range(1, self.replicas_per_shard)
        }
        peak = max(lags.values(), default=0)
        if peak == self._last_lag_sample:
            return
        self._last_lag_sample = peak
        self._record(
            "replica.lag",
            clock,
            logged=False,
            lag=peak,
            groups={str(r): lag for r, lag in lags.items() if lag},
            version=rep.version,
        )

    # ------------------------------------------------------------------
    # The read path
    # ------------------------------------------------------------------
    def fetch(self, s: int, t: int) -> tuple[bool, float]:
        """Answer ``q(s, t)`` and return the simulated seconds it cost.

        The query executes at the *source's* shard (the router hashes
        on ``s``) on one replica group picked by the read policy:
        ``L_out(s)`` is local, and when ``t`` lives on a different
        shard ``L_in(t)`` costs one serialized hop plus its entry
        bytes; the sorted-merge itself is charged per entry compared,
        as in :class:`~repro.query.service.IndexBackend`.  A degraded
        store pays timeouts for dead-but-unsuspected replicas met on
        the way (and builds suspicion); raises
        :class:`~repro.errors.ShardUnavailableError` when no group can
        serve the home shard.
        """
        shard_of = self._shard_of
        try:
            if s < 0 or t < 0:
                # Would count from the end: another vertex's answer.
                raise IndexError
            home = shard_of[s]
            target = shard_of[t]
        except IndexError:
            home, target = self._place(s), self._place(t)
        sets = self.replica_sets
        group = sets[home]
        seconds = 0.0
        if self._all_serving:
            policy = self.policy
            if policy == "primary":
                chosen = (group.primary,)
            else:  # round-robin and hedged both rotate for balance
                copies = self.replicas_per_shard
                first = group._rr % copies
                group._rr += 1
                if policy == "hedged" and copies > 1:
                    chosen = (first, (first + 1) % copies)
                else:
                    chosen = (first,)
        else:
            chosen, seconds = self._route_degraded(group, home, target)

        cost = self._cost
        views = self._views
        service = _NEVER
        guard_seconds = 0.0
        for r in chosen:
            out_size_of, in_size_of, query = views[r]
            try:
                out_size = out_size_of(s)
                in_size = in_size_of(t)
            except IndexError:
                # A follower that has not been told of a new vertex
                # yet settles its lag before serving.
                guard_seconds += self._force_catch_up(r)
                out_size = out_size_of(s)
                in_size = in_size_of(t)
            member = group.replicas[r]
            member.requests += 1
            took = (out_size + in_size + 1) * cost.t_op * member.slowdown
            if target != home:
                remote = sets[target].replicas[r]
                remote.requests += 1
                took += (
                    cost.t_hop + in_size * cost.entry_bytes * cost.t_byte
                ) * remote.slowdown
            reply = query(s, t)
            if took < service:
                winner, answer, service = r, reply, took
        hedged = len(chosen) == 2
        if hedged:
            # Raced both, kept the faster answer: charge one extra
            # dispatch for the hedge itself.
            seconds += service + cost.t_hop
            group.replicas[winner].hedges_won += 1
        else:
            seconds += service

        lag = 0
        if winner and self.replicator is not None:
            answer, confirm_seconds, lag = self._guard(winner, s, t, answer)
            guard_seconds += confirm_seconds
        seconds += guard_seconds
        if tracing.ACTIVE is not None:
            out_size_of, in_size_of, _ = views[winner]
            attrs = {
                "home": home,
                "replica": winner,
                "entries": out_size_of(s) + in_size_of(t),
            }
            if target != home:
                attrs["remote"] = target
            if lag:
                attrs["lag"] = lag
            if hedged:
                attrs["hedge_won"] = True
            tracing.ACTIVE.add_stage("store", seconds - guard_seconds, **attrs)
        return answer, seconds

    def _route_degraded(
        self, group: ReplicaSet, home: int, target: int
    ) -> tuple[list[int], float]:
        """Pick the serving group(s) while some replica is dead or
        suspected.  Returns (groups to read, seconds burned).

        Walks the unsuspected groups in policy order.  A group serves
        when its copies of both shards do; a suspected copy rules it out
        for free, a dead one not yet suspected costs a timeout — such
        groups stay candidates on purpose, that is how suspicion builds.
        """
        candidates = [r.replica_id for r in group.replicas if not r.suspected]
        if self.policy == "primary":
            candidates.sort(key=lambda r: (r != group.primary, r))
        elif candidates:  # round-robin and hedged both rotate for balance
            start = group._rr % len(candidates)
            group._rr += 1
            candidates = candidates[start:] + candidates[:start]
        remote = () if target == home else (self.replica_sets[target],)
        seconds = 0.0
        attempt = 0
        chosen: list[int] = []
        for r in candidates:
            down = next(
                (
                    rs.replicas[r]
                    for rs in (group, *remote)
                    if not rs.replicas[r].serving
                ),
                None,
            )
            if down is None:
                chosen.append(r)
                if len(chosen) == (2 if self.policy == "hedged" else 1):
                    break
            elif not down.suspected:
                down.timeouts += 1
                down.probe_failures += 1
                if down.probe_failures >= self.health.failure_threshold:
                    self._suspect(down)
                seconds += self.health.penalty_seconds(attempt)
                attempt += 1
        if not chosen:
            error = ShardUnavailableError(home, self.replicas_per_shard)
            # The pipeline charges the timeouts this request burned
            # even though it got no answer.
            error.seconds = seconds
            raise error
        return chosen, seconds

    def _force_catch_up(self, r: int) -> float:
        """Apply every pending op to follower group ``r`` now; returns
        the simulated seconds that cost."""
        rep = self.replicator
        applied = rep.catch_up(r)
        rep.forced_catchups += 1
        seconds = applied * rep.apply_seconds_per_op
        if tracing.ACTIVE is not None:
            tracing.ACTIVE.add_stage("catchup", seconds, replica=r, ops=applied)
        return seconds

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
        seconds = 0.0
        lag = rep.lag(r)
        if lag > rep.max_lag:
            seconds = self._force_catch_up(r)
            return self._views[r][2](s, t), seconds, lag
        if lag:
            pending_insert, pending_delete = rep.pending_kinds(r)
            if (not answer and pending_insert) or (answer and pending_delete):
                # The stale answer sits on the flippable side: confirm
                # against the leader (one hop + a leader-side merge).
                cost = self._cost
                out_size_of, in_size_of, query = self._views[0]
                merge = (out_size_of(s) + in_size_of(t) + 1) * cost.t_op
                confirm_seconds = cost.t_hop + merge
                seconds += confirm_seconds
                answer = query(s, t)
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


class ShardedIndexBackend:
    """:class:`~repro.query.service.QueryBackend` view of a store.

    Makes the store pluggable anywhere a backend is expected — the
    request pipeline, a cache, or a
    :class:`~repro.query.service.FallbackBackend` primary.
    """

    def __init__(self, store: ShardedLabelStore):
        self._store = store

    @property
    def store(self) -> ShardedLabelStore:
        """The underlying store (for load/memory reports)."""
        return self._store

    def query_with_cost(self, s: int, t: int) -> tuple[bool, float]:
        return self._store.fetch(s, t)
