"""Serve-side fault injection: replica crashes, slowdowns, recovery.

:mod:`repro.faults` injects faults into the *build* path (cluster
nodes dying between supersteps).  This module is its serving-tier
counterpart: a :class:`ServeFaultPlan` schedules failures of **label
replicas** on the serving clock — replica ``(shard, replica)`` crashes
at simulated second ``T``, runs ``k×`` slow in ``[START, END)``, or
recovers — and :meth:`ServeFaultPlan.schedule` puts them on the
:class:`Timeline` the request pipeline advances, as calls into a live
:class:`~repro.serve.replica.ReplicatedLabelStore`.

Everything is declarative and deterministic: the same plan against the
same traffic always produces the same failovers, timeout counts and
report — which is what makes the scenario library assertable.  The
spec text (``crash=0.0@0.002,slow=1.1x4@0.001:0.003,recover=0.0@0.006``)
is read and written by :class:`repro.faults.SpecPlan`, the one grammar;
``ServeFaultPlan.SHAPES`` is this plan's clause table.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

from repro.errors import ReproError
from repro.faults import SpecPlan


class ServeFaultSpecError(ReproError):
    """A textual serve-fault spec could not be parsed."""


def _check_replica(shard: int, replica: int) -> None:
    if shard < 0:
        raise ValueError("shard must be non-negative")
    if replica < 0:
        raise ValueError("replica must be non-negative")


@dataclass(frozen=True)
class ReplicaCrash:
    """Replica ``replica`` of shard ``shard`` dies at ``at_seconds``."""

    shard: int
    replica: int
    at_seconds: float

    def __post_init__(self):
        _check_replica(self.shard, self.replica)
        if self.at_seconds < 0:
            raise ValueError("crash time must be non-negative")


@dataclass(frozen=True)
class ReplicaSlow:
    """The replica serves ``factor``× slower in ``[at, until)`` —
    ``until_seconds=None``: for the rest of the run."""

    shard: int
    replica: int
    factor: float
    at_seconds: float
    until_seconds: float | None = None

    def __post_init__(self):
        _check_replica(self.shard, self.replica)
        if self.factor < 1.0:
            raise ValueError("slowdown factor must be >= 1")
        if self.at_seconds < 0:
            raise ValueError("slowdown start must be non-negative")
        if self.until_seconds is not None and self.until_seconds <= self.at_seconds:
            raise ValueError("slowdown must end after it starts")


@dataclass(frozen=True)
class ReplicaRecovery:
    """A previously crashed replica rejoins at ``at_seconds``.

    The replica comes back *stale*: it must pass a health probe and —
    under replication — catch up on the update log before it serves
    reads again.
    """

    shard: int
    replica: int
    at_seconds: float

    def __post_init__(self):
        _check_replica(self.shard, self.replica)
        if self.at_seconds < 0:
            raise ValueError("recovery time must be non-negative")


@dataclass(frozen=True)
class ServeFaultPlan(SpecPlan):
    """A deterministic schedule of serving-tier replica faults."""

    crashes: tuple[ReplicaCrash, ...] = ()
    slowdowns: tuple[ReplicaSlow, ...] = ()
    recoveries: tuple[ReplicaRecovery, ...] = ()

    SHAPES = {
        "crash": ("SHARD.REPLICA@SECONDS", "crashes", ReplicaCrash),
        "slow": ("SHARD.REPLICAxFACTOR@START[:END]", "slowdowns", ReplicaSlow),
        "recover": ("SHARD.REPLICA@SECONDS", "recoveries", ReplicaRecovery),
    }
    SPEC_ERROR = ServeFaultSpecError
    NOUN = "serve-fault"

    def __post_init__(self):
        crashed: dict[tuple[int, int], float] = {}
        for crash in self.crashes:
            key = (crash.shard, crash.replica)
            if key in crashed:
                raise ValueError(
                    f"replica {crash.shard}.{crash.replica} crashes more "
                    "than once"
                )
            crashed[key] = crash.at_seconds
        seen_recoveries: set[tuple[int, int]] = set()
        for recovery in self.recoveries:
            key = (recovery.shard, recovery.replica)
            if key not in crashed:
                raise ValueError(
                    f"replica {recovery.shard}.{recovery.replica} recovers "
                    "but never crashes"
                )
            if recovery.at_seconds <= crashed[key]:
                raise ValueError(
                    f"replica {recovery.shard}.{recovery.replica} recovers "
                    "before it crashes"
                )
            if key in seen_recoveries:
                raise ValueError(
                    f"replica {recovery.shard}.{recovery.replica} recovers "
                    "more than once"
                )
            seen_recoveries.add(key)

    @property
    def empty(self) -> bool:
        """True when the plan schedules nothing."""
        return not (self.crashes or self.slowdowns or self.recoveries)

    def validate_for(self, num_shards: int, replicas: int) -> None:
        """Reject plans naming replicas outside the store's layout."""
        for event in (*self.crashes, *self.slowdowns, *self.recoveries):
            if event.shard >= num_shards:
                raise ValueError(
                    f"fault plan names shard {event.shard} but the store "
                    f"has only {num_shards} shards"
                )
            if event.replica >= replicas:
                raise ValueError(
                    f"fault plan names replica {event.replica} but shards "
                    f"have only {replicas} replicas"
                )

    def schedule(self, timeline: "Timeline", store) -> None:
        """Put every event on ``timeline`` as a call into ``store``, in
        plan order (crashes; slowdowns, each with its reset when it has
        an end; recoveries) — which breaks same-instant ties."""
        self.validate_for(store.num_shards, store.replicas_per_shard)
        for c in self.crashes:
            timeline.at(c.at_seconds, store.crash_replica, c.shard, c.replica)
        for s in self.slowdowns:
            slow = store.set_replica_slowdown, s.shard, s.replica
            timeline.at(s.at_seconds, *slow, s.factor)
            if s.until_seconds is not None:
                timeline.at(s.until_seconds, *slow, 1.0)
        for r in self.recoveries:
            timeline.at(r.at_seconds, store.recover_replica, r.shard, r.replica)


class Timeline:
    """The serving clock's one schedule: ``(instant, insertion order,
    action, args)`` entries — replica faults, their resets, a scenario's
    leader writes — each fired once, ``action(*args, at=instant)``, when
    the pipeline's clock passes it (``QueryServer(on_advance=
    timeline.advance)``); same-instant entries fire in the order added.
    ``tick`` is the per-batch pump that follows every advance: the
    store's ``advance`` (replication delivery + one probe sweep)."""

    def __init__(self, tick):
        self._tick = tick
        self._entries: list = []
        self._order = itertools.count()

    def at(self, instant: float, action, *args) -> None:
        heapq.heappush(self._entries, (instant, next(self._order), action, args))

    @property
    def pending(self) -> int:
        """Entries not yet fired."""
        return len(self._entries)

    def advance(self, clock: float) -> int:
        """Fire what is due by ``clock``, then tick; returns how many fired."""
        fired = 0
        while self._entries and self._entries[0][0] <= clock:
            instant, _, action, args = heapq.heappop(self._entries)
            action(*args, at=instant)
            fired += 1
        self._tick(clock)
        return fired
