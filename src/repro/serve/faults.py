"""Serve-side fault injection: replica crashes, slowdowns, recovery.

:mod:`repro.faults` injects faults into the *build* path (cluster
nodes dying between supersteps).  This module is its serving-tier
counterpart: a :class:`ServeFaultPlan` schedules failures of **label
replicas** on the serving clock — replica ``(shard, replica)`` crashes
at simulated second ``T``, runs ``k×`` slow between two instants, or
recovers — and a :class:`ServeFaultInjector` replays the schedule into
a live :class:`~repro.serve.replica.ReplicatedLabelStore` as the
request pipeline advances its clock.

Like the build-side plan, everything is declarative and deterministic:
the same plan against the same traffic always produces the same
failovers, the same timeout counts, and the same report — which is
what makes the scenario library (:mod:`repro.scenarios`) assertable.

Spec syntax (``ServeFaultPlan.parse``), comma-separated clauses::

    crash=SHARD.REPLICA@SECONDS        replica dies at that instant
    slow=SHARD.REPLICAxFACTOR@START[:END]  runs FACTOR× slow in [START, END)
    recover=SHARD.REPLICA@SECONDS      a crashed replica rejoins

Example: ``crash=0.0@0.002,slow=1.1x4@0.001:0.003,recover=0.0@0.006``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ReproError
from repro.faults import spec_clauses


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
    """The replica serves ``factor``× slower in ``[at, until)``.

    ``until_seconds=None`` means "slow for the rest of the run".
    """

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
class ServeFaultPlan:
    """A deterministic schedule of serving-tier replica faults."""

    crashes: tuple[ReplicaCrash, ...] = ()
    slowdowns: tuple[ReplicaSlow, ...] = ()
    recoveries: tuple[ReplicaRecovery, ...] = ()

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

    # ------------------------------------------------------------------
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

    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, spec: str) -> "ServeFaultPlan":
        """Parse the compact textual spec (see the module docstring).

        Raises :class:`ServeFaultSpecError` on malformed input.
        """
        crashes: list[ReplicaCrash] = []
        slowdowns: list[ReplicaSlow] = []
        recoveries: list[ReplicaRecovery] = []
        for key, value, clause in spec_clauses(
            spec, ServeFaultSpecError, "serve-fault"
        ):
            try:
                if key == "crash":
                    target, _, at = value.partition("@")
                    shard, replica = _parse_target(target)
                    crashes.append(ReplicaCrash(shard, replica, float(at)))
                elif key == "slow":
                    target, sep2, when = value.partition("@")
                    if not sep2:
                        raise ValueError("expected SHARD.REPLICAxFACTOR@START")
                    head, sep3, factor = target.partition("x")
                    if not sep3:
                        raise ValueError("expected SHARD.REPLICAxFACTOR")
                    shard, replica = _parse_target(head)
                    start, sep4, until = when.partition(":")
                    slowdowns.append(
                        ReplicaSlow(
                            shard,
                            replica,
                            float(factor),
                            float(start),
                            float(until) if sep4 else None,
                        )
                    )
                elif key == "recover":
                    target, _, at = value.partition("@")
                    shard, replica = _parse_target(target)
                    recoveries.append(ReplicaRecovery(shard, replica, float(at)))
                else:
                    raise ServeFaultSpecError(
                        f"unknown serve-fault clause {key!r} (expected "
                        "crash, slow, or recover)"
                    )
            except ValueError as exc:
                raise ServeFaultSpecError(
                    f"bad serve-fault clause {clause!r}: {exc}"
                ) from exc
        try:
            return cls(tuple(crashes), tuple(slowdowns), tuple(recoveries))
        except ValueError as exc:
            raise ServeFaultSpecError(str(exc)) from exc

    def to_spec(self) -> str:
        """The compact textual spec; inverse of :meth:`parse`."""
        clauses = [
            f"crash={c.shard}.{c.replica}@{c.at_seconds:g}" for c in self.crashes
        ]
        for s in self.slowdowns:
            clause = f"slow={s.shard}.{s.replica}x{s.factor:g}@{s.at_seconds:g}"
            if s.until_seconds is not None:
                clause += f":{s.until_seconds:g}"
            clauses.append(clause)
        clauses += [
            f"recover={r.shard}.{r.replica}@{r.at_seconds:g}"
            for r in self.recoveries
        ]
        return ",".join(clauses)

    def describe(self) -> str:
        """One-line human-readable summary."""
        parts = [
            f"crash replica {c.shard}.{c.replica} @ {c.at_seconds:g}s"
            for c in self.crashes
        ]
        parts += [
            f"slow replica {s.shard}.{s.replica} x{s.factor:g} @ "
            f"{s.at_seconds:g}s"
            + (f"-{s.until_seconds:g}s" if s.until_seconds is not None else "")
            for s in self.slowdowns
        ]
        parts += [
            f"recover replica {r.shard}.{r.replica} @ {r.at_seconds:g}s"
            for r in self.recoveries
        ]
        return "; ".join(parts) if parts else "no serve faults"


def _parse_target(text: str) -> tuple[int, int]:
    """``SHARD.REPLICA`` → ``(shard, replica)``."""
    shard, sep, replica = text.partition(".")
    if not sep:
        raise ValueError("expected SHARD.REPLICA")
    return int(shard), int(replica)


class ServeFaultInjector:
    """Replays a :class:`ServeFaultPlan` into a replicated store.

    The request pipeline calls :meth:`advance` with the simulated
    clock; every event whose instant has passed is applied to the
    store, in schedule order, exactly once.  Slowdowns with an end
    instant schedule their own reset event.
    """

    def __init__(self, plan: ServeFaultPlan, store):
        plan.validate_for(store.num_shards, store.replicas_per_shard)
        self.plan = plan
        self._store = store
        events = [
            (crash.at_seconds, "crash", (crash.shard, crash.replica))
            for crash in plan.crashes
        ]
        for slow in plan.slowdowns:
            target = (slow.shard, slow.replica)
            events.append((slow.at_seconds, "slow", (*target, slow.factor)))
            if slow.until_seconds is not None:
                events.append((slow.until_seconds, "slow", (*target, 1.0)))
        events += [
            (recovery.at_seconds, "recover", (recovery.shard, recovery.replica))
            for recovery in plan.recoveries
        ]
        # A stable sort: events due at the same instant keep plan order.
        self._events = sorted(events, key=lambda event: event[0])
        self._next = 0

    @property
    def pending(self) -> int:
        """Events not yet fired."""
        return len(self._events) - self._next

    def advance(self, clock: float) -> int:
        """Fire every event due by ``clock``; returns how many fired.

        Also drives the store's own :meth:`advance` (health probes and
        replication delivery), so a pipeline only needs this one hook.
        """
        fired = 0
        while self._next < len(self._events) and self._events[self._next][0] <= clock:
            at, kind, payload = self._events[self._next]
            self._next += 1
            fired += 1
            if kind == "crash":
                self._store.crash_replica(*payload, at=at)
            elif kind == "slow":
                self._store.set_replica_slowdown(*payload, at=at)
            else:
                self._store.recover_replica(*payload, at=at)
        self._store.advance(clock)
        return fired
