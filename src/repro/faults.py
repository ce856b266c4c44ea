"""Deterministic fault injection for the simulated cluster.

The paper's testbed is a 32-node MPI cluster; real deployments of
vertex-centric systems lose nodes mid-build, drop packets, and suffer
stragglers.  A :class:`FaultPlan` describes such a scenario *up front*
— which node dies at which super-step, which nodes run slow, how lossy
the network is — and a seeded RNG makes every run of the same plan
byte-for-byte reproducible.

Fault semantics (see ``docs/simulator.md`` for the full model):

- **Node crashes** (:class:`NodeCrash`): the node dies at the barrier
  of the given super-step.  The super-step's results are discarded, the
  dead node's partition is reassigned to the survivors, the engine
  restores the last checkpoint and replays.  Each crash event fires at
  most once (the replacement assignment does not re-crash).
- **Stragglers** (:class:`Straggler`): the node's per-super-step
  compute time is multiplied by ``slowdown``, which stretches every
  barrier it participates in (BSP waits for the slowest node).
- **Transient message loss / duplication**: each remote message may be
  dropped or duplicated in transit with the given probabilities.  The
  transport retransmits (as MPI/TCP do), so *delivery* is unaffected —
  algorithms stay deterministic — but the duplicate bytes are charged
  to communication time and counted in ``RunStats``.

Because transport faults are repaired and crash recovery replays from
a consistent checkpoint, a build that completes under any fault plan
produces an index **identical** to the fault-free build; only the cost
accounting differs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.errors import ReproError


def spec_clauses(spec: str, error: type[ReproError], noun: str):
    """Yield ``(key, value, clause)`` per comma-separated ``key=value``
    clause of a compact fault spec (blank clauses skipped, one without
    ``=`` raises ``error``): the loop :meth:`FaultPlan.parse` and the
    serve side's ``ServeFaultPlan.parse`` share.  What a key means stays
    with each plan."""
    for clause in spec.split(","):
        clause = clause.strip()
        if not clause:
            continue
        key, sep, value = clause.partition("=")
        if not sep:
            raise error(f"bad {noun} clause {clause!r}: expected key=value")
        yield key, value, clause


class FaultSpecError(ReproError):
    """A textual fault spec (``--faults``) could not be parsed."""


@dataclass(frozen=True)
class NodeCrash:
    """Node ``node`` dies at the barrier of super-step ``superstep``."""

    node: int
    superstep: int

    def __post_init__(self):
        if self.node < 0:
            raise ValueError("crash node must be non-negative")
        if self.superstep < 1:
            raise ValueError("crash superstep must be at least 1")


@dataclass(frozen=True)
class Straggler:
    """Node ``node`` computes ``slowdown``× slower every super-step."""

    node: int
    slowdown: float

    def __post_init__(self):
        if self.node < 0:
            raise ValueError("straggler node must be non-negative")
        if self.slowdown < 1.0:
            raise ValueError("straggler slowdown must be >= 1")


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic, seeded schedule of failures for one build.

    Attributes
    ----------
    crashes:
        Node-crash events; each fires at most once per cluster
        lifetime, so a DRL_b build whose batches chain multiple engine
        runs sees each crash exactly once.
    stragglers:
        Per-node compute slowdown multipliers (appl. every super-step).
    loss_rate / duplication_rate:
        Per-remote-message probability of transit loss / duplication
        (repaired by retransmission; cost only).
    seed:
        Seed for the transit-fault RNG.
    """

    crashes: tuple[NodeCrash, ...] = ()
    stragglers: tuple[Straggler, ...] = ()
    loss_rate: float = 0.0
    duplication_rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name, rate in (
            ("loss_rate", self.loss_rate),
            ("duplication_rate", self.duplication_rate),
        ):
            if not 0.0 <= rate < 1.0:
                raise ValueError(f"{name} must be in [0, 1)")
        seen: set[int] = set()
        for crash in self.crashes:
            if crash.node in seen:
                raise ValueError(
                    f"node {crash.node} crashes more than once; a crashed "
                    "node never rejoins the cluster"
                )
            seen.add(crash.node)

    # ------------------------------------------------------------------
    @property
    def has_transit_faults(self) -> bool:
        """True when any message may be lost or duplicated."""
        return self.loss_rate > 0.0 or self.duplication_rate > 0.0

    def validate_for(self, num_nodes: int) -> None:
        """Reject plans that name nodes outside ``[0, num_nodes)`` or
        kill every node (recovery needs at least one survivor)."""
        for event in (*self.crashes, *self.stragglers):
            if event.node >= num_nodes:
                raise ValueError(
                    f"fault plan names node {event.node} but the cluster "
                    f"has only {num_nodes} nodes"
                )
        if len(self.crashes) >= num_nodes:
            raise ValueError(
                f"fault plan crashes all {num_nodes} nodes; at least one "
                "survivor is required to recover"
            )

    def slowdowns(self, num_nodes: int) -> list[float]:
        """Per-node compute multipliers (1.0 for non-stragglers)."""
        factors = [1.0] * num_nodes
        for straggler in self.stragglers:
            factors[straggler.node] = straggler.slowdown
        return factors

    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse a compact textual spec (the CLI's ``--faults``).

        Comma-separated clauses::

            crash=NODE@SUPERSTEP      may repeat (one per node)
            straggler=NODExFACTOR     may repeat (e.g. straggler=2x4.0)
            loss=RATE                 transit loss probability
            dup=RATE                  transit duplication probability
            seed=N                    RNG seed (default 0)

        Example: ``crash=3@5,straggler=2x4.0,loss=0.01,seed=42``.
        Raises :class:`FaultSpecError` on malformed input.
        """
        crashes: list[NodeCrash] = []
        stragglers: list[Straggler] = []
        rates = {"loss": 0.0, "dup": 0.0}
        seed = 0
        for key, value, clause in spec_clauses(spec, FaultSpecError, "fault"):
            try:
                if key == "crash":
                    node, _, step = value.partition("@")
                    crashes.append(NodeCrash(int(node), int(step)))
                elif key == "straggler":
                    node, sep2, factor = value.partition("x")
                    if not sep2:
                        raise ValueError("expected NODExFACTOR")
                    stragglers.append(Straggler(int(node), float(factor)))
                elif key in rates:
                    rates[key] = float(value)
                elif key == "seed":
                    seed = int(value)
                else:
                    raise FaultSpecError(
                        f"unknown fault clause {key!r} (expected crash, "
                        "straggler, loss, dup, or seed)"
                    )
            except ValueError as exc:
                raise FaultSpecError(
                    f"bad fault clause {clause!r}: {exc}"
                ) from exc
        try:
            return cls(
                crashes=tuple(crashes),
                stragglers=tuple(stragglers),
                loss_rate=rates["loss"],
                duplication_rate=rates["dup"],
                seed=seed,
            )
        except ValueError as exc:
            raise FaultSpecError(str(exc)) from exc

    def to_spec(self) -> str:
        """The compact textual spec; inverse of :meth:`parse`.

        ``FaultPlan.parse(plan.to_spec()) == plan`` for every plan, so
        plans can travel through JSON (fuzz-case repro files, configs)
        as one string.
        """
        clauses = [f"crash={c.node}@{c.superstep}" for c in self.crashes]
        clauses += [f"straggler={s.node}x{s.slowdown:g}" for s in self.stragglers]
        if self.loss_rate:
            clauses.append(f"loss={self.loss_rate:g}")
        if self.duplication_rate:
            clauses.append(f"dup={self.duplication_rate:g}")
        if self.seed:
            clauses.append(f"seed={self.seed}")
        return ",".join(clauses)

    def describe(self) -> str:
        """One-line human-readable summary."""
        parts = [f"crash node {c.node}@superstep {c.superstep}" for c in self.crashes]
        parts += [f"straggler node {s.node} x{s.slowdown:g}" for s in self.stragglers]
        if self.loss_rate:
            parts.append(f"loss {self.loss_rate:g}")
        if self.duplication_rate:
            parts.append(f"dup {self.duplication_rate:g}")
        return "; ".join(parts) if parts else "no faults"


@dataclass
class FaultInjector:
    """Mutable per-cluster fault state driven by a :class:`FaultPlan`.

    Owned by a :class:`~repro.pregel.engine.Cluster` and shared across
    its runs, so crash events fire once per cluster lifetime (a DRL_b
    build chains several engine runs over the same cluster) and the
    set of dead nodes persists between runs.
    """

    plan: FaultPlan
    num_nodes: int
    dead: set[int] = field(default_factory=set)
    _armed: dict[int, list[int]] = field(default_factory=dict)
    _rng: random.Random = field(default_factory=random.Random)

    def __post_init__(self):
        self.plan.validate_for(self.num_nodes)
        for crash in self.plan.crashes:
            self._armed.setdefault(crash.superstep, []).append(crash.node)
        for nodes in self._armed.values():
            nodes.sort()
        self._rng = random.Random(self.plan.seed)

    # ------------------------------------------------------------------
    @property
    def survivors(self) -> list[int]:
        """Alive node ids, ascending."""
        return [n for n in range(self.num_nodes) if n not in self.dead]

    @property
    def has_pending(self) -> bool:
        """True while crash events remain armed (not yet fired)."""
        return bool(self._armed)

    def crashes_at(self, superstep: int) -> tuple[int, ...]:
        """Consume and return the crash events due at ``superstep``.

        Events fire at most once; events scheduled past the run's
        termination simply never fire.
        """
        nodes = self._armed.pop(superstep, None)
        if not nodes:
            return ()
        fired = tuple(n for n in nodes if n not in self.dead)
        self.dead.update(fired)
        return fired

    def transit_faults(self, remote_messages: int) -> tuple[int, int]:
        """Seeded draw of (lost, duplicated) among ``remote_messages``.

        One RNG draw per remote message per configured fault kind, so
        the stream — and therefore every run's accounting — is exactly
        reproducible for a given plan seed.
        """
        if remote_messages == 0 or not self.plan.has_transit_faults:
            return 0, 0
        lost = duplicated = 0
        loss, dup = self.plan.loss_rate, self.plan.duplication_rate
        rng = self._rng
        if loss:
            for _ in range(remote_messages):
                if rng.random() < loss:
                    lost += 1
        if dup:
            for _ in range(remote_messages):
                if rng.random() < dup:
                    duplicated += 1
        return lost, duplicated

    def reassign(self, node_of, fired: tuple[int, ...]) -> int:
        """Move vertices owned by newly dead nodes onto survivors.

        Mutates ``node_of`` in place (deterministic round-robin over
        the surviving nodes) and returns the number of reassigned
        vertices.  Called both at crash time and at the start of every
        run, so later runs over the same cluster never schedule work on
        a dead node.
        """
        survivors = self.survivors
        if not survivors:
            raise RuntimeError("no surviving nodes to reassign to")
        dead = self.dead
        moved = 0
        for v in range(len(node_of)):
            if node_of[v] in dead:
                node_of[v] = survivors[v % len(survivors)]
                moved += 1
        return moved
