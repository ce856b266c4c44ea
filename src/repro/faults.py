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

import dataclasses
import math
import random
import re
from dataclasses import dataclass, field

from repro.errors import ReproError

#: Shape parts read as integers; every other part is a finite float.
_WHOLE = frozenset({"NODE", "SUPERSTEP", "SHARD", "REPLICA", "N"})
#: One part of a shape string — ``NODE``, ``xFACTOR``, ``[:END]`` — as
#: (``[`` when optional, separator, NAME).
_PART = re.compile(r"(\[?)([^A-Z\[\]]?)([A-Z]+)\]?")


def _finite(text: str) -> float:
    number = float(text)
    if not math.isfinite(number):
        raise ValueError(f"{text!r} is not a finite number")
    return number


class SpecPlan:
    """``parse`` / ``to_spec`` for a frozen plan dataclass: the one
    reader and the one writer of compact fault specs — comma-separated
    ``KEY=TARGET[xFACTOR][@WHEN[:UNTIL]]`` or bare ``KEY=NUMBER`` clauses.

    The plan class sets ``SHAPES``: ``{key: (shape string, plan field,
    event type or None)}``.  A key's *shape string*
    (``"SHARD.REPLICAxFACTOR@START[:END]"``) is its grammar, the text of
    its error and its row in the docs table.  A clause's numbers, in
    shape order (``None`` for an absent optional part), are its event
    type's constructor arguments — such a clause may repeat, filling a
    tuple field; a key without an event type sets a scalar field.
    Which plans are *legal* stays with the plan class and its events:
    their ``ValueError``s come back as ``SPEC_ERROR``.
    """

    SHAPES: dict[str, tuple[str, str, type | None]] = {}
    SPEC_ERROR: type[ReproError] = ReproError
    NOUN = "fault"

    @classmethod
    def parse(cls, spec: str):
        """The plan a textual spec describes (the CLI's ``--faults``, a
        scenario's ``faults``); ``SPEC_ERROR`` on malformed input."""
        fields: dict = {}
        for clause in filter(None, map(str.strip, spec.split(","))):
            problem = f"bad {cls.NOUN} clause {clause!r}"
            key, _, value = clause.partition("=")
            if key not in cls.SHAPES:
                raise cls.SPEC_ERROR(
                    f"{problem}: expected one of {', '.join(cls.SHAPES)} as key=value"
                )
            shape, field_name, event = cls.SHAPES[key]
            expected = f"{problem}: expected {key}={shape}"
            parts = _PART.findall(shape)
            pattern = ""
            for optional, mark, _ in parts:
                part = re.escape(mark) + "(.+?)"
                pattern += f"(?:{part})?" if optional else part
            match = re.fullmatch(pattern, value)
            if match is None:
                raise cls.SPEC_ERROR(expected)
            numbers = []
            for (_, _, name), text in zip(parts, match.groups()):
                read = int if name in _WHOLE else _finite
                try:
                    numbers.append(None if text is None else read(text))
                except ValueError:
                    wanted = "an integer" if read is int else "a finite number"
                    raise cls.SPEC_ERROR(
                        f"{expected} ({name} must be {wanted})"
                    ) from None
            try:
                fields[field_name] = numbers[0] if event is None else (
                    *fields.get(field_name, ()), event(*numbers)
                )
            except ValueError as exc:
                raise cls.SPEC_ERROR(f"{problem}: {exc}") from exc
        try:
            return cls(**fields)
        except ValueError as exc:
            raise cls.SPEC_ERROR(str(exc)) from exc

    def to_spec(self) -> str:
        """The compact textual spec, the exact inverse of :meth:`parse`
        (``Plan.parse(plan.to_spec()) == plan``: a number prints as the
        shortest text that reads back to the same value), so plans travel
        through JSON as one string.  Zero scalar fields are left out."""
        clauses = []
        for key, (shape, field_name, event) in self.SHAPES.items():
            value = getattr(self, field_name)
            if event is not None:
                rows = [dataclasses.astuple(item) for item in value]
            else:
                rows = [(value,)] if value else []
            parts = _PART.findall(shape)
            clauses += [
                f"{key}=" + "".join(
                    mark + repr(number).removesuffix(".0")
                    for (_, mark, _), number in zip(parts, row)
                    if number is not None
                )
                for row in rows
            ]
        return ",".join(clauses)


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
class FaultPlan(SpecPlan):
    """A deterministic, seeded schedule of failures for one build.

    ``SHAPES`` is the grammar of the CLI's ``--faults``, e.g.
    ``crash=3@5,straggler=2x4.0,loss=0.01,seed=42``.

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

    SHAPES = {
        "crash": ("NODE@SUPERSTEP", "crashes", NodeCrash),
        "straggler": ("NODExFACTOR", "stragglers", Straggler),
        "loss": ("RATE", "loss_rate", None),
        "dup": ("RATE", "duplication_rate", None),
        "seed": ("N", "seed", None),
    }
    SPEC_ERROR = FaultSpecError

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
