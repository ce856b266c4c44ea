"""The declarative scenario format: one spec file = one experiment.

A scenario names everything a serving experiment needs — graph,
traffic shape, serving/replication configuration, a fault schedule,
an optional mid-traffic write burst — plus **expectations**: named
assertions over the run's report (availability floor, p99 ceiling,
zero incorrect answers, minimum failovers…).  The runner
(:mod:`repro.scenarios.runner`) executes the spec and grades the
expectations, so "does the serving tier survive a replica crash
during a write burst?" becomes a committed file and a one-command
check (``repro scenario run``) instead of a hand-built script.

The format is JSON, a plain nested mapping (the library under
``repro/scenarios/library/`` is all JSON).  Modeled on the SimCash
experiment-protocol idea: the experiment *is* the config file, and the
config file carries its own pass/fail criteria.

Minimal example::

    {
      "name": "smoke",
      "graph": {"kind": "dag", "vertices": 120, "seed": 1},
      "traffic": {
        "pairs": {"count": 2000, "skew": 1.1, "seed": 2},
        "arrivals": {"shape": "poisson", "rate": 400000.0, "seed": 3}
      },
      "serving": {"shards": 4, "replicas": 2, "policy": "primary"},
      "expect": {"availability_min": 0.99}
    }

See ``docs/api.md`` ("Scenario format") for the full field reference.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ReproError, check_count, check_seconds
from repro.graph.generators import GRAPH_KINDS
from repro.graph.partition import PARTITIONER_STRATEGIES
from repro.serve.faults import ServeFaultPlan
from repro.serve.store import READ_POLICIES

#: Arrival shapes the ``traffic.arrivals.shape`` field accepts; with
#: ``"closed"``, ``clients`` clients each send when answered.
ARRIVAL_SHAPES = ("poisson", "uniform", "flash", "sine", "closed")

#: Expectation keys the ``expect`` mapping accepts: what each one
#: checks, and where the runner reads it — a ``ServeReport`` attribute,
#: or a callable of the report and the audit's incorrect-answer count.
#: ``*_min`` asserts ``actual >= value``, ``*_max`` asserts
#: ``actual <= value``.
EXPECTATIONS = {
    "availability_min": ("served / offered", "availability"),
    "served_min": ("requests served", "served"),
    "shed_fraction_max": (
        "shed / offered",
        lambda report, _incorrect: (
            report.shed / report.offered if report.offered else 0.0
        ),
    ),
    "failed_max": ("requests failed (shard unavailable)", "failed"),
    "p50_max_seconds": ("median latency", "p50_seconds"),
    "p99_max_seconds": ("99th-percentile latency", "p99_seconds"),
    "incorrect_answers_max": (
        "served answers differing from the leader's truth",
        lambda _report, incorrect: incorrect,
    ),
    "failovers_min": ("shard failovers observed", "failovers"),
    "failovers_max": ("shard failovers observed", "failovers"),
    "cache_hit_rate_min": ("cache hits / lookups", "cache_hit_rate"),
    "confirmed_reads_min": (
        "stale reads confirmed against the leader", "confirmed_reads"
    ),
    "stale_reads_min": (
        "stale reads served under the monotonicity guard", "stale_reads"
    ),
    "mutations_applied_min": (
        "writes applied to the leader index", "mutations_applied"
    ),
    "mutations_shed_max": ("writes shed at the admission queue", "mutations_shed"),
    "update_throughput_min": (
        "applied writes per simulated second", "update_throughput"
    ),
    "staleness_window_max_seconds": (
        "peak replication staleness window", "staleness_window_seconds"
    ),
}


class ScenarioSpecError(ReproError):
    """A scenario file or mapping is malformed."""


def _require(mapping: dict, key: str, context: str):
    if key not in mapping:
        raise ScenarioSpecError(f"{context} is missing required key {key!r}")
    return mapping[key]


def _reject_unknown(mapping: dict, allowed: set[str], context: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise ScenarioSpecError(
            f"{context} has unknown key(s): {', '.join(sorted(unknown))} "
            f"(allowed: {', '.join(sorted(allowed))})"
        )


def _block(spec_type, raw: dict, context: str):
    """A spec dataclass from its JSON block: the block's keys *are* the
    dataclass's fields, so the allow-list is ``dataclasses.fields``."""
    raw = dict(raw)
    _reject_unknown(raw, {f.name for f in dataclasses.fields(spec_type)}, context)
    return spec_type(**raw)


@dataclass(frozen=True)
class GraphSpec:
    """Which synthetic graph the scenario serves."""

    kind: str = "dag"
    vertices: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.kind not in GRAPH_KINDS:
            raise ScenarioSpecError(
                f"unknown graph kind {self.kind!r} "
                f"(known: {', '.join(sorted(GRAPH_KINDS))})"
            )
        if self.vertices < 2:
            raise ScenarioSpecError("graph needs at least two vertices")

    def build(self):
        """Generate the graph."""
        return GRAPH_KINDS[self.kind](self.vertices, seed=self.seed)


@dataclass(frozen=True)
class TrafficSpec:
    """Query pairs plus the arrival process that offers them."""

    requests: int = 2000
    skew: float = 1.1
    pairs_seed: int = 0
    shape: str = "poisson"
    rate: float = 400_000.0
    arrivals_seed: int = 0
    #: Flash-crowd phases as ``[count, rate]`` rows (shape="flash").
    phases: tuple[tuple[int, float], ...] = ()
    #: Sine-wave modulation (shape="sine").
    amplitude: float = 0.5
    period_seconds: float = 0.002
    #: Closed-loop client count (shape="closed", which needs it).
    clients: int | None = None

    def __post_init__(self):
        if self.shape not in ARRIVAL_SHAPES:
            raise ScenarioSpecError(
                f"unknown arrival shape {self.shape!r} "
                f"(known: {', '.join(ARRIVAL_SHAPES)})"
            )
        if self.shape == "flash":
            if not self.phases:
                raise ScenarioSpecError("flash arrivals need 'phases'")
        elif self.shape == "closed" and self.phases:
            raise ScenarioSpecError("closed-loop arrivals take no 'phases'")
        elif self.requests < 1:
            raise ScenarioSpecError("traffic needs at least one request")
        if self.shape == "closed":
            if self.clients is None:
                raise ScenarioSpecError("closed-loop arrivals need 'clients'")
            check_count("clients", self.clients, error=ScenarioSpecError)
        elif self.clients is not None:
            raise ScenarioSpecError("only closed-loop arrivals take 'clients'")
        if self.rate <= 0:
            raise ScenarioSpecError("arrival rate must be positive")
        check_seconds("skew", self.skew, error=ScenarioSpecError)

    @property
    def total_requests(self) -> int:
        """Requests offered, across phases for flash traffic."""
        if self.shape == "flash":
            return sum(count for count, _ in self.phases)
        return self.requests

    def build(self, num_vertices: int) -> tuple[list, list[float] | None]:
        """Materialize (pairs, arrival times); no times for closed loops."""
        from repro.workloads.traffic import (
            phased_arrivals,
            poisson_arrivals,
            sine_arrivals,
            uniform_arrivals,
            zipf_pairs,
        )

        count = self.total_requests
        pairs = zipf_pairs(num_vertices, count, seed=self.pairs_seed, skew=self.skew)
        if self.shape == "poisson":
            arrivals = poisson_arrivals(count, self.rate, seed=self.arrivals_seed)
        elif self.shape == "uniform":
            arrivals = uniform_arrivals(count, self.rate)
        elif self.shape == "flash":
            arrivals = phased_arrivals(
                [tuple(p) for p in self.phases], seed=self.arrivals_seed
            )
        elif self.shape == "closed":
            arrivals = None
        else:
            arrivals = sine_arrivals(
                count,
                self.rate,
                amplitude=self.amplitude,
                period_seconds=self.period_seconds,
                seed=self.arrivals_seed,
            )
        return pairs, arrivals


#: The ``traffic`` block's two sub-blocks: each file key → the
#: :class:`TrafficSpec` field it sets.
_TRAFFIC_KEYS = {
    "pairs": {"count": "requests", "skew": "skew", "seed": "pairs_seed"},
    "arrivals": {"shape": "shape", "rate": "rate", "seed": "arrivals_seed",
                 "phases": "phases", "amplitude": "amplitude",
                 "period_seconds": "period_seconds", "clients": "clients"},
}


@dataclass(frozen=True)
class ServingSpec:
    """Store, replica, cache, and pipeline configuration."""

    shards: int = 4
    partitioner: str = "hash"
    replicas: int = 2
    policy: str = "primary"
    cache_size: int = 1024
    negative_cache: bool = True
    queue_depth: int = 1024
    batch_size: int = 32
    deadline_seconds: float | None = None

    def __post_init__(self):
        if self.partitioner not in PARTITIONER_STRATEGIES:
            raise ScenarioSpecError(
                f"unknown partitioner {self.partitioner!r} "
                f"(known: {', '.join(sorted(PARTITIONER_STRATEGIES))})"
            )
        if self.policy not in READ_POLICIES:
            raise ScenarioSpecError(
                f"unknown read policy {self.policy!r} "
                f"(known: {', '.join(READ_POLICIES)})"
            )
        for name in ("shards", "replicas", "queue_depth", "batch_size"):
            check_count(name, getattr(self, name), error=ScenarioSpecError)
        # 0 is legal: the runner reads it as "no cache".
        check_count(
            "cache_size", self.cache_size, minimum=0, error=ScenarioSpecError
        )
        if self.deadline_seconds is not None:
            check_seconds(
                "deadline_seconds",
                self.deadline_seconds,
                positive=True,
                error=ScenarioSpecError,
            )


@dataclass(frozen=True)
class ReplicationSpec:
    """Bounded-staleness replication of dynamic updates."""

    delay_seconds: float = 1e-3
    max_lag: int = 64
    apply_seconds_per_op: float = 1e-5

    def __post_init__(self):
        for name in ("delay_seconds", "apply_seconds_per_op"):
            check_seconds(name, getattr(self, name), error=ScenarioSpecError)
        check_count("max_lag", self.max_lag, error=ScenarioSpecError)


#: Poisson write arrivals draw from the updates ``seed`` plus this, so
#: they are not the same draws as the write stream itself.
WRITE_ARRIVALS_SEED_OFFSET = 4


@dataclass(frozen=True)
class UpdatesSpec:
    """A mid-traffic write burst against the leader index.

    ``via`` picks the write route: ``"direct"`` applies each update to
    the leader at its scheduled time from the serving loop's
    ``on_advance`` hook (the original behavior); ``"serve"`` submits
    the writes as requests through the admission queue — they contend
    with reads, can be shed, and appear in traces and in the run's
    ``mutations_*`` totals (see ``docs/dynamic.md``).
    ``node_ratio`` > 0 mixes node additions/deletions into the burst;
    ``promote_ratio`` > 0 mixes in order upgrades.  From
    ``start_seconds`` the writes arrive every ``interval_seconds``, or
    with a ``rate`` as a Poisson process seeded by ``seed`` +
    :data:`WRITE_ARRIVALS_SEED_OFFSET`.
    ``drift_threshold`` turns on the leader's drift-triggered promotes.
    """

    count: int = 20
    insert_ratio: float = 0.5
    node_ratio: float = 0.0
    promote_ratio: float = 0.0
    seed: int = 0
    start_seconds: float = 0.0
    interval_seconds: float = 5e-5
    via: str = "direct"
    rate: float | None = None
    drift_threshold: int | None = None

    def __post_init__(self):
        # 0 is legal: the stack is still the dynamic one, with no writes.
        check_count("updates.count", self.count, 0, error=ScenarioSpecError)
        for name in ("insert_ratio", "node_ratio", "promote_ratio"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ScenarioSpecError(f"{name} must lie in [0, 1]")
        if self.node_ratio + self.promote_ratio > 1.0:
            raise ScenarioSpecError(
                "node_ratio + promote_ratio must not exceed 1"
            )
        for name in ("start_seconds", "interval_seconds"):
            check_seconds(name, getattr(self, name), error=ScenarioSpecError)
        if self.via not in ("direct", "serve"):
            raise ScenarioSpecError(
                f"unknown updates.via {self.via!r} "
                "(known: direct, serve)"
            )
        if self.rate is not None:
            check_seconds("updates.rate", self.rate, True, error=ScenarioSpecError)
        if self.drift_threshold is not None:
            check_count("drift_threshold", self.drift_threshold, error=ScenarioSpecError)

    def arrivals(self) -> list[float]:
        """When each write of the burst is due on the serving clock."""
        from repro.workloads.traffic import poisson_arrivals

        if self.rate is None:
            gaps = [i * self.interval_seconds for i in range(self.count)]
        else:
            gaps = poisson_arrivals(
                self.count, self.rate, seed=self.seed + WRITE_ARRIVALS_SEED_OFFSET
            )
        return [self.start_seconds + gap for gap in gaps]


@dataclass(frozen=True)
class ScenarioSpec:
    """One complete, assertable serving experiment."""

    name: str
    description: str = ""
    graph: GraphSpec = field(default_factory=GraphSpec)
    traffic: TrafficSpec = field(default_factory=TrafficSpec)
    serving: ServingSpec = field(default_factory=ServingSpec)
    replication: ReplicationSpec | None = None
    updates: UpdatesSpec | None = None
    faults: ServeFaultPlan = field(default_factory=ServeFaultPlan)
    expect: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if not self.name:
            raise ScenarioSpecError("a scenario needs a name")
        for key in self.expect:
            if key not in EXPECTATIONS:
                raise ScenarioSpecError(
                    f"unknown expectation {key!r} "
                    f"(known: {', '.join(sorted(EXPECTATIONS))})"
                )
        try:
            self.faults.validate_for(self.serving.shards, self.serving.replicas)
        except ValueError as exc:
            raise ScenarioSpecError(str(exc)) from exc
        if self.traffic.shape == "closed":
            if self.updates is not None and self.updates.via == "serve":
                raise ScenarioSpecError(
                    "closed-loop traffic cannot carry served writes"
                )
            if self.traffic.clients > self.serving.queue_depth:
                raise ScenarioSpecError(
                    f"closed-loop clients ({self.traffic.clients}) exceed "
                    f"serving.queue_depth ({self.serving.queue_depth})"
                )

    # ------------------------------------------------------------------
    @property
    def dynamic(self) -> bool:
        """Does this scenario serve a live (updatable) index?  Updates
        without a replication block are legal (every replica reads the
        leader synchronously); the block makes staleness part of the run."""
        return self.updates is not None or self.replication is not None

    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioSpec":
        """Build a spec from a plain nested mapping (parsed JSON)."""
        if not isinstance(raw, dict):
            raise ScenarioSpecError("a scenario must be a mapping")
        _reject_unknown(raw, {f.name for f in dataclasses.fields(cls)}, "scenario")
        name = _require(raw, "name", "scenario")

        graph = _block(GraphSpec, raw.get("graph", {}), "graph")

        traffic_raw = dict(raw.get("traffic", {}))
        _reject_unknown(traffic_raw, set(_TRAFFIC_KEYS), "traffic")
        # Only the keys the file names: TrafficSpec holds the defaults.
        named = {}
        for block, fields in _TRAFFIC_KEYS.items():
            block_raw = dict(traffic_raw.get(block, {}))
            _reject_unknown(block_raw, set(fields), f"traffic.{block}")
            named.update((fields[key], value) for key, value in block_raw.items())
        if "phases" in named:
            try:
                named["phases"] = tuple((int(c), float(r)) for c, r in named["phases"])
            except (TypeError, ValueError) as exc:
                raise ScenarioSpecError(
                    "traffic.arrivals.phases must be [count, rate] rows"
                ) from exc
        traffic = TrafficSpec(**named)

        serving = _block(ServingSpec, raw.get("serving", {}), "serving")
        replication = updates = None
        if raw.get("replication") is not None:
            replication = _block(ReplicationSpec, raw["replication"], "replication")
        if raw.get("updates") is not None:
            updates = _block(UpdatesSpec, raw["updates"], "updates")

        faults_raw = raw.get("faults", "")
        if isinstance(faults_raw, ServeFaultPlan):
            faults = faults_raw
        else:
            faults = ServeFaultPlan.parse(faults_raw or "")

        expect = dict(raw.get("expect", {}))
        return cls(
            name=name,
            description=raw.get("description", ""),
            graph=graph,
            traffic=traffic,
            serving=serving,
            replication=replication,
            updates=updates,
            faults=faults,
            expect=expect,
        )

    def to_dict(self) -> dict:
        """The plain-mapping form; inverse of :meth:`from_dict`."""
        raw: dict = {
            "name": self.name,
            "graph": dataclasses.asdict(self.graph),
            "traffic": {
                "pairs": {
                    "count": self.traffic.requests,
                    "skew": self.traffic.skew,
                    "seed": self.traffic.pairs_seed,
                },
                "arrivals": {
                    "shape": self.traffic.shape,
                    "rate": self.traffic.rate,
                    "seed": self.traffic.arrivals_seed,
                },
            },
            "serving": dataclasses.asdict(self.serving),
            "expect": dict(self.expect),
        }
        if self.description:
            raw["description"] = self.description
        if self.traffic.shape == "flash":
            raw["traffic"]["arrivals"]["phases"] = [
                [c, r] for c, r in self.traffic.phases
            ]
        if self.traffic.shape == "sine":
            raw["traffic"]["arrivals"]["amplitude"] = self.traffic.amplitude
            raw["traffic"]["arrivals"]["period_seconds"] = (
                self.traffic.period_seconds
            )
        if self.traffic.shape == "closed":
            raw["traffic"]["arrivals"]["clients"] = self.traffic.clients
        if self.replication is not None:
            raw["replication"] = dataclasses.asdict(self.replication)
        if self.updates is not None:
            # Poisson write arrivals and drift promotes appear only when
            # set, so a burst that uses neither keeps the block it had.
            updates = raw["updates"] = dataclasses.asdict(self.updates)
            if self.updates.rate is None:
                del updates["rate"]
            if self.updates.drift_threshold is None:
                del updates["drift_threshold"]
        if not self.faults.empty:
            raw["faults"] = self.faults.to_spec()
        return raw


def load_scenario(path: str | Path) -> ScenarioSpec:
    """Load one scenario file (JSON)."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioSpecError(f"cannot read scenario {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioSpecError(f"{path} is not valid JSON: {exc}") from exc
    return ScenarioSpec.from_dict(raw)


def library_dir() -> Path:
    """Where the committed scenario library lives."""
    return Path(__file__).parent / "library"


def library_scenarios() -> dict[str, Path]:
    """Committed library scenarios: ``name -> path``, sorted by name."""
    return {
        path.stem: path for path in sorted(library_dir().glob("*.json"))
    }
