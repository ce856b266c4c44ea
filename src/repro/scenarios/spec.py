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

The format is JSON-native (the library under
``repro/scenarios/library/`` is all JSON); YAML files load too when
PyYAML happens to be installed — the format is a plain nested mapping
either way.  Modeled on the SimCash experiment-protocol idea: the
experiment *is* the config file, and the config file carries its own
pass/fail criteria.

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

#: Arrival shapes the ``traffic.arrivals.shape`` field accepts.
ARRIVAL_SHAPES = ("poisson", "uniform", "flash", "sine")

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

    def __post_init__(self):
        if self.shape not in ARRIVAL_SHAPES:
            raise ScenarioSpecError(
                f"unknown arrival shape {self.shape!r} "
                f"(known: {', '.join(ARRIVAL_SHAPES)})"
            )
        if self.shape == "flash":
            if not self.phases:
                raise ScenarioSpecError("flash arrivals need 'phases'")
        elif self.requests < 1:
            raise ScenarioSpecError("traffic needs at least one request")
        if self.rate <= 0:
            raise ScenarioSpecError("arrival rate must be positive")

    @property
    def total_requests(self) -> int:
        """Requests offered, across phases for flash traffic."""
        if self.shape == "flash":
            return sum(count for count, _ in self.phases)
        return self.requests

    def build(self, num_vertices: int) -> tuple[list[tuple[int, int]], list[float]]:
        """Materialize (pairs, arrival times)."""
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
        else:
            arrivals = sine_arrivals(
                count,
                self.rate,
                amplitude=self.amplitude,
                period_seconds=self.period_seconds,
                seed=self.arrivals_seed,
            )
        return pairs, arrivals


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


@dataclass(frozen=True)
class UpdatesSpec:
    """A mid-traffic write burst against the leader index.

    ``via`` picks the write route: ``"direct"`` applies each update to
    the leader at its scheduled time from the serving loop's
    ``on_advance`` hook (the original behavior); ``"serve"`` submits
    the writes as requests through the admission queue — they contend
    with reads, can be shed, and appear in traces and
    ``serve.mutation.*`` metrics (see ``docs/dynamic.md``).
    ``node_ratio`` > 0 mixes node additions/deletions into the burst;
    ``promote_ratio`` > 0 mixes in order upgrades.
    """

    count: int = 20
    insert_ratio: float = 0.5
    node_ratio: float = 0.0
    promote_ratio: float = 0.0
    seed: int = 0
    start_seconds: float = 0.0
    interval_seconds: float = 5e-5
    via: str = "direct"

    def __post_init__(self):
        if self.count < 1:
            raise ScenarioSpecError("updates.count must be >= 1")
        for name in ("insert_ratio", "node_ratio", "promote_ratio"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ScenarioSpecError(f"{name} must lie in [0, 1]")
        if self.node_ratio + self.promote_ratio > 1.0:
            raise ScenarioSpecError(
                "node_ratio + promote_ratio must not exceed 1"
            )
        if self.start_seconds < 0 or self.interval_seconds < 0:
            raise ScenarioSpecError("update times must be non-negative")
        if self.via not in ("direct", "serve"):
            raise ScenarioSpecError(
                f"unknown updates.via {self.via!r} "
                "(known: direct, serve)"
            )


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

    # ------------------------------------------------------------------
    @property
    def dynamic(self) -> bool:
        """Does this scenario serve a live (updatable) index?  Updates
        without a replication block are legal (every replica reads the
        leader synchronously); the block makes staleness part of the run."""
        return self.updates is not None or self.replication is not None

    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioSpec":
        """Build a spec from a plain nested mapping (parsed JSON/YAML)."""
        if not isinstance(raw, dict):
            raise ScenarioSpecError("a scenario must be a mapping")
        _reject_unknown(raw, {f.name for f in dataclasses.fields(cls)}, "scenario")
        name = _require(raw, "name", "scenario")

        graph = _block(GraphSpec, raw.get("graph", {}), "graph")

        traffic_raw = dict(raw.get("traffic", {}))
        _reject_unknown(traffic_raw, {"pairs", "arrivals"}, "traffic")
        pairs_raw = dict(traffic_raw.get("pairs", {}))
        _reject_unknown(pairs_raw, {"count", "skew", "seed"}, "traffic.pairs")
        arrivals_raw = dict(traffic_raw.get("arrivals", {}))
        _reject_unknown(
            arrivals_raw,
            {"shape", "rate", "seed", "phases", "amplitude", "period_seconds"},
            "traffic.arrivals",
        )
        phases = arrivals_raw.get("phases", ())
        try:
            phases = tuple((int(c), float(r)) for c, r in phases)
        except (TypeError, ValueError) as exc:
            raise ScenarioSpecError(
                "traffic.arrivals.phases must be [count, rate] rows"
            ) from exc
        traffic = TrafficSpec(
            requests=pairs_raw.get("count", 2000),
            skew=pairs_raw.get("skew", 1.1),
            pairs_seed=pairs_raw.get("seed", 0),
            shape=arrivals_raw.get("shape", "poisson"),
            rate=arrivals_raw.get("rate", 400_000.0),
            arrivals_seed=arrivals_raw.get("seed", 0),
            phases=phases,
            amplitude=arrivals_raw.get("amplitude", 0.5),
            period_seconds=arrivals_raw.get("period_seconds", 0.002),
        )

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
        if self.replication is not None:
            raw["replication"] = dataclasses.asdict(self.replication)
        if self.updates is not None:
            raw["updates"] = dataclasses.asdict(self.updates)
        if not self.faults.empty:
            raw["faults"] = self.faults.to_spec()
        return raw


def load_scenario(path: str | Path) -> ScenarioSpec:
    """Load one scenario file (JSON always; YAML when PyYAML exists)."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioSpecError(f"cannot read scenario {path}: {exc}") from exc
    if path.suffix in (".yaml", ".yml"):
        try:
            import yaml
        except ImportError as exc:
            raise ScenarioSpecError(
                f"{path} is YAML but PyYAML is not installed; "
                "use the JSON form instead"
            ) from exc
        raw = yaml.safe_load(text)
    else:
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
