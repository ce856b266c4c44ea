"""``repro.scenarios`` — declarative serving experiments with teeth.

A *scenario* is a committed spec file naming a complete serving
experiment — graph, traffic shape, replica layout, fault schedule,
write burst — plus the assertions it must satisfy (availability floor,
p99 ceiling, zero incorrect answers, minimum failovers).  The runner
executes the spec deterministically and grades the assertions, so the
robustness claims in the docs are one ``repro scenario run`` away from
being re-proven, and CI keeps them honest on every PR.

- :mod:`~repro.scenarios.spec` — the format
  (:class:`ScenarioSpec` and friends, :func:`load_scenario`, the
  committed :func:`library_scenarios`);
- :mod:`~repro.scenarios.runner` — execution + expectation grading +
  the per-version correctness audit (:func:`run_scenario`, on the
  graph the spec names or one of the caller's), the one place that
  stacks store → cache → server;
- :mod:`~repro.scenarios.bench` — ``repro serve-bench``: one spec,
  run once per row (uncached = ``cache_size=0``) and tabulated.

The committed library (``repro/scenarios/library/*.json``) covers:
flash crowd, diurnal wave, hot-key storm, shard loss during a write
burst, and a cache stampede after invalidation.
"""

from repro.scenarios.runner import (
    AuditingBackend,
    ExpectationCheck,
    ScenarioResult,
    run_scenario,
    write_scenario_report,
)
from repro.scenarios.spec import (
    ARRIVAL_SHAPES,
    EXPECTATIONS,
    GraphSpec,
    ReplicationSpec,
    ScenarioSpec,
    ScenarioSpecError,
    ServingSpec,
    TrafficSpec,
    UpdatesSpec,
    library_dir,
    library_scenarios,
    load_scenario,
)

__all__ = [
    "ARRIVAL_SHAPES",
    "AuditingBackend",
    "EXPECTATIONS",
    "ExpectationCheck",
    "GraphSpec",
    "ReplicationSpec",
    "ScenarioResult",
    "ScenarioSpec",
    "ScenarioSpecError",
    "ServingSpec",
    "TrafficSpec",
    "UpdatesSpec",
    "library_dir",
    "library_scenarios",
    "load_scenario",
    "run_scenario",
    "write_scenario_report",
]
