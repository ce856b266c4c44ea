"""Differential fuzzing harness for the reachability index family.

Five builders must agree bit-for-bit (TOL, DRL⁻, DRL, DRL_b, multicore
DRL_b), the condensed and dynamic paths must answer identically, and
the multiprocessing engine must build the simulator's index.
Hand-written unit tests under-cover equivalence claims of that
breadth; this package exercises them continuously:

- :mod:`repro.fuzz.cases` — seeded case generation over graph families
  crossed with cluster/batch/update configurations, with JSON
  round-tripping for repro files;
- :mod:`repro.fuzz.oracles` — the oracle matrix run against each case;
- :mod:`repro.fuzz.shrink` — greedy delta-debugging of failing cases;
- :mod:`repro.fuzz.runner` — the campaign driver behind ``repro fuzz``.
"""

from repro.fuzz.cases import (
    FAMILIES,
    FuzzCase,
    FuzzCaseError,
    family_graph,
    generate_cases,
)
from repro.fuzz.oracles import (
    ORACLES,
    CaseResult,
    OracleFailure,
    oracles_for,
    run_case,
)
from repro.fuzz.runner import FuzzReport, load_failure, replay_failure, run_fuzz
from repro.fuzz.shrink import shrink_case

__all__ = [
    "FAMILIES",
    "FuzzCase",
    "FuzzCaseError",
    "family_graph",
    "generate_cases",
    "ORACLES",
    "CaseResult",
    "OracleFailure",
    "oracles_for",
    "run_case",
    "FuzzReport",
    "load_failure",
    "replay_failure",
    "run_fuzz",
    "shrink_case",
]
