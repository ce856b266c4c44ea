"""Campaign driver behind ``repro fuzz``.

Runs seeded cases through the oracle matrix, shrinks every failure,
serialises each reduced repro to ``fuzz-failures/*.json``, and renders
the per-family / per-oracle summary table.  Repro files replay with
``repro fuzz --replay FILE``.
"""

from __future__ import annotations

import json
import re
import time
from dataclasses import dataclass, field, replace
from itertools import islice
from pathlib import Path
from typing import Callable, Iterator, Sequence

from repro.fuzz.cases import (
    FuzzCase,
    FuzzCaseError,
    _case_iter,
    generate_cases,
    read_json,
)
from repro.fuzz.oracles import CaseResult, OracleFailure, run_case
from repro.fuzz.shrink import ShrinkResult, shrink_case

#: Default directory for serialized failure repros.
DEFAULT_FAILURES_DIR = Path("fuzz-failures")


@dataclass(frozen=True)
class FailureRecord:
    """One failing case: the original, its reduction, and the repro file."""

    case: FuzzCase
    failure: OracleFailure
    fingerprint: str
    shrunk: FuzzCase | None = None
    path: Path | None = None

    @property
    def reduced_vertices(self) -> int:
        """Vertex count of the repro actually written to disk."""
        final = self.shrunk if self.shrunk is not None else self.case
        return final.num_vertices


@dataclass
class FuzzReport:
    """Outcome of one fuzz campaign."""

    seed: int
    requested: int | None
    completed: int = 0
    elapsed_seconds: float = 0.0
    budget_exhausted: bool = False
    family_cases: dict[str, int] = field(default_factory=dict)
    family_failures: dict[str, int] = field(default_factory=dict)
    oracle_runs: dict[str, int] = field(default_factory=dict)
    oracle_failures: dict[str, int] = field(default_factory=dict)
    failures: list[FailureRecord] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every case passed every applicable oracle."""
        return not self.failures

    def record(self, result: CaseResult) -> None:
        """Fold one case result into the tallies."""
        self.completed += 1
        family = result.case.family
        self.family_cases[family] = self.family_cases.get(family, 0) + 1
        failed_oracles = {f.oracle for f in result.failures}
        if result.failures:
            self.family_failures[family] = (
                self.family_failures.get(family, 0) + 1
            )
        for name in result.oracles_run:
            self.oracle_runs[name] = self.oracle_runs.get(name, 0) + 1
            if name in failed_oracles:
                self.oracle_failures[name] = (
                    self.oracle_failures.get(name, 0) + 1
                )

    def render(self) -> str:
        """The campaign summary table."""
        lines = []
        requested = "∞" if self.requested is None else str(self.requested)
        verdict = "CLEAN" if self.ok else f"{len(self.failures)} FAILURE(S)"
        lines.append(
            f"fuzz campaign: seed {self.seed}, {self.completed}/{requested} "
            f"cases in {self.elapsed_seconds:.1f}s — {verdict}"
        )
        if self.budget_exhausted:
            lines.append("(stopped by --time-budget)")
        lines.append("")
        lines.append(f"{'family':<12} {'cases':>6} {'failures':>9}")
        for family in sorted(self.family_cases):
            lines.append(
                f"{family:<12} {self.family_cases[family]:>6} "
                f"{self.family_failures.get(family, 0):>9}"
            )
        lines.append("")
        lines.append(f"{'oracle':<18} {'runs':>6} {'failures':>9}")
        for oracle in sorted(self.oracle_runs):
            lines.append(
                f"{oracle:<18} {self.oracle_runs[oracle]:>6} "
                f"{self.oracle_failures.get(oracle, 0):>9}"
            )
        if self.failures:
            lines.append("")
            lines.append("failures:")
            for record in self.failures:
                where = f" -> {record.path}" if record.path else ""
                shrunk = ""
                if record.shrunk is not None:
                    shrunk = (
                        f" (shrunk {record.case.num_vertices} -> "
                        f"{record.shrunk.num_vertices} vertices)"
                    )
                lines.append(
                    f"  case {record.case.case_id} "
                    f"[{record.failure.oracle}]{shrunk}{where}"
                )
                lines.append(f"    {record.failure.message}")
        return "\n".join(lines)


def _repro_filename(seed: int, case_id: int, fingerprint: str) -> str:
    slug = re.sub(r"[^A-Za-z0-9_-]+", "-", fingerprint).strip("-")
    return f"case-s{seed}-{case_id}-{slug}.json"


def write_failure(
    record: FailureRecord, failures_dir: Path, seed: int
) -> Path:
    """Serialise one failure as a standalone JSON repro file."""
    failures_dir.mkdir(parents=True, exist_ok=True)
    final = record.shrunk if record.shrunk is not None else record.case
    payload = {
        "seed": seed,
        "case_id": record.case.case_id,
        "oracle": record.failure.oracle,
        "fingerprint": record.fingerprint,
        "message": record.failure.message,
        "case": final.concretize().to_dict(),
        "original_case": record.case.to_dict(),
    }
    path = failures_dir / _repro_filename(seed, record.case.case_id,
                                          record.fingerprint)
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def load_failure(path: str | Path) -> dict:
    """Read a repro file; returns its dict with ``case`` as a FuzzCase.
    A file that holds no case is a :class:`FuzzCaseError` naming it."""
    data = read_json(path)
    if not (isinstance(data, dict) and "case" in data):
        data = {"case": data}  # a bare case file is also accepted
    try:
        data["case"] = FuzzCase.from_dict(data["case"])
    except FuzzCaseError as exc:
        raise FuzzCaseError(f"{path}: {exc}") from None
    return data


def replay_failure(
    path: str | Path, oracles: dict | None = None
) -> tuple[dict, CaseResult]:
    """Re-run the oracle matrix on a serialized repro file."""
    data = load_failure(path)
    return data, run_case(data["case"], oracles=oracles)


def run_fuzz(
    seed: int = 0,
    count: int | None = 100,
    time_budget: float | None = None,
    families: Sequence[str] | None = None,
    failures_dir: Path | None = DEFAULT_FAILURES_DIR,
    shrink: bool = True,
    oracles: dict | None = None,
    max_vertices: int = 26,
    engine: str = "sim",
    progress: Callable[[str], None] | None = None,
) -> FuzzReport:
    """Run a fuzz campaign; fully deterministic for a given seed.

    ``count=None`` with a ``time_budget`` fuzzes until the budget runs
    out (the nightly-CI mode); the case stream is the same infinite
    sequence either way, so ``--cases 200`` sees exactly the first 200
    cases of ``--time-budget``'s stream for the same seed.  Failing
    cases are shrunk (unless ``shrink=False``) and written under
    ``failures_dir`` (``None`` disables the files).

    ``engine="mp"`` stamps every case so the ``engine-mismatch`` oracle
    cross-checks each method's multiprocessing build against the
    simulator build; the case stream itself is unchanged, so an mp
    campaign sees exactly the same graphs as a sim one.
    """
    if count is None and time_budget is None:
        raise ValueError("give a case count, a time budget, or both")
    report = FuzzReport(seed=seed, requested=count)
    cases: Iterator[FuzzCase] = _case_iter(
        seed, families=families, max_vertices=max_vertices
    )
    if engine != "sim":
        cases = (replace(case, engine=engine) for case in cases)
    if count is not None:
        cases = islice(cases, count)
    start = time.monotonic()
    for case in cases:
        if time_budget is not None and time.monotonic() - start >= time_budget:
            report.budget_exhausted = True
            break
        result = run_case(case, oracles=oracles)
        report.record(result)
        if result.ok:
            continue
        failure = result.failures[0]
        if progress is not None:
            progress(
                f"case {case.case_id} failed [{failure.fingerprint}]: "
                f"{failure.message}"
            )
        shrunk: FuzzCase | None = None
        if shrink:
            reduction: ShrinkResult = shrink_case(
                case, fingerprint=failure.fingerprint, oracles=oracles
            )
            shrunk = reduction.case
            failure = reduction.failure
        record = FailureRecord(
            case=case,
            failure=failure,
            fingerprint=failure.fingerprint,
            shrunk=shrunk,
        )
        if failures_dir is not None:
            path = write_failure(record, Path(failures_dir), seed)
            record = FailureRecord(
                case=record.case,
                failure=record.failure,
                fingerprint=record.fingerprint,
                shrunk=record.shrunk,
                path=path,
            )
            if progress is not None:
                progress(f"repro written to {path}")
        report.failures.append(record)
    report.elapsed_seconds = time.monotonic() - start
    return report


__all__ = [
    "DEFAULT_FAILURES_DIR",
    "FailureRecord",
    "FuzzReport",
    "generate_cases",
    "load_failure",
    "replay_failure",
    "run_fuzz",
    "write_failure",
]
