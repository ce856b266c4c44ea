"""Tier-1 smoke of the differential fuzzing harness.

25 seeded cases per graph family run the full oracle matrix and must
pass clean; generation is asserted deterministic; failure repro files
round-trip through serialisation and replay with the same failure
fingerprint (exercised via an intentionally broken oracle stub).
"""

import json

import pytest

from repro.fuzz import (
    FAMILIES,
    FuzzCase,
    family_graph,
    generate_cases,
    load_failure,
    oracles_for,
    replay_failure,
    run_case,
    run_fuzz,
)
import repro.fuzz.oracles
from repro.core.dynamic import DynamicReachabilityIndex
from repro.fuzz.oracles import ORACLES, CaseContext, oracle_dynamic_vs_rebuild
from repro.graph.scc import strongly_connected_components
from repro.graph.traversal import reachable_set


# ----------------------------------------------------------------------
# Per-family clean sweep (the smoke tier CI runs on every PR)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("family", FAMILIES)
def test_family_smoke_25_cases_clean(family):
    for case in generate_cases(seed=42, count=25, families=[family]):
        result = run_case(case)
        assert result.ok, (
            case.describe(),
            [f"[{f.oracle}] {f.message}" for f in result.failures],
        )


# ----------------------------------------------------------------------
# Deterministic generation
# ----------------------------------------------------------------------
def test_generation_is_deterministic():
    assert generate_cases(seed=5, count=30) == generate_cases(seed=5, count=30)
    assert generate_cases(seed=5, count=30) != generate_cases(seed=6, count=30)


def test_generation_prefix_stable():
    """A longer campaign sees exactly the shorter one's cases first —
    the property that makes --cases and --time-budget interchangeable."""
    assert generate_cases(seed=9, count=10) == generate_cases(seed=9, count=40)[:10]


def test_generation_round_robins_families():
    cases = generate_cases(seed=0, count=2 * len(FAMILIES))
    assert [c.family for c in cases] == list(FAMILIES) * 2


def test_generation_rejects_unknown_family():
    with pytest.raises(ValueError, match="unknown graph family"):
        generate_cases(seed=0, count=1, families=["moebius"])


def test_family_graph_rejects_unknown_family():
    with pytest.raises(ValueError, match="unknown graph family"):
        family_graph("moebius", 10, 0)


def test_family_graphs_have_expected_structure():
    for family in FAMILIES:
        g = family_graph(family, 20, seed=3)
        assert g.num_vertices >= 4
        assert g.num_edges > 0
    sccs = strongly_connected_components(family_graph("scc-heavy", 30, seed=1))
    assert any(len(c) > 1 for c in sccs)
    dag = family_graph("dag", 20, seed=2)
    assert all(len(c) == 1 for c in strongly_connected_components(dag))


def test_oracle_applicability():
    base = FuzzCase(case_id=0, family="dag", seed=1, num_vertices=8)
    names = oracles_for(base)
    assert "dynamic-vs-rebuild" not in names
    assert {"methods-agree", "cover", "soundness", "canonical"} <= set(names)
    full = FuzzCase(
        case_id=0, family="dag", seed=1, num_vertices=8,
        updates=(("insert", 0, 1),),
    )
    assert "dynamic-vs-rebuild" in oracles_for(full)


class _PromoteReportsCones(DynamicReachabilityIndex):
    """A promote that names its two whole cones in ``touched``."""

    def promote(self, v, new_rank=None):
        applied = super().promote(v, new_rank)
        if applied is not None:
            graph = self.current_graph()
            self.touched = (reachable_set(graph.reverse(), v), reachable_set(graph, v))
        return applied


def test_dynamic_oracle_checks_touched_for_every_op(monkeypatch):
    # The path 0 → 1 → 2 → 3, degree order 1 > 2 > 0 > 3: promoting 2 to
    # the top leaves its own L_out row as it was, so its backward cone
    # names one row too many.
    case = FuzzCase(
        case_id=0, family="dag", seed=1, num_vertices=3, edges=((0, 1), (1, 2)),
        updates=(("add_node", 3, 3), ("insert", 2, 3), ("promote", 2, 0)),
    )
    assert oracle_dynamic_vs_rebuild(CaseContext(case)) == []
    monkeypatch.setattr(repro.fuzz.oracles, "DynamicReachabilityIndex", _PromoteReportsCones)
    (violation,) = oracle_dynamic_vs_rebuild(CaseContext(case))
    assert violation.startswith("after update 2 (promote 2->0): touched")


# ----------------------------------------------------------------------
# Case serialisation
# ----------------------------------------------------------------------
def test_case_json_round_trip(tmp_path):
    case = generate_cases(seed=11, count=8)[7].concretize()
    assert FuzzCase.from_dict(case.to_dict()) == case
    path = tmp_path / "case.json"
    case.save(path)
    assert FuzzCase.load(path) == case


def test_a_case_written_with_null_fault_fields_still_loads():
    # Every repro file written while builds could inject faults holds
    # both keys, null unless the case used them.
    case = generate_cases(seed=11, count=1)[0]
    old = {**case.to_dict(), "faults": None, "checkpoint_interval": None}
    assert FuzzCase.from_dict(old) == case


def test_concretize_pins_the_generated_graph():
    case = generate_cases(seed=3, count=1)[0]
    concrete = case.concretize()
    assert concrete.edges is not None
    assert concrete.graph() == case.graph()
    assert concrete.concretize() is concrete


# ----------------------------------------------------------------------
# Failure repro round-trip (broken oracle stub)
# ----------------------------------------------------------------------
def _broken_oracles(threshold=6):
    """Oracle registry whose 'cover' stub flags any graph with at
    least ``threshold`` vertices — a deterministic, shrinkable bug."""

    def stub(ctx):
        n = ctx.graph.num_vertices
        if n >= threshold:
            return [f"stub violation: graph has {n} >= {threshold} vertices"]
        return []

    oracles = dict(ORACLES)
    oracles["cover"] = stub
    return oracles


def test_replay_round_trip_same_fingerprint(tmp_path):
    oracles = _broken_oracles()
    report = run_fuzz(
        seed=13, count=3, oracles=oracles, failures_dir=tmp_path
    )
    assert not report.ok
    assert report.failures[0].path is not None
    # Serialise → load → replay must reproduce the same fingerprint.
    data = load_failure(report.failures[0].path)
    assert isinstance(data["case"], FuzzCase)
    replayed_data, result = replay_failure(report.failures[0].path, oracles=oracles)
    assert data["fingerprint"] in result.fingerprints
    # ... and the shrunk repro is minimal for the stub's threshold.
    assert replayed_data["case"].num_vertices == 6
    # A fixed registry no longer reproduces it (repro is stub-specific).
    _, clean = replay_failure(report.failures[0].path)
    assert data["fingerprint"] not in clean.fingerprints


def test_repro_file_contents(tmp_path):
    report = run_fuzz(
        seed=21, count=1, oracles=_broken_oracles(threshold=4),
        failures_dir=tmp_path,
    )
    assert len(report.failures) == 1
    payload = json.loads(report.failures[0].path.read_text())
    assert payload["oracle"] == "cover"
    assert payload["fingerprint"] == "cover"
    assert "stub violation" in payload["message"]
    assert payload["case"]["edges"] is not None  # pinned, generator-free
    assert payload["original_case"]["case_id"] == payload["case_id"]


def test_run_fuzz_summary_tallies():
    report = run_fuzz(seed=42, count=10, failures_dir=None)
    assert report.ok
    assert report.completed == 10
    assert sum(report.family_cases.values()) == 10
    assert report.oracle_runs["methods-agree"] == 10
    rendered = report.render()
    assert "CLEAN" in rendered
    for family in FAMILIES:
        assert family in rendered


def test_run_fuzz_requires_count_or_budget():
    with pytest.raises(ValueError, match="case count"):
        run_fuzz(seed=0, count=None, time_budget=None)


def test_oracle_crash_is_a_finding():
    def exploding(ctx):
        raise RuntimeError("oracle blew up")

    oracles = dict(ORACLES)
    oracles["condensed"] = exploding
    case = generate_cases(seed=1, count=1)[0]
    result = run_case(case, oracles=oracles)
    assert not result.ok
    failure = next(f for f in result.failures if f.oracle == "condensed")
    assert failure.kind == "exception"
    assert failure.fingerprint == "condensed!RuntimeError"


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_fuzz_clean_campaign(tmp_path, capsys):
    from repro.cli import main

    assert main([
        "fuzz", "--cases", "5", "--seed", "3",
        "--failures-dir", str(tmp_path / "failures"),
    ]) == 0
    out = capsys.readouterr().out
    assert "CLEAN" in out
    assert "methods-agree" in out
    assert not (tmp_path / "failures").exists()  # no failures, no dir


def test_cli_fuzz_families_and_time_budget(tmp_path, capsys):
    from repro.cli import main

    assert main([
        "fuzz", "--cases", "4", "--seed", "3", "--families", "lattice",
        "--time-budget", "60",
        "--failures-dir", str(tmp_path / "failures"),
    ]) == 0
    out = capsys.readouterr().out
    assert "lattice" in out
    assert "power-law" not in out  # only the chosen family ran
    assert "4/4 cases" in out


def test_cli_fuzz_replay_missing_file(tmp_path, capsys):
    from repro.cli import main

    assert main(["fuzz", "--replay", str(tmp_path / "no.json")]) == 2
    assert "no such file" in capsys.readouterr().err


def test_cli_fuzz_rejects_bad_time_budget(capsys):
    from repro.cli import main

    assert main(["fuzz", "--time-budget", "-3"]) == 2
    assert "--time-budget" in capsys.readouterr().err


def test_cli_fuzz_replay_fixed_repro_reports_clean(tmp_path, capsys):
    """A repro whose bug has since been fixed replays as 'no longer
    reproduces' with exit code 0."""
    from repro.cli import main

    report = run_fuzz(
        seed=13, count=1, oracles=_broken_oracles(threshold=4),
        failures_dir=tmp_path,
    )
    path = report.failures[0].path
    assert main(["fuzz", "--replay", str(path)]) == 0
    out = capsys.readouterr().out
    assert "no longer reproduces" in out
