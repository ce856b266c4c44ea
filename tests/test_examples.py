"""Smoke tests: every example script must run end-to-end."""

import runpy
import sys
from pathlib import Path

import pytest

import repro.bench

EXAMPLES = sorted(
    (Path(__file__).parent.parent / "examples").glob("*.py"),
    key=lambda p: p.name,
)


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
def test_example_runs(script, capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", [str(script)])
    if script.name == "reproduce_paper.py":
        # Every experiment's sweep runs in test_bench.py and in CI's
        # paper-shape job; here the script's own loop runs once, on the
        # cheapest experiment.
        table6 = repro.bench.EXPERIMENTS["table6"]
        monkeypatch.setattr(repro.bench, "EXPERIMENTS", {"table6": table6})
    try:
        runpy.run_path(str(script), run_name="__main__")
    except SystemExit as exit_info:
        assert not exit_info.code, f"{script.name} exited with {exit_info.code}"
    out = capsys.readouterr().out
    assert out.strip(), f"{script.name} produced no output"


def test_examples_exist():
    names = {p.name for p in EXAMPLES}
    assert {"quickstart.py", "social_influence.py",
            "citation_provenance.py", "cluster_sizing.py"} <= names
