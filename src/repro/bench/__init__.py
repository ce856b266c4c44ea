"""Experiment harness: the registry of paper experiments and its sweep."""

from repro.bench.harness import Experiment, Variant, sweep
from repro.bench.registry import EXPERIMENTS
from repro.bench.results import (
    Cell,
    ExperimentTable,
    atomic_write_text,
    capture_tables,
)

__all__ = [
    "Cell",
    "EXPERIMENTS",
    "Experiment",
    "ExperimentTable",
    "Variant",
    "atomic_write_text",
    "capture_tables",
    "sweep",
]
