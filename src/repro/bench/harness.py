"""Experiments as values, and the one sweep that runs them.

An :class:`Experiment` says *what* a table or figure is: its tables
and, per dataset row, the :class:`Variant` builds whose statistics land
in their cells (:mod:`repro.bench.registry` holds the paper's).
:func:`sweep` owns *how*: the dataset loop, one ``bench.cell`` span per
build, the failure markers, and cell-by-cell table filling, so an
interrupted run still has its partial results.

Everything is measured in **simulated seconds** from the cost model
(:mod:`repro.pregel.cost_model`): deterministic, and distributed in
behaviour although it executes in one process.  Failures follow the
paper: ``-`` marks a method that cannot run (single-node memory at
paper scale), ``INF`` a simulated cut-off.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.baselines.bfl import build_bfl
from repro.baselines.bfl_distributed import build_bfl_distributed
from repro.bench.results import Cell, ExperimentTable
from repro.core.build import build_index
from repro.errors import OutOfMemoryError, TimeLimitExceeded
from repro.graph.digraph import DiGraph
from repro.graph.order import degree_order
from repro.pregel.cost_model import CostModel, paper_scale_model
from repro.pregel.metrics import RunStats
from repro.pregel.serial import SerialMeter
from repro.telemetry import trace_span
from repro.workloads.datasets import MEDIUM_DATASETS, get_dataset


@dataclass
class Built:
    """One finished build, as the statistics of its cell see it."""

    index: Any
    stats: RunStats
    graph: DiGraph
    cost_model: CostModel
    #: The build this one is measured against (``Variant.needs``).
    base: "Built | None"


Statistic = Callable[[Built], float]


@dataclass(frozen=True, eq=False)
class Variant:
    """One build of a dataset row and where its statistics land."""

    #: The ``method`` attribute of the build's ``bench.cell`` span.
    label: str
    #: A :func:`~repro.core.build.build_index` method, or a BFL baseline.
    method: str
    #: ``(table, column, statistic)`` for every cell this build fills.
    lands: tuple[tuple[int, str, Statistic], ...]
    #: Builder keyword arguments beside graph, order, cost model and
    #: ``num_nodes=32``.
    kwargs: dict = field(default_factory=dict)
    #: The swept attribute, recorded on the span.
    attrs: dict = field(default_factory=dict)
    #: ``(graph, num_nodes, cost_model) -> builder kwargs`` computed from
    #: the row: another graph, order, partitioner or cost model.
    derive: Callable[[DiGraph, int, CostModel], dict] | None = None
    #: An earlier variant of the row whose result the statistics read
    #: as ``built.base``; when it failed, this build is skipped and its
    #: cells take that failure's marker.
    needs: "Variant | None" = None


@dataclass(frozen=True)
class Experiment:
    """One table or figure of the evaluation."""

    name: str
    #: ``ExperimentTable`` keyword arguments (title, precision, ...);
    #: the columns are those the variants land in, in that order.
    tables: Sequence[dict]
    #: The builds of one row.  Called without an argument it gives the
    #: paper's; an experiment with an axis (the swept values of
    #: Figs. 6-9 and of the ablations, the number of sampled query
    #: pairs for Table VI) takes a replacement for it.
    variants: Callable[..., Sequence[Variant]]
    datasets: Sequence[str] = MEDIUM_DATASETS


def _bfl_c(graph, cost_model, **_):
    meter = SerialMeter(cost_model)
    return build_bfl(graph, meter=meter), meter.stats()


def _bfl_d(graph, num_nodes, cost_model, **_):
    return build_bfl_distributed(graph, num_nodes=num_nodes, cost_model=cost_model)


def _labels(graph, method, **kwargs):
    result = build_index(graph, method=method, **kwargs)
    return result.index, result.stats


_BASELINE_BUILDERS = {"bfl-c": _bfl_c, "bfl-d": _bfl_d}


def _run_cell(span_attrs: dict, graph, variant, cost_model, base) -> Built | Cell:
    """Run one build inside its ``bench.cell`` span; failures become
    the paper's markers.  The span carries the comm/comp split, so the
    experiment's table can be reproduced from the trace alone."""
    build = dict(graph=graph, num_nodes=32, cost_model=cost_model) | variant.kwargs
    if variant.derive is not None:
        build |= variant.derive(graph, build["num_nodes"], cost_model)
    build.setdefault("order", degree_order(build["graph"]))
    builder = _BASELINE_BUILDERS.get(variant.method, _labels)
    span_attrs = span_attrs | {"num_nodes": build["num_nodes"]} | variant.attrs
    try:
        with trace_span("bench.cell", method=variant.label, **span_attrs) as span:
            index, stats = builder(method=variant.method, **build)
            span.set(
                computation_seconds=stats.computation_seconds,
                communication_seconds=stats.communication_seconds,
                barrier_seconds=stats.barrier_seconds,
                simulated_seconds=stats.simulated_seconds,
            )
            span.add_simulated(stats.simulated_seconds)
    except TimeLimitExceeded:
        return Cell.timeout()
    except OutOfMemoryError:
        return Cell.unavailable()
    return Built(index, stats, build["graph"], build["cost_model"], base)


def sweep(
    experiment: Experiment,
    datasets: Sequence[str] | None = None,
    axis=None,
    cost_model: CostModel | None = None,
) -> list[ExperimentTable]:
    """Run ``experiment`` and return its tables.

    ``datasets`` defaults to the experiment's own; ``axis`` replaces
    its swept values (see :attr:`Experiment.variants`).
    """
    variants = experiment.variants() if axis is None else experiment.variants(axis)
    if cost_model is None:
        cost_model = paper_scale_model()
    columns: list[dict[str, None]] = [{} for _ in experiment.tables]
    for variant in variants:
        for table, column, _ in variant.lands:
            columns[table][column] = None
    tables = [
        ExperimentTable(columns=list(names), **spec)
        for names, spec in zip(columns, experiment.tables)
    ]
    for dataset in experiment.datasets if datasets is None else datasets:
        spec = get_dataset(dataset)
        graph = spec.load()
        span_attrs = {"experiment": experiment.name, "dataset": dataset}
        row: dict[Variant, Built | Cell] = {}
        for variant in variants:
            base = row.get(variant.needs)
            if not spec.available(variant.method):
                outcome = Cell.unavailable()
            elif isinstance(base, Cell):
                outcome = base
            else:
                outcome = _run_cell(span_attrs, graph, variant, cost_model, base)
            row[variant] = outcome
            for table, column, statistic in variant.lands:
                tables[table].set(
                    dataset,
                    column,
                    outcome if isinstance(outcome, Cell) else statistic(outcome),
                )
    return tables
