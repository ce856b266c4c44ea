"""Tests for the build_index façade."""

from functools import partial

import pytest

from repro.core.batching import batch_sequence
from repro.core.build import METHOD_NAMES, build_index
from repro.core.drl import DrlFloodProgram
from repro.core.tol import tol_index_reference
from repro.graph.generators import random_digraph
from repro.graph.order import degree_order
from repro.graph.partition import HashPartitioner
from repro.pregel.cost_model import CostModel
from repro.pregel.engine import Cluster

_NO_LIMIT = CostModel(time_limit_seconds=None)


def test_all_methods_return_the_same_index():
    g = random_digraph(60, 180, seed=1)
    order = degree_order(g)
    expected = tol_index_reference(g, order)
    for method in METHOD_NAMES:
        result = build_index(
            g, method=method, order=order, num_nodes=4, cost_model=_NO_LIMIT
        )
        assert result.index == expected, method
        assert result.stats.compute_units > 0, method


def test_method_names_cover_the_paper():
    assert set(METHOD_NAMES) == {"tol", "drl-", "drl", "drl-b", "drl-b-m"}


def test_unknown_method_rejected():
    g = random_digraph(10, 20, seed=2)
    with pytest.raises(ValueError, match="unknown method"):
        build_index(g, method="magic")


def test_default_method_is_drl_b():
    g = random_digraph(40, 100, seed=3)
    default = build_index(g, cost_model=_NO_LIMIT)
    explicit = build_index(g, method="drl-b", cost_model=_NO_LIMIT)
    assert default.index == explicit.index


def test_kwargs_forwarded():
    g = random_digraph(40, 100, seed=4)
    result = build_index(
        g,
        method="drl-b",
        initial_batch_size=4,
        growth_factor=3.0,
        cost_model=_NO_LIMIT,
    )
    assert result.index == tol_index_reference(g, degree_order(g))


def test_tol_reports_single_node_stats():
    g = random_digraph(40, 100, seed=5)
    result = build_index(g, method="tol", cost_model=_NO_LIMIT)
    assert result.stats.num_nodes == 1
    assert result.stats.communication_seconds == 0.0


# ----------------------------------------------------------------------
# One program, four schedules: what a method accepts follows from its
# schedule, not from which driver somebody remembered to extend.
# ----------------------------------------------------------------------
_FLOOD_METHODS = ("drl-", "drl", "drl-b", "drl-b-m")
_ACCEPTED_BY = {
    "node_timeline": set(),  # gone: a run's lanes live in the telemetry stream
    "check_pruning": {"drl", "drl-b", "drl-b-m"},
    "combine_messages": {"drl", "drl-b", "drl-b-m"},
    "batches": {"drl-b", "drl-b-m"},
}


@pytest.mark.parametrize("option", sorted(_ACCEPTED_BY))
@pytest.mark.parametrize("method", METHOD_NAMES)
def test_every_method_takes_the_options_of_its_schedule(method, option):
    g = random_digraph(50, 150, seed=6)
    order = degree_order(g)
    value = {
        "node_timeline": True,
        "check_pruning": False,
        "combine_messages": True,
        "batches": batch_sequence(order, 3, 1.5),
    }[option]
    build = partial(
        build_index, g, method=method, order=order, num_nodes=4, **{option: value}
    )
    if method != "tol" and method not in _ACCEPTED_BY[option]:
        with pytest.raises(TypeError, match=option):
            build()
        return
    result = build()  # the serial baseline ignores cluster options
    assert result.index == tol_index_reference(g, order)


def test_multicore_is_drl_b_under_another_cost_model():
    g = random_digraph(80, 260, seed=7)
    same = dict(
        num_nodes=4,
        partitioner=HashPartitioner(4),
        initial_batch_size=3,
        growth_factor=1.5,
    )
    cluster = build_index(g, method="drl-b", **same)
    cores = build_index(g, method="drl-b-m", **same)
    assert cores.index == cluster.index
    for counter in (
        "supersteps", "compute_units", "local_messages", "remote_messages",
        "remote_bytes", "broadcast_bytes", "per_node_units",
    ):
        assert getattr(cores.stats, counter) == getattr(cluster.stats, counter)
    assert cores.stats.computation_seconds == cluster.stats.computation_seconds
    assert cores.stats.communication_seconds == 0.0  # shared memory
    assert cluster.stats.communication_seconds > 0.0
    assert cores.stats.barrier_seconds < cluster.stats.barrier_seconds


def test_every_flood_is_the_one_program(monkeypatch):
    handed = []
    run = Cluster.run

    def spy(self, graph, program, **kwargs):
        handed.append(program)
        return run(self, graph, program, **kwargs)

    monkeypatch.setattr(Cluster, "run", spy)
    g = random_digraph(40, 120, seed=8)
    floods = {}
    for method in _FLOOD_METHODS:
        build_index(g, method=method, num_nodes=4, cost_model=_NO_LIMIT)
        floods[method] = len(handed) - sum(floods.values())
    assert all(type(program) is DrlFloodProgram for program in handed)
    assert floods["drl"] == 1 and floods["drl-"] == 2
    assert floods["drl-b"] == floods["drl-b-m"] > 2  # one per batch
