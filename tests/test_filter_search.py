"""Pins for BFL's filter-and-search query: ``bench table6``'s BFL^C
column and ``benchmarks/results/query_latency.txt`` are these counts
times ``t_op``."""

import pytest
from hypothesis import given, settings

from repro.baselines import TransitiveClosure, build_bfl
from repro.graph.generators import (
    citation_graph,
    scc_heavy_graph,
    social_graph,
    web_graph,
)
from repro.pregel.cost_model import CostModel
from repro.pregel.serial import SerialMeter
from repro.workloads.queries import random_pairs
from tests.conftest import family_graphs

GRAPHS = {
    "web": lambda: web_graph(600, seed=3),
    "cit": lambda: citation_graph(500, seed=4),
    "soc": lambda: social_graph(500, seed=5),
    "scc": lambda: scc_heavy_graph(120, seed=6),
}
BUILDERS = {
    "bfl": build_bfl,
    "bfl32": lambda graph: build_bfl(graph, s_bits=32),
}
#: (graph, builder) -> (meter units, positive answers, searches) over
#: 4 000 ``random_pairs(seed=9)``.
PINS = {
    ("web", "bfl"): (25003, 1530, 939),
    ("web", "bfl32"): (17074, 1530, 956),
    ("cit", "bfl"): (51177, 1249, 1235),
    ("cit", "bfl32"): (76996, 1249, 1555),
    ("soc", "bfl"): (24728, 3110, 728),
    ("soc", "bfl32"): (16736, 3110, 732),
    ("scc", "bfl"): (25634, 1010, 531),
    ("scc", "bfl32"): (17641, 1010, 534),
}


@pytest.mark.parametrize("graph_name", GRAPHS)
def test_units_answers_and_searches_are_pinned(graph_name):
    graph = GRAPHS[graph_name]()
    pairs = random_pairs(graph.num_vertices, 4000, seed=9)
    for builder_name, build in BUILDERS.items():
        index = build(graph)
        meter = SerialMeter(CostModel(time_limit_seconds=None))
        positives = searches = 0
        for s, t in pairs:
            answer, searched = index.query_verbose(s, t, meter)
            positives += answer
            searches += searched
            assert index.query(s, t) == answer  # unmetered: same answer
        assert (meter.units, positives, searches) == PINS[graph_name, builder_name]


@given(family_graphs())
@settings(max_examples=40, deadline=None)
def test_label_hooks_are_sound(graph):
    """What lets the query ask ``confirms`` before ``refutes``, and
    BFL^D's walk ask them in its own order: neither test is ever
    wrong, so they never both hold."""
    closure = TransitiveClosure(graph)
    for build in BUILDERS.values():
        index = build(graph)
        cond = index._cond
        representatives = [members[0] for members in cond.members]
        for cs, s in enumerate(representatives):
            for ct, t in enumerate(representatives):
                reachable = closure.query(s, t)
                if index.confirms(cs, ct):
                    assert reachable and not index.refutes(cs, ct)
                if index.refutes(cs, ct):
                    assert not reachable
                assert index.query(s, t) == reachable
