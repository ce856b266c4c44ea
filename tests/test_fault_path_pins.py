"""Pins for the fault path: crash recovery, checkpoints, stragglers and
transit faults under DRL, DRL_b and DRL⁻.

Every literal below was read off the engine before recovery moved out
of the master loop into :mod:`repro.pregel.recovery`; a change to the
fault path that moves any of them moves a committed fault number.

``intervals`` spells the stream's ``Trace(...).node_timeline.intervals``
one token per entry: ``c4`` a checkpoint after super-step 4, ``R3@1+5``
the recovery from nodes 1 and 5 crashing in super-step 3, ``r2`` a
discarded or replayed attempt at super-step 2.  ``events`` is the first
16 hex digits of the SHA-256 of the run's ``pregel.*`` event names but
``pregel.replay`` (already an ``r`` token), newline-joined in emission
order.  An empty plan is a cluster with a checkpoint interval and no
fault plan.
"""

import hashlib
from collections import Counter

import pytest

from repro.core.build import build_index
from repro.faults import FaultPlan
from repro.graph.generators import citation_graph, social_graph
from repro.telemetry import session
from repro.telemetry.reader import Trace
from repro.telemetry.sinks import InMemorySink

_GRAPHS = {"social": social_graph(300), "citation": citation_graph(300)}
_KIND = {"checkpoint": "c", "recovery": "R", "replay": "r"}
_SECONDS = ("checkpoint_seconds", "recovery_seconds", "simulated_seconds")
_DERIVED = {"intervals", "events"}


def _intervals(timeline) -> str:
    return " ".join(
        _KIND[i.kind] + str(i.superstep)
        + ("@" + "+".join(map(str, i.nodes)) if i.nodes else "")
        for i in timeline.intervals
    )


PINS = {
    ("drl", "social", "crash=1@3", None): dict(
        supersteps=9, compute_units=56109, local_messages=1771,
        remote_messages=12345, remote_bytes=197520, broadcast_bytes=23688,
        checkpoints=0, crashes=1, messages_lost=0, messages_duplicated=0,
        intervals="r3 R3@1 r1 r2",
        events="e9524f99af13f7d6", checkpoint_seconds=0.0,
        recovery_seconds=0.501070502, simulated_seconds=0.504052307,
    ),
    ("drl", "social", "crash=1@3", 1): dict(
        supersteps=9, compute_units=56109, local_messages=1771,
        remote_messages=12345, remote_bytes=197520, broadcast_bytes=23688,
        checkpoints=8, crashes=1, messages_lost=0, messages_duplicated=0,
        intervals="c1 c2 r3 R3@1 c3 c4 c5 c6 c7 c8",
        events="e3288981b4e25dc6", checkpoint_seconds=0.00017229085714285717,
        recovery_seconds=0.500414209, simulated_seconds=0.5035683048571429,
    ),
    ("drl", "social", "crash=1@3", 2): dict(
        supersteps=9, compute_units=56109, local_messages=1771,
        remote_messages=12345, remote_bytes=197520, broadcast_bytes=23688,
        checkpoints=4, crashes=1, messages_lost=0, messages_duplicated=0,
        intervals="c2 r3 R3@1 c4 c6 c8",
        events="4c2d613fda527bfc", checkpoint_seconds=8.554714285714286e-05,
        recovery_seconds=0.500414209, simulated_seconds=0.5034815611428571,
    ),
    ("drl", "social", "crash=1@3,crash=5@6", None): dict(
        supersteps=9, compute_units=56109, local_messages=1771,
        remote_messages=12345, remote_bytes=197520, broadcast_bytes=23688,
        checkpoints=0, crashes=2, messages_lost=0, messages_duplicated=0,
        intervals="r3 R3@1 r1 r2 r6 R6@5 r1 r2 r3 r4 r5",
        events="3f7f15ed68ba270d", checkpoint_seconds=0.0,
        recovery_seconds=1.003130469, simulated_seconds=1.0061223240000001,
    ),
    ("drl", "social", "crash=1@3,crash=5@6", 1): dict(
        supersteps=9, compute_units=56109, local_messages=1771,
        remote_messages=12345, remote_bytes=197520, broadcast_bytes=23688,
        checkpoints=8, crashes=2, messages_lost=0, messages_duplicated=0,
        intervals="c1 c2 r3 R3@1 c3 c4 c5 r6 R6@5 c6 c7 c8",
        events="e699f343928262cd", checkpoint_seconds=0.00018081009523809524,
        recovery_seconds=1.0007362003333333,
        simulated_seconds=1.0039088654285715,
    ),
    ("drl", "social", "crash=1@3,crash=5@6", 2): dict(
        supersteps=9, compute_units=56109, local_messages=1771,
        remote_messages=12345, remote_bytes=197520, broadcast_bytes=23688,
        checkpoints=4, crashes=2, messages_lost=0, messages_duplicated=0,
        intervals="c2 r3 R3@1 c4 r6 R6@5 r5 c6 c8",
        events="d0dcb765da8fd68c", checkpoint_seconds=9.122942857142858e-05,
        recovery_seconds=1.0010465716666666,
        simulated_seconds=1.004129656095238,
    ),
    ("drl", "social", "straggler=2x2.0", None): dict(
        supersteps=9, compute_units=56109, local_messages=1607,
        remote_messages=12509, remote_bytes=200144, broadcast_bytes=23688,
        checkpoints=0, crashes=0, messages_lost=0, messages_duplicated=0,
        intervals="",
        events="4db737bb4e59e598", checkpoint_seconds=0.0,
        recovery_seconds=0.0, simulated_seconds=0.0031062369999999995,
    ),
    ("drl", "social", "loss=0.01,dup=0.01,seed=42", None): dict(
        supersteps=9, compute_units=56109, local_messages=1607,
        remote_messages=12509, remote_bytes=200144, broadcast_bytes=23688,
        checkpoints=0, crashes=0, messages_lost=124, messages_duplicated=139,
        intervals="",
        events="e2c7862d99b5952e", checkpoint_seconds=0.0,
        recovery_seconds=0.0, simulated_seconds=0.0029639449999999995,
    ),
    ("drl", "citation", "crash=1@3", None): dict(
        supersteps=13, compute_units=126522, local_messages=2430,
        remote_messages=16825, remote_bytes=269200, broadcast_bytes=52152,
        checkpoints=0, crashes=1, messages_lost=0, messages_duplicated=0,
        intervals="r3 R3@1 r1 r2",
        events="210e860e3fbf54e9", checkpoint_seconds=0.0,
        recovery_seconds=0.5010324890000001, simulated_seconds=0.505530769,
    ),
    ("drl", "citation", "crash=1@3", 1): dict(
        supersteps=13, compute_units=126522, local_messages=2430,
        remote_messages=16825, remote_bytes=269200, broadcast_bytes=52152,
        checkpoints=12, crashes=1, messages_lost=0, messages_duplicated=0,
        intervals="c1 c2 r3 R3@1 c3 c4 c5 c6 c7 c8 c9 c10 c11 c12",
        events="cd21819401607284", checkpoint_seconds=0.0004024411428571429,
        recovery_seconds=0.5003986154285714,
        simulated_seconds=0.5052993365714286,
    ),
    ("drl", "citation", "crash=1@3", 2): dict(
        supersteps=13, compute_units=126522, local_messages=2430,
        remote_messages=16825, remote_bytes=269200, broadcast_bytes=52152,
        checkpoints=6, crashes=1, messages_lost=0, messages_duplicated=0,
        intervals="c2 r3 R3@1 c4 c6 c8 c10 c12",
        events="f8528e0a6bed6036", checkpoint_seconds=0.00020555457142857142,
        recovery_seconds=0.5003986154285714, simulated_seconds=0.50510245,
    ),
    ("drl", "citation", "crash=1@3,crash=5@6", None): dict(
        supersteps=13, compute_units=126522, local_messages=2443,
        remote_messages=16812, remote_bytes=268992, broadcast_bytes=52152,
        checkpoints=0, crashes=2, messages_lost=0, messages_duplicated=0,
        intervals="r3 R3@1 r1 r2 r6 R6@5 r1 r2 r3 r4 r5",
        events="720ba11cb53f5bb4", checkpoint_seconds=0.0,
        recovery_seconds=1.003272873, simulated_seconds=1.007817989,
    ),
    ("drl", "citation", "crash=1@3,crash=5@6", 1): dict(
        supersteps=13, compute_units=126522, local_messages=2443,
        remote_messages=16812, remote_bytes=268992, broadcast_bytes=52152,
        checkpoints=12, crashes=2, messages_lost=0, messages_duplicated=0,
        intervals=(
            "c1 c2 r3 R3@1 c3 c4 c5 r6 R6@5 c6 c7 c8 c9 c10 c11 "
            "c12"
        ),
        events="a0c1e6c9c7da01e9", checkpoint_seconds=0.0004419112380952381,
        recovery_seconds=1.0007856420952381,
        simulated_seconds=1.0057726693333333,
    ),
    ("drl", "citation", "crash=1@3,crash=5@6", 2): dict(
        supersteps=13, compute_units=126522, local_messages=2443,
        remote_messages=16812, remote_bytes=268992, broadcast_bytes=52152,
        checkpoints=6, crashes=2, messages_lost=0, messages_duplicated=0,
        intervals="c2 r3 R3@1 c4 r6 R6@5 r5 c6 c8 c10 c12",
        events="ed470cf66da2c59a", checkpoint_seconds=0.00022822733333333333,
        recovery_seconds=1.0011988414285715,
        simulated_seconds=1.0059721847619048,
    ),
    ("drl", "citation", "straggler=2x2.0", None): dict(
        supersteps=13, compute_units=126522, local_messages=2189,
        remote_messages=17066, remote_bytes=273056, broadcast_bytes=52152,
        checkpoints=0, crashes=0, messages_lost=0, messages_duplicated=0,
        intervals="",
        events="822ce7e1edc11314", checkpoint_seconds=0.0,
        recovery_seconds=0.0, simulated_seconds=0.004823887999999999,
    ),
    ("drl", "citation", "loss=0.01,dup=0.01,seed=42", None): dict(
        supersteps=13, compute_units=126522, local_messages=2189,
        remote_messages=17066, remote_bytes=273056, broadcast_bytes=52152,
        checkpoints=0, crashes=0, messages_lost=169, messages_duplicated=185,
        intervals="",
        events="1ee65261b4031415", checkpoint_seconds=0.0,
        recovery_seconds=0.0, simulated_seconds=0.004436851999999999,
    ),
    ("drl-b", "social", "crash=1@3", None): dict(
        supersteps=24, compute_units=14218, local_messages=576,
        remote_messages=4112, remote_bytes=65792, broadcast_bytes=7840,
        checkpoints=0, crashes=1, messages_lost=0, messages_duplicated=0,
        intervals="r3 R3@1 r1 r2",
        events="a2ad92a2d4819ddd", checkpoint_seconds=0.0,
        recovery_seconds=0.5009501729999999,
        simulated_seconds=0.5082391249999999,
    ),
    ("drl-b", "social", "crash=1@3", 1): dict(
        supersteps=24, compute_units=14218, local_messages=576,
        remote_messages=4112, remote_bytes=65792, broadcast_bytes=7840,
        checkpoints=20, crashes=1, messages_lost=0, messages_duplicated=0,
        intervals=(
            "c1 c2 r3 R3@1 c3 c4 c5 c6 c7 c8 c1 c1 c1 c1 c1 c2 "
            "c3 c1 c2 c3 c1 c2"
        ),
        events="cb300ec37e7c306c", checkpoint_seconds=0.00010383085714285714,
        recovery_seconds=0.5003387014285714,
        simulated_seconds=0.5077314842857142,
    ),
    ("drl-b", "social", "crash=1@3", 2): dict(
        supersteps=24, compute_units=14218, local_messages=576,
        remote_messages=4112, remote_bytes=65792, broadcast_bytes=7840,
        checkpoints=7, crashes=1, messages_lost=0, messages_duplicated=0,
        intervals="c2 r3 R3@1 c4 c6 c8 c2 c2 c2",
        events="3422e42a375f5e40", checkpoint_seconds=4.1462000000000004e-05,
        recovery_seconds=0.5003387014285714,
        simulated_seconds=0.5076691154285714,
    ),
    ("drl-b", "social", "crash=1@3,crash=5@6", None): dict(
        supersteps=24, compute_units=14218, local_messages=588,
        remote_messages=4100, remote_bytes=65600, broadcast_bytes=7840,
        checkpoints=0, crashes=2, messages_lost=0, messages_duplicated=0,
        intervals="r3 R3@1 r1 r2 r6 R6@5 r1 r2 r3 r4 r5",
        events="3efa6bd665c005de", checkpoint_seconds=0.0,
        recovery_seconds=1.0028316259999999,
        simulated_seconds=1.0101221779999998,
    ),
    ("drl-b", "social", "crash=1@3,crash=5@6", 1): dict(
        supersteps=24, compute_units=14218, local_messages=588,
        remote_messages=4100, remote_bytes=65600, broadcast_bytes=7840,
        checkpoints=20, crashes=2, messages_lost=0, messages_duplicated=0,
        intervals=(
            "c1 c2 r3 R3@1 c3 c4 c5 r6 R6@5 c6 c7 c8 c1 c1 c1 "
            "c1 c1 c2 c3 c1 c2 c3 c1 c2"
        ),
        events="5eb567ff4abe6526", checkpoint_seconds=0.00011418285714285714,
        recovery_seconds=1.0006479837619047,
        simulated_seconds=1.0080527186190475,
    ),
    ("drl-b", "social", "crash=1@3,crash=5@6", 2): dict(
        supersteps=24, compute_units=14218, local_messages=588,
        remote_messages=4100, remote_bytes=65600, broadcast_bytes=7840,
        checkpoints=7, crashes=2, messages_lost=0, messages_duplicated=0,
        intervals="c2 r3 R3@1 c4 r6 R6@5 r5 c6 c8 c2 c2 c2",
        events="e26e2127fb3deecc", checkpoint_seconds=4.536561904761905e-05,
        recovery_seconds=1.0009557124285713,
        simulated_seconds=1.008291630047619,
    ),
    ("drl-b", "social", "straggler=2x2.0", None): dict(
        supersteps=24, compute_units=14218, local_messages=510,
        remote_messages=4178, remote_bytes=66848, broadcast_bytes=7840,
        checkpoints=0, crashes=0, messages_lost=0, messages_duplicated=0,
        intervals="",
        events="895748c8b6279cdf", checkpoint_seconds=0.0,
        recovery_seconds=0.0, simulated_seconds=0.007320572999999999,
    ),
    ("drl-b", "social", "loss=0.01,dup=0.01,seed=42", None): dict(
        supersteps=24, compute_units=14218, local_messages=510,
        remote_messages=4178, remote_bytes=66848, broadcast_bytes=7840,
        checkpoints=0, crashes=0, messages_lost=40, messages_duplicated=49,
        intervals="",
        events="5a970375f5ca6c27", checkpoint_seconds=0.0,
        recovery_seconds=0.0, simulated_seconds=0.0072837219999999986,
    ),
    ("drl-b", "citation", "crash=1@3", None): dict(
        supersteps=74, compute_units=49396, local_messages=1574,
        remote_messages=10121, remote_bytes=161936, broadcast_bytes=50128,
        checkpoints=0, crashes=1, messages_lost=0, messages_duplicated=0,
        intervals="r3 R3@1 r1 r2",
        events="18d258c010dd30dc", checkpoint_seconds=0.0,
        recovery_seconds=0.5009125999999999, simulated_seconds=0.523418504,
    ),
    ("drl-b", "citation", "crash=1@3", 1): dict(
        supersteps=74, compute_units=49396, local_messages=1574,
        remote_messages=10121, remote_bytes=161936, broadcast_bytes=50128,
        checkpoints=66, crashes=1, messages_lost=0, messages_duplicated=0,
        intervals=(
            "c1 c2 r3 R3@1 c3 c4 c5 c6 c7 c8 c9 c10 c1 c2 c3 c4 "
            "c5 c6 c7 c1 c2 c3 c4 c5 c6 c7 c8 c9 c1 c2 c3 c4 c5 "
            "c6 c7 c8 c9 c10 c11 c12 c1 c2 c3 c4 c5 c6 c7 c8 c9 "
            "c10 c1 c2 c3 c4 c5 c6 c7 c8 c9 c10 c1 c2 c3 c4 c5 "
            "c6 c1 c2"
        ),
        events="135c1e80a0464fe0", checkpoint_seconds=0.0005349554285714287,
        recovery_seconds=0.5003108801428571,
        simulated_seconds=0.5233517395714286,
    ),
    ("drl-b", "citation", "crash=1@3", 2): dict(
        supersteps=74, compute_units=49396, local_messages=1574,
        remote_messages=10121, remote_bytes=161936, broadcast_bytes=50128,
        checkpoints=32, crashes=1, messages_lost=0, messages_duplicated=0,
        intervals=(
            "c2 r3 R3@1 c4 c6 c8 c10 c2 c4 c6 c2 c4 c6 c8 c2 c4 "
            "c6 c8 c10 c12 c2 c4 c6 c8 c10 c2 c4 c6 c8 c10 c2 "
            "c4 c6 c2"
        ),
        events="6841157ee1742254", checkpoint_seconds=0.0002628894285714286,
        recovery_seconds=0.5003108801428571,
        simulated_seconds=0.5230796735714285,
    ),
    ("drl-b", "citation", "crash=1@3,crash=5@6", None): dict(
        supersteps=74, compute_units=49396, local_messages=1828,
        remote_messages=9867, remote_bytes=157872, broadcast_bytes=50128,
        checkpoints=0, crashes=2, messages_lost=0, messages_duplicated=0,
        intervals="r3 R3@1 r1 r2 r6 R6@5 r1 r2 r3 r4 r5",
        events="60603b1058d9c12d", checkpoint_seconds=0.0,
        recovery_seconds=1.002747071, simulated_seconds=1.025286715,
    ),
    ("drl-b", "citation", "crash=1@3,crash=5@6", 1): dict(
        supersteps=74, compute_units=49396, local_messages=1828,
        remote_messages=9867, remote_bytes=157872, broadcast_bytes=50128,
        checkpoints=66, crashes=2, messages_lost=0, messages_duplicated=0,
        intervals=(
            "c1 c2 r3 R3@1 c3 c4 c5 r6 R6@5 c6 c7 c8 c9 c10 c1 "
            "c2 c3 c4 c5 c6 c7 c1 c2 c3 c4 c5 c6 c7 c8 c9 c1 c2 "
            "c3 c4 c5 c6 c7 c8 c9 c10 c11 c12 c1 c2 c3 c4 c5 c6 "
            "c7 c8 c9 c10 c1 c2 c3 c4 c5 c6 c7 c8 c9 c10 c1 c2 "
            "c3 c4 c5 c6 c1 c2"
        ),
        events="f5b6aae3221c2ce5", checkpoint_seconds=0.0006201584761904763,
        recovery_seconds=1.000619492142857,
        simulated_seconds=1.0237792946190476,
    ),
    ("drl-b", "citation", "crash=1@3,crash=5@6", 2): dict(
        supersteps=74, compute_units=49396, local_messages=1828,
        remote_messages=9867, remote_bytes=157872, broadcast_bytes=50128,
        checkpoints=32, crashes=2, messages_lost=0, messages_duplicated=0,
        intervals=(
            "c2 r3 R3@1 c4 r6 R6@5 r5 c6 c8 c10 c2 c4 c6 c2 c4 "
            "c6 c8 c2 c4 c6 c8 c10 c12 c2 c4 c6 c8 c10 c2 c4 c6 "
            "c8 c10 c2 c4 c6 c2"
        ),
        events="569c04777de1c797", checkpoint_seconds=0.000305053619047619,
        recovery_seconds=1.0009274034761904,
        simulated_seconds=1.023772101095238,
    ),
    ("drl-b", "citation", "straggler=2x2.0", None): dict(
        supersteps=74, compute_units=49396, local_messages=1341,
        remote_messages=10354, remote_bytes=165664, broadcast_bytes=50128,
        checkpoints=0, crashes=0, messages_lost=0, messages_duplicated=0,
        intervals="",
        events="12a549a5d57b1bb9", checkpoint_seconds=0.0,
        recovery_seconds=0.0, simulated_seconds=0.02259508700000003,
    ),
    ("drl-b", "citation", "loss=0.01,dup=0.01,seed=42", None): dict(
        supersteps=74, compute_units=49396, local_messages=1341,
        remote_messages=10354, remote_bytes=165664, broadcast_bytes=50128,
        checkpoints=0, crashes=0, messages_lost=101, messages_duplicated=108,
        intervals="",
        events="8d8fd42db544600e", checkpoint_seconds=0.0,
        recovery_seconds=0.0, simulated_seconds=0.022486206000000033,
    ),
    ("drl-", "social", "crash=1@3", None): dict(
        supersteps=40, compute_units=763160, local_messages=43730,
        remote_messages=275310, remote_bytes=4404960, broadcast_bytes=22264,
        checkpoints=0, crashes=1, messages_lost=0, messages_duplicated=0,
        intervals="r3 R3@1 r1 r2",
        events="c64cda63f8e82e98", checkpoint_seconds=0.0,
        recovery_seconds=0.501057994, simulated_seconds=0.5175057089999999,
    ),
    ("drl-", "social", "crash=1@3", 1): dict(
        supersteps=40, compute_units=763160, local_messages=43730,
        remote_messages=275310, remote_bytes=4404960, broadcast_bytes=22264,
        checkpoints=39, crashes=1, messages_lost=0, messages_duplicated=0,
        intervals=(
            "c1 c2 r3 R3@1 c3 c4 c5 c6 c7 c8 c9 c10 c11 c12 c13 "
            "c14 c15 c16 c17 c18 c19 c20 c21 c22 c23 c24 c25 "
            "c26 c27 c28 c29 c1 c2 c3 c4 c5 c6 c7 c8 c9 c10"
        ),
        events="9ca0f7a2abba5660", checkpoint_seconds=0.003498156571428572,
        recovery_seconds=0.5004055022857142,
        simulated_seconds=0.5203513738571428,
    ),
    ("drl-", "social", "crash=1@3", 2): dict(
        supersteps=40, compute_units=763160, local_messages=43730,
        remote_messages=275310, remote_bytes=4404960, broadcast_bytes=22264,
        checkpoints=19, crashes=1, messages_lost=0, messages_duplicated=0,
        intervals=(
            "c2 r3 R3@1 c4 c6 c8 c10 c12 c14 c16 c18 c20 c22 "
            "c24 c26 c28 c2 c4 c6 c8 c10"
        ),
        events="3c92d3d1f7c86d1e", checkpoint_seconds=0.0017779268571428573,
        recovery_seconds=0.5004055022857142,
        simulated_seconds=0.518631144142857,
    ),
    ("drl-", "social", "crash=1@3,crash=5@6", None): dict(
        supersteps=40, compute_units=763160, local_messages=48277,
        remote_messages=270763, remote_bytes=4332208, broadcast_bytes=22264,
        checkpoints=0, crashes=2, messages_lost=0, messages_duplicated=0,
        intervals="r3 R3@1 r1 r2 r6 R6@5 r1 r2 r3 r4 r5",
        events="e4478b1a78ab81c2", checkpoint_seconds=0.0,
        recovery_seconds=1.0032412229999998, simulated_seconds=1.020116847,
    ),
    ("drl-", "social", "crash=1@3,crash=5@6", 1): dict(
        supersteps=40, compute_units=763160, local_messages=48277,
        remote_messages=270763, remote_bytes=4332208, broadcast_bytes=22264,
        checkpoints=39, crashes=2, messages_lost=0, messages_duplicated=0,
        intervals=(
            "c1 c2 r3 R3@1 c3 c4 c5 r6 R6@5 c6 c7 c8 c9 c10 c11 "
            "c12 c13 c14 c15 c16 c17 c18 c19 c20 c21 c22 c23 "
            "c24 c25 c26 c27 c28 c29 c1 c2 c3 c4 c5 c6 c7 c8 c9 "
            "c10"
        ),
        events="994feb6238b03051", checkpoint_seconds=0.004050568380952382,
        recovery_seconds=1.000804300285714,
        simulated_seconds=1.0217304926666664,
    ),
    ("drl-", "social", "crash=1@3,crash=5@6", 2): dict(
        supersteps=40, compute_units=763160, local_messages=48277,
        remote_messages=270763, remote_bytes=4332208, broadcast_bytes=22264,
        checkpoints=19, crashes=2, messages_lost=0, messages_duplicated=0,
        intervals=(
            "c2 r3 R3@1 c4 r6 R6@5 r5 c6 c8 c10 c12 c14 c16 c18 "
            "c20 c22 c24 c26 c28 c2 c4 c6 c8 c10"
        ),
        events="6b3163b7e90dd64e", checkpoint_seconds=0.002061234666666667,
        recovery_seconds=1.0011769726190474,
        simulated_seconds=1.020113831285714,
    ),
    ("drl-", "social", "straggler=2x2.0", None): dict(
        supersteps=40, compute_units=763160, local_messages=35168,
        remote_messages=283872, remote_bytes=4541952, broadcast_bytes=22264,
        checkpoints=0, crashes=0, messages_lost=0, messages_duplicated=0,
        intervals="",
        events="d9defa62d3485411", checkpoint_seconds=0.0,
        recovery_seconds=0.0, simulated_seconds=0.017539490999999997,
    ),
    ("drl-", "social", "loss=0.01,dup=0.01,seed=42", None): dict(
        supersteps=40, compute_units=763160, local_messages=35168,
        remote_messages=283872, remote_bytes=4541952, broadcast_bytes=22264,
        checkpoints=0, crashes=0, messages_lost=2818, messages_duplicated=2835,
        intervals="",
        events="6c74331310b79605", checkpoint_seconds=0.0,
        recovery_seconds=0.0, simulated_seconds=0.015791588999999998,
    ),
    ("drl-", "citation", "crash=1@3", None): dict(
        supersteps=31, compute_units=445520, local_messages=19499,
        remote_messages=133691, remote_bytes=2139056, broadcast_bytes=26656,
        checkpoints=0, crashes=1, messages_lost=0, messages_duplicated=0,
        intervals="r3 R3@1 r1 r2",
        events="e1812a23a20ca273", checkpoint_seconds=0.0,
        recovery_seconds=0.501004758, simulated_seconds=0.512481606,
    ),
    ("drl-", "citation", "crash=1@3", 1): dict(
        supersteps=31, compute_units=445520, local_messages=19499,
        remote_messages=133691, remote_bytes=2139056, broadcast_bytes=26656,
        checkpoints=30, crashes=1, messages_lost=0, messages_duplicated=0,
        intervals=(
            "c1 c2 r3 R3@1 c3 c4 c5 c6 c7 c8 c9 c10 c11 c12 c13 "
            "c14 c1 c2 c3 c4 c5 c6 c7 c8 c9 c10 c11 c12 c13 c14 "
            "c15 c16"
        ),
        events="b1d4ecc53a33c1dc", checkpoint_seconds=0.0028468782857142853,
        recovery_seconds=0.5003735357142858,
        simulated_seconds=0.5146972620000001,
    ),
    ("drl-", "citation", "crash=1@3", 2): dict(
        supersteps=31, compute_units=445520, local_messages=19499,
        remote_messages=133691, remote_bytes=2139056, broadcast_bytes=26656,
        checkpoints=15, crashes=1, messages_lost=0, messages_duplicated=0,
        intervals=(
            "c2 r3 R3@1 c4 c6 c8 c10 c12 c14 c2 c4 c6 c8 c10 "
            "c12 c14 c16"
        ),
        events="a8c2fac9f0d467fb", checkpoint_seconds=0.0014511160000000001,
        recovery_seconds=0.5003735357142858,
        simulated_seconds=0.5133014997142857,
    ),
    ("drl-", "citation", "crash=1@3,crash=5@6", None): dict(
        supersteps=31, compute_units=445520, local_messages=22445,
        remote_messages=130745, remote_bytes=2091920, broadcast_bytes=26656,
        checkpoints=0, crashes=2, messages_lost=0, messages_duplicated=0,
        intervals="r3 R3@1 r1 r2 r6 R6@5 r1 r2 r3 r4 r5",
        events="91ae769edde8b749", checkpoint_seconds=0.0,
        recovery_seconds=1.0031870980000002,
        simulated_seconds=1.0149865040000001,
    ),
    ("drl-", "citation", "crash=1@3,crash=5@6", 1): dict(
        supersteps=31, compute_units=445520, local_messages=22445,
        remote_messages=130745, remote_bytes=2091920, broadcast_bytes=26656,
        checkpoints=30, crashes=2, messages_lost=0, messages_duplicated=0,
        intervals=(
            "c1 c2 r3 R3@1 c3 c4 c5 r6 R6@5 c6 c7 c8 c9 c10 c11 "
            "c12 c13 c14 c1 c2 c3 c4 c5 c6 c7 c8 c9 c10 c11 c12 "
            "c13 c14 c15 c16"
        ),
        events="4ae44493f2913fb0", checkpoint_seconds=0.0032877266666666667,
        recovery_seconds=1.0008125977142859,
        simulated_seconds=1.0158997303809525,
    ),
    ("drl-", "citation", "crash=1@3,crash=5@6", 2): dict(
        supersteps=31, compute_units=445520, local_messages=22445,
        remote_messages=130745, remote_bytes=2091920, broadcast_bytes=26656,
        checkpoints=15, crashes=2, messages_lost=0, messages_duplicated=0,
        intervals=(
            "c2 r3 R3@1 c4 r6 R6@5 r5 c6 c8 c10 c12 c14 c2 c4 "
            "c6 c8 c10 c12 c14 c16"
        ),
        events="87c2f5f84c63f322", checkpoint_seconds=0.0016793110476190478,
        recovery_seconds=1.0012038750476193,
        simulated_seconds=1.0146825920952383,
    ),
    ("drl-", "citation", "straggler=2x2.0", None): dict(
        supersteps=31, compute_units=445520, local_messages=15949,
        remote_messages=137241, remote_bytes=2195856, broadcast_bytes=26656,
        checkpoints=0, crashes=0, messages_lost=0, messages_duplicated=0,
        intervals="",
        events="71ce87d0fc3c4697", checkpoint_seconds=0.0,
        recovery_seconds=0.0, simulated_seconds=0.012448860999999999,
    ),
    ("drl-", "citation", "loss=0.01,dup=0.01,seed=42", None): dict(
        supersteps=31, compute_units=445520, local_messages=15949,
        remote_messages=137241, remote_bytes=2195856, broadcast_bytes=26656,
        checkpoints=0, crashes=0, messages_lost=1352, messages_duplicated=1410,
        intervals="",
        events="bada86f4e7cd1cf1", checkpoint_seconds=0.0,
        recovery_seconds=0.0, simulated_seconds=0.011278178,
    ),
    ("drl", "social", "", 2): dict(
        supersteps=9, compute_units=56109, local_messages=1607,
        remote_messages=12509, remote_bytes=200144, broadcast_bytes=23688,
        checkpoints=4, crashes=0, messages_lost=0, messages_duplicated=0,
        intervals="c2 c4 c6 c8",
        events="c619b553ec1417ac", checkpoint_seconds=7.877200000000001e-05,
        recovery_seconds=0.0, simulated_seconds=0.0030385089999999996,
    ),
    ("drl", "citation", "", 2): dict(
        supersteps=13, compute_units=126522, local_messages=2189,
        remote_messages=17066, remote_bytes=273056, broadcast_bytes=52152,
        checkpoints=6, crashes=0, messages_lost=0, messages_duplicated=0,
        intervals="c2 c4 c6 c8 c10 c12",
        events="91ef9cd7b3f0be8f", checkpoint_seconds=0.00018244799999999999,
        recovery_seconds=0.0, simulated_seconds=0.004613635999999999,
    ),
    ("drl-b", "social", "", 2): dict(
        supersteps=24, compute_units=14218, local_messages=510,
        remote_messages=4178, remote_bytes=66848, broadcast_bytes=7840,
        checkpoints=7, crashes=0, messages_lost=0, messages_duplicated=0,
        intervals="c2 c4 c6 c8 c2 c2 c2",
        events="6d23cc63ccc2f8df", checkpoint_seconds=3.747400000000001e-05,
        recovery_seconds=0.0, simulated_seconds=0.007319771999999999,
    ),
    ("drl-b", "citation", "", 2): dict(
        supersteps=74, compute_units=49396, local_messages=1341,
        remote_messages=10354, remote_bytes=165664, broadcast_bytes=50128,
        checkpoints=32, crashes=0, messages_lost=0, messages_duplicated=0,
        intervals=(
            "c2 c4 c6 c8 c10 c2 c4 c6 c2 c4 c6 c8 c2 c4 c6 c8 "
            "c10 c12 c2 c4 c6 c8 c10 c2 c4 c6 c8 c10 c2 c4 c6 "
            "c2"
        ),
        events="a034c3feebdb46dd", checkpoint_seconds=0.00023043000000000006,
        recovery_seconds=0.0, simulated_seconds=0.02271329200000003,
    ),
    ("drl-", "social", "", 2): dict(
        supersteps=40, compute_units=763160, local_messages=35168,
        remote_messages=283872, remote_bytes=4541952, broadcast_bytes=22264,
        checkpoints=19, crashes=0, messages_lost=0, messages_duplicated=0,
        intervals=(
            "c2 c4 c6 c8 c10 c12 c14 c16 c18 c20 c22 c24 c26 "
            "c28 c2 c4 c6 c8 c10"
        ),
        events="0f9f82106b3918f2", checkpoint_seconds=0.0015594539999999998,
        recovery_seconds=0.0, simulated_seconds=0.017260594999999997,
    ),
    ("drl-", "citation", "", 2): dict(
        supersteps=31, compute_units=445520, local_messages=15949,
        remote_messages=137241, remote_bytes=2195856, broadcast_bytes=26656,
        checkpoints=15, crashes=0, messages_lost=0, messages_duplicated=0,
        intervals=(
            "c2 c4 c6 c8 c10 c12 c14 c2 c4 c6 c8 c10 c12 c14 "
            "c16"
        ),
        events="7037851748daee60", checkpoint_seconds=0.0012721639999999999,
        recovery_seconds=0.0, simulated_seconds=0.012506149999999999,
    ),
}


@pytest.mark.parametrize("method, graph, plan, interval", list(PINS))
def test_fault_path_pins(method, graph, plan, interval):
    sink = InMemorySink()
    with session([sink]):
        stats = build_index(
            _GRAPHS[graph], method, num_nodes=8,
            faults=FaultPlan.parse(plan) if plan else None,
            checkpoint_interval=interval,
        ).stats
    names = [
        e.name for e in sink.events
        if e.name.startswith("pregel.") and e.name != "pregel.replay"
    ]
    want = PINS[method, graph, plan, interval]
    exact = {k: v for k, v in want.items() if k not in _SECONDS}
    got = {name: getattr(stats, name) for name in exact.keys() - _DERIVED}
    got["intervals"] = _intervals(Trace(sink.records).node_timeline)
    got["events"] = hashlib.sha256("\n".join(names).encode()).hexdigest()[:16]
    assert got == exact, Counter(names)
    for name in _SECONDS:
        assert getattr(stats, name) == pytest.approx(want[name], rel=1e-12), name
