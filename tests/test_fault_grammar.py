"""The one fault-spec grammar (``repro.faults.SpecPlan``), table-driven
over the serving plan's shape table."""

import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.serve.faults import (
    ReplicaCrash,
    ReplicaRecovery,
    ReplicaSlow,
    ServeFaultPlan,
    ServeFaultSpecError,
)

_PLANS = (ServeFaultPlan,)
_SHAPES = [
    (plan, key, shape)
    for plan in _PLANS
    for key, (shape, _, _) in plan.SHAPES.items()
]
_IDS = [f"{plan.__name__}-{key}" for plan, key, _ in _SHAPES]
_NAME = re.compile(r"[A-Z]+")


def _fill(shape: str, values: dict | None = None, drop_optional: bool = False) -> str:
    """``shape`` with every NAME replaced by a valid number (2, or the
    text ``values`` gives that NAME); optional parts kept unless asked."""
    values = values or {}
    text = re.sub(r"\[[^\]]*\]", "", shape) if drop_optional else shape
    text = text.replace("[", "").replace("]", "")
    return _NAME.sub(lambda name: values.get(name[0], "2"), text)


def _rejects(plan, clause: str, shape_text: str) -> None:
    with pytest.raises(plan.SPEC_ERROR) as info:
        plan.parse(clause)
    assert isinstance(info.value, ReproError)
    message = str(info.value)
    assert shape_text in message, message
    assert repr(clause) in message, message


def test_shape_tables_are_the_documented_grammar():
    assert {key: row[0] for key, row in ServeFaultPlan.SHAPES.items()} == {
        "crash": "SHARD.REPLICA@SECONDS",
        "slow": "SHARD.REPLICAxFACTOR@START[:END]",
        "recover": "SHARD.REPLICA@SECONDS",
    }
    assert ServeFaultPlan.SPEC_ERROR is ServeFaultSpecError


@pytest.mark.parametrize("doc", ["serving.md"])
def test_docs_carry_every_shape(doc):
    text = (Path(__file__).parent.parent / "docs" / doc).read_text()
    for _, key, shape in _SHAPES:
        assert f"`{key}={shape}`" in text, f"{doc} lacks {key}={shape}"


@pytest.mark.parametrize("plan,key,shape", _SHAPES, ids=_IDS)
def test_a_filled_shape_parses_and_round_trips(plan, key, shape):
    # ``recover`` needs its crash first (a domain rule, not grammar).
    prefix = "crash=2.2@1," if key == "recover" else ""
    for drop_optional in (False, True):
        values = {"END": "3"}
        spec = prefix + f"{key}={_fill(shape, values, drop_optional)}"
        parsed = plan.parse(spec)
        assert parsed.to_spec() == spec
        assert plan.parse(parsed.to_spec()) == parsed


@pytest.mark.parametrize("plan,key,shape", _SHAPES, ids=_IDS)
def test_malformed_clauses_name_the_shape(plan, key, shape):
    expected = f"expected {key}={shape}"
    names = _NAME.findall(shape)
    filled = _fill(shape)
    # Missing '=' and missing value.
    _rejects(plan, key, expected)
    _rejects(plan, f"{key}=", expected)
    # Each part missing (empty where the number goes).
    for name in names:
        _rejects(plan, f"{key}={_fill(shape, {name: ''})}", expected)
    # Wrong arity: a required separator too few, a part too many.
    required = _fill(shape, drop_optional=True)
    for mark in set(re.findall(r"[^A-Z]", re.sub(r"\[[^\]]*\]", "", shape))):
        _rejects(plan, f"{key}={required.replace(mark, '', 1)}", expected)
    for extra in ("@7", "x7", ":7"):
        _rejects(plan, f"{key}={filled}{extra}", expected)
    # Non-numeric and non-finite text in every part.
    for name in names:
        for bad in ("nope", "nan", "inf", "-inf", "1e999"):
            clause = f"{key}={_fill(shape, {name: bad})}"
            with pytest.raises(plan.SPEC_ERROR) as info:
                plan.parse(clause)
            assert expected in str(info.value), str(info.value)
            assert f"({name} must be" in str(info.value), str(info.value)


@pytest.mark.parametrize(
    "plan,clause,part",
    [
        (ServeFaultPlan, "crash=0.0@nan", "SECONDS"),
        (ServeFaultPlan, "slow=0.0xnan@1", "FACTOR"),
        (ServeFaultPlan, "slow=0.0x2@1:inf", "END"),
    ],
)
def test_non_finite_numbers_are_rejected_naming_the_clause(plan, clause, part):
    with pytest.raises(plan.SPEC_ERROR, match=re.escape(repr(clause))) as info:
        plan.parse(clause)
    assert f"{part} must be a finite number" in str(info.value)


def test_integer_parts_reject_fractions_and_accept_any_size():
    with pytest.raises(ServeFaultSpecError, match="SHARD must be an integer"):
        ServeFaultPlan.parse("crash=1e0.0@2")
    with pytest.raises(ServeFaultSpecError, match="REPLICA must be an integer"):
        ServeFaultPlan.parse("crash=0.1.5@2")
    big = "9" * 400
    spec = f"crash={big}.{big}@2"
    assert ServeFaultPlan.parse(spec).to_spec() == spec


def test_unknown_key_lists_the_keys():
    with pytest.raises(ServeFaultSpecError, match="crash, slow, recover"):
        ServeFaultPlan.parse("explode=0.0@1")


def test_domain_rules_still_speak_for_themselves():
    with pytest.raises(ServeFaultSpecError, match="'slow=0.0x0.5@1': .*>= 1"):
        ServeFaultPlan.parse("slow=0.0x0.5@1")
    with pytest.raises(ServeFaultSpecError, match="never crashes"):
        ServeFaultPlan.parse("recover=0.0@1")
    with pytest.raises(ServeFaultSpecError, match="must end after it starts"):
        ServeFaultPlan.parse("slow=0.0x2@3:1")


def test_numbers_print_as_g_printed_them():
    # What every committed scenario report holds: no trailing ``.0``, no
    # padding.
    plan = ServeFaultPlan.parse("crash=0.0@0.0025,slow=1.0x6.0@1e-05:0.004")
    assert plan.to_spec() == "crash=0.0@0.0025,slow=1.0x6@1e-05:0.004"
    assert ServeFaultPlan().to_spec() == ""


def test_to_spec_keeps_every_digit():
    # ``:g`` dropped everything past six significant digits.
    serve = ServeFaultPlan(crashes=(ReplicaCrash(0, 0, 0.0025123456),))
    assert ServeFaultPlan.parse(serve.to_spec()) == serve


_ids = st.integers(min_value=0, max_value=10**6)
# Capped below the largest float so a later instant always exists.
_seconds = st.floats(min_value=0.0, max_value=1e300)


def _after(instant):
    return st.floats(min_value=instant, exclude_min=True, allow_infinity=False)


_factors = st.floats(min_value=1.0, allow_nan=False, allow_infinity=False)


@st.composite
def _serve_plans(draw):
    replicas = draw(st.lists(st.tuples(_ids, _ids), unique=True, max_size=4))
    crashes, recoveries = [], []
    for shard, replica in replicas:
        at = draw(_seconds)
        crashes.append(ReplicaCrash(shard, replica, at))
        later = draw(st.none() | _after(at))
        if later is not None:
            recoveries.append(ReplicaRecovery(shard, replica, later))
    slowdowns = []
    for _ in range(draw(st.integers(0, 3))):
        start = draw(_seconds)
        until = draw(st.none() | _after(start))
        slowdowns.append(
            ReplicaSlow(draw(_ids), draw(_ids), draw(_factors), start, until)
        )
    return ServeFaultPlan(tuple(crashes), tuple(slowdowns), tuple(recoveries))


@settings(max_examples=200, deadline=None)
@given(_serve_plans())
def test_serve_fault_plan_to_spec_is_the_exact_inverse_of_parse(plan):
    assert ServeFaultPlan.parse(plan.to_spec()) == plan
