"""Tests for the declarative scenario format and runner."""

import json

import pytest

from repro.scenarios import (
    EXPECTATIONS,
    ScenarioSpec,
    ScenarioSpecError,
    library_scenarios,
    load_scenario,
    run_scenario,
    run_scenario_file,
    write_scenario_report,
)


def _tiny_raw(**overrides):
    raw = {
        "name": "tiny",
        "graph": {"kind": "dag", "vertices": 60, "seed": 1},
        "traffic": {
            "pairs": {"count": 300, "skew": 1.1, "seed": 2},
            "arrivals": {"shape": "poisson", "rate": 300000.0, "seed": 3},
        },
        "serving": {"shards": 2, "replicas": 2, "policy": "round-robin"},
        "expect": {"incorrect_answers_max": 0, "availability_min": 0.99},
    }
    raw.update(overrides)
    return raw


# ----------------------------------------------------------------------
# Spec parsing and validation
# ----------------------------------------------------------------------

def test_from_dict_to_dict_round_trip():
    spec = ScenarioSpec.from_dict(_tiny_raw())
    again = ScenarioSpec.from_dict(spec.to_dict())
    assert again == spec


def test_unknown_top_level_key_rejected():
    with pytest.raises(ScenarioSpecError, match="unknown"):
        ScenarioSpec.from_dict(_tiny_raw(surprise=1))


def test_unknown_nested_key_rejected():
    raw = _tiny_raw()
    raw["serving"]["turbo"] = True
    with pytest.raises(ScenarioSpecError, match="turbo"):
        ScenarioSpec.from_dict(raw)


def test_unknown_expectation_rejected():
    with pytest.raises(ScenarioSpecError, match="expectation"):
        ScenarioSpec.from_dict(_tiny_raw(expect={"vibes_min": 1}))


def test_expectations_registry_names_are_directional():
    assert all(k.endswith(("_min", "_max")) or k.endswith("_max_seconds")
               for k in EXPECTATIONS)


def test_name_required():
    raw = _tiny_raw()
    del raw["name"]
    with pytest.raises(ScenarioSpecError, match="name"):
        ScenarioSpec.from_dict(raw)


def test_fault_plan_must_fit_layout():
    with pytest.raises(ScenarioSpecError, match="shard"):
        ScenarioSpec.from_dict(_tiny_raw(faults="crash=7.0@0.001"))


def test_flash_shape_needs_phases():
    raw = _tiny_raw()
    raw["traffic"]["arrivals"] = {"shape": "flash"}
    with pytest.raises(ScenarioSpecError, match="phases"):
        ScenarioSpec.from_dict(raw)


@pytest.mark.parametrize(
    "block, name, value",
    [
        ("serving", "batch_size", float("nan")),
        ("serving", "batch_size", 0),
        ("serving", "queue_depth", 2.5),
        ("serving", "shards", 0),
        ("serving", "replicas", float("nan")),
        ("serving", "cache_size", -1),
        ("serving", "cache_size", float("nan")),
        ("serving", "deadline_seconds", float("nan")),
        ("serving", "deadline_seconds", 0.0),
        ("replication", "delay_seconds", float("nan")),
        ("replication", "delay_seconds", float("inf")),
        ("replication", "apply_seconds_per_op", -1.0),
        ("replication", "max_lag", 0.5),
    ],
)
def test_serving_and_replication_settings_are_checked(block, name, value):
    raw = _tiny_raw()
    raw.setdefault(block, {})[name] = value
    with pytest.raises(ScenarioSpecError, match=name):
        ScenarioSpec.from_dict(raw)


def test_cache_size_zero_means_no_cache():
    raw = _tiny_raw()
    raw["serving"]["cache_size"] = 0
    assert run_scenario(ScenarioSpec.from_dict(raw)).report.cache_hits == 0


def test_load_scenario_json(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(_tiny_raw()))
    assert load_scenario(path).name == "tiny"


def test_load_scenario_unknown_suffix(tmp_path):
    path = tmp_path / "tiny.toml"
    path.write_text("x = 1")
    with pytest.raises(ScenarioSpecError):
        load_scenario(path)


# ----------------------------------------------------------------------
# Runner
# ----------------------------------------------------------------------

def test_tiny_static_scenario_passes():
    result = run_scenario(ScenarioSpec.from_dict(_tiny_raw()))
    assert result.ok
    assert result.audited == result.report.served
    assert result.incorrect_answers == 0
    assert {c.name for c in result.checks} == {
        "incorrect_answers_max", "availability_min",
    }
    assert "tiny" in result.render()


def test_impossible_expectation_fails_with_actuals():
    raw = _tiny_raw(expect={"availability_min": 2.0})
    result = run_scenario(ScenarioSpec.from_dict(raw))
    assert not result.ok
    check = result.checks[0]
    assert check.name == "availability_min"
    assert check.actual <= 1.0
    assert ">=" in check.render()


def test_dynamic_scenario_with_faults_audits_every_version():
    raw = _tiny_raw(
        name="tiny-dynamic",
        replication={"delay_seconds": 0.0005, "max_lag": 8},
        updates={
            "count": 10, "insert_ratio": 0.5, "seed": 4,
            "start_seconds": 0.0002, "interval_seconds": 0.0001,
        },
        faults="crash=0.0@0.0003,recover=0.0@0.0008",
    )
    result = run_scenario(ScenarioSpec.from_dict(raw))
    assert result.incorrect_answers == 0
    assert result.audited == result.report.served
    names = [e["event"] for e in result.events]
    assert "serve.replica_crash" in names
    assert "serve.replica_recover" in names


def test_same_instant_update_applies_before_the_fault(monkeypatch):
    # Writes and faults share one timeline; the runner schedules the
    # writes first, so at a shared instant the write lands first — and
    # an earlier fault still fires before a later write.
    from repro.scenarios import runner

    fired = []
    note_time = runner.BoundedStalenessReplicator.note_time
    crash = runner.ReplicatedLabelStore.crash_replica
    slow = runner.ReplicatedLabelStore.set_replica_slowdown

    def noted(self, clock):
        fired.append(("write", clock))
        return note_time(self, clock)

    def crashed(self, shard, replica, at):
        fired.append(("crash", at))
        return crash(self, shard, replica, at=at)

    def slowed(self, shard, replica, factor, at):
        fired.append(("slow", at))
        return slow(self, shard, replica, factor, at=at)

    monkeypatch.setattr(runner.BoundedStalenessReplicator, "note_time", noted)
    monkeypatch.setattr(runner.ReplicatedLabelStore, "crash_replica", crashed)
    monkeypatch.setattr(runner.ReplicatedLabelStore, "set_replica_slowdown", slowed)
    raw = _tiny_raw(
        name="tiny-tie",
        replication={"delay_seconds": 0.0005, "max_lag": 8},
        updates={
            "count": 2, "insert_ratio": 0.5, "seed": 4,
            "start_seconds": 0.0004, "interval_seconds": 0.0004,
        },
        faults="crash=0.0@0.0004,slow=1.1x2@0.0006",
    )
    result = run_scenario(ScenarioSpec.from_dict(raw))
    assert result.incorrect_answers == 0
    assert fired == [
        ("write", 0.0004), ("crash", 0.0004), ("slow", 0.0006), ("write", 0.0008),
    ]


def test_scenario_blocks_take_their_keys_from_the_dataclasses():
    import dataclasses

    from repro.scenarios.spec import (
        GraphSpec, ReplicationSpec, ServingSpec, UpdatesSpec,
    )

    blocks = {"graph": GraphSpec, "serving": ServingSpec,
              "replication": ReplicationSpec, "updates": UpdatesSpec}
    spec = ScenarioSpec.from_dict(_tiny_raw(
        replication={"max_lag": 8}, updates={"count": 3},
    ))
    emitted = spec.to_dict()
    for block, spec_type in blocks.items():
        names = [f.name for f in dataclasses.fields(spec_type)]
        # to_dict: every field, in the dataclass's own order.
        assert list(emitted[block]) == names
        # from_dict: every field is accepted, anything else is named.
        for name in names:
            raw = _tiny_raw(replication={}, updates={})
            raw[block] = {name: emitted[block][name]}
            assert ScenarioSpec.from_dict(raw)
        raw = _tiny_raw(**{block: {"turbo": 1}})
        with pytest.raises(ScenarioSpecError, match=f"{block} has unknown.*turbo"):
            ScenarioSpec.from_dict(raw)


def test_result_to_dict_is_json_serializable():
    result = run_scenario(ScenarioSpec.from_dict(_tiny_raw()))
    payload = json.loads(json.dumps(result.to_dict()))
    assert payload["name"] == "tiny"
    assert payload["ok"] is True
    assert payload["audit"]["incorrect_answers"] == 0


def test_run_scenario_file_and_report(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(_tiny_raw()))
    result = run_scenario_file(path)
    assert result.ok
    report_path = tmp_path / "out" / "report.json"
    report_path.parent.mkdir()
    write_scenario_report([result], report_path)
    payload = json.loads(report_path.read_text())
    assert payload["ok"] is True
    assert payload["scenarios"][0]["name"] == "tiny"


# ----------------------------------------------------------------------
# The library
# ----------------------------------------------------------------------

def test_library_has_the_documented_scenarios():
    names = set(library_scenarios())
    assert names == {
        "flash_crowd", "diurnal_wave", "hot_key_storm",
        "shard_loss_write_burst", "cache_stampede", "write_storm",
    }


@pytest.mark.parametrize("name", sorted(
    ["flash_crowd", "diurnal_wave", "hot_key_storm",
     "shard_loss_write_burst", "cache_stampede", "write_storm"]
))
def test_library_scenario_passes(name):
    result = run_scenario_file(library_scenarios()[name])
    assert result.ok, result.render()
    assert result.incorrect_answers == 0


def test_flagship_scenario_fails_over_with_zero_wrong_answers():
    result = run_scenario_file(library_scenarios()["shard_loss_write_burst"])
    assert result.report.failovers >= 1
    assert result.incorrect_answers == 0
    assert result.report.confirmed_reads > 0
    assert any(e["event"] == "serve.failover" for e in result.events)
