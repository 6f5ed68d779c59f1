import copy
import math
import re

import pytest
import yaml

from conftest import corridor_scenario_dict
from hybridtraffic import cli
from hybridtraffic.cli import main as cli_main
from hybridtraffic.engine import Engine
from hybridtraffic.models.newell import NewellModel
from hybridtraffic.scenario import (
    ScenarioError,
    build_runtime,
    load_scenario,
    parse_scenario,
    scenario_to_dict,
    validate_scenario,
)

BUNDLED = ["macro_meso", "macro_micro", "meso_micro", "micro_macro"]


def _base():
    return corridor_scenario_dict([("ctm", [0, 1])], n_links=2)


def test_parse_serialize_round_trip():
    d = _base()
    d["sensors"] = [{"id": 0, "kind": "lane_group", "dt": 10.0, "lane_group": "0:1"}]
    d["actuators"] = [{"id": 0, "kind": "vsl", "dt": 2.0, "link": 0}]
    d["controllers"] = [{"id": 0, "type": "noop", "dt": 10.0}]
    sc = parse_scenario(d)
    d2 = scenario_to_dict(sc)
    sc2 = parse_scenario(d2)
    assert scenario_to_dict(sc2) == d2  # fixed point after one round trip
    assert sc2.run.duration == sc.run.duration
    assert [l.id for l in sc2.links] == [0, 1]


def test_missing_required_field_raises():
    d = _base()
    del d["models"]
    with pytest.raises(ScenarioError):
        parse_scenario(d)


def test_unknown_model_kind_raises():
    d = _base()
    d["models"][0]["kind"] = "quantum"
    with pytest.raises(ScenarioError):
        parse_scenario(d)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("param", ["dt", "sigma_v"])
def test_model_parameters_reject_nan_and_inf(param, value):
    # asserted before anything runs: a NaN model period made `run` loop
    # forever, and a NaN sigma froze every car
    d = corridor_scenario_dict([("ctm", [0, 1]), ("newell", [2, 3])], n_links=4,
                               duration=200.0, rate_vph=900.0)
    d["models"][1][param] = value
    if param == "dt":
        with pytest.raises(ScenarioError, match="positive and finite"):
            parse_scenario(d)
        with pytest.raises(ValueError, match="positive and finite"):
            NewellModel(dt=value)
    else:
        sc = parse_scenario(d)
        with pytest.raises(ValueError, match="standard deviations"):
            Engine(sc)


def test_validate_flags_uncovered_and_doubly_covered_links():
    d = _base()
    d["models"] = [{"kind": "ctm", "links": [0], "dt": 2.0}]
    diags = validate_scenario(parse_scenario(d))
    assert any("no model" in x for x in diags)
    d["models"] = [
        {"kind": "ctm", "links": [0, 1], "dt": 2.0},
        {"kind": "two_queue", "links": [1], "dt": 2.0},
    ]
    diags = validate_scenario(parse_scenario(d))
    assert any("assigned to models" in x for x in diags)


def test_validate_flags_disconnected_route():
    d = _base()
    d["routes"][0]["links"] = [1, 0]  # no road connection 1 -> 0
    d["demands"][0]["link"] = 1
    diags = validate_scenario(parse_scenario(d))
    assert any("no road connection" in x for x in diags)


def test_validate_flags_route_not_starting_at_demand_link():
    d = corridor_scenario_dict([("ctm", [0, 1, 2])], n_links=3)
    d["routes"].append({"id": 1, "links": [1, 2]})
    d["demands"][0]["route"] = 1
    diags = validate_scenario(parse_scenario(d))
    assert any("starts at link" in x for x in diags)


def test_validate_flags_missing_split_at_diverge():
    d = corridor_scenario_dict([("ctm", [0, 1, 2])], n_links=3)
    # add a second exit from link 0 to make it a diverge
    d["links"].append({"id": 3, "length": 500.0, "lanes": 1, "capacity": 1000.0,
                       "speed": 100.0, "jam_density": 100.0})
    d["road_connections"].append(
        {"id": 9, "up_link": 0, "up_lanes": [1], "down_link": 3, "down_lanes": [1]}
    )
    d["models"][0]["links"] = [0, 1, 2, 3]
    d["vehicle_types"] = [{"id": 0, "routing": "probabilistic"}]
    d["routes"] = []
    del d["demands"][0]["route"]
    diags = validate_scenario(parse_scenario(d))
    assert any("no split profile" in x for x in diags)


def test_validate_flags_bad_control_references():
    d = _base()
    d["sensors"] = [{"id": 0, "kind": "lane_group", "dt": 10.0, "lane_group": "9:9"}]
    d["actuators"] = [{"id": 0, "kind": "rc_block", "dt": 2.0, "rc": 42}]
    d["controllers"] = [
        {"id": 0, "type": "noop", "dt": 10.0, "sensors": [7], "actuators": [8]}
    ]
    diags = validate_scenario(parse_scenario(d))
    assert any("unknown lane group" in x for x in diags)
    assert any("unknown road connection" in x for x in diags)
    assert any("unknown sensor" in x for x in diags)
    assert any("unknown actuator" in x for x in diags)


def test_build_runtime_rejects_invalid():
    d = _base()
    d["models"] = [{"kind": "ctm", "links": [0], "dt": 2.0}]
    with pytest.raises(ScenarioError):
        build_runtime(parse_scenario(d))


def _constant_command_unowned(d):
    d["actuators"] = [{"id": 0, "kind": "rc_block", "dt": 2.0, "rc": 0}]
    d["controllers"] = [{"id": 0, "type": "constant", "dt": 2.0, "actuators": [],
                         "params": {"at": 4.0, "commands": {0: {"open": False}}}}]


_ONE_SPLIT = {"link": 0, "vtype": 0, "ratios": {1: {"period": 4000, "values": [1.0]}}}


@pytest.mark.parametrize("change, diagnostic", [
    (lambda d: d["models"][0].update(dt=10), r"model 0 \(ctm\): link 0: CFL violated"),
    (lambda d: d["models"][0].update(max_cell_length=0),
     r"model 0 \(ctm\): max_cell_length must be positive"),
    (lambda d: d["models"][0].update(lc_supply_factor=2),
     r"model 0 \(ctm\): lane-change supply factor"),
    (lambda d: d["models"][1].update(kind="newell", sigma_v=math.nan),
     r"model 1 \(newell\): standard deviations"),
    (lambda d: d["vehicle_types"].append({"id": 0, "routing": "probabilistic"}),
     r"duplicate vehicle type id 0$"),
    (lambda d: d["routes"].append({"id": 0, "links": [0, 1]}), r"duplicate route id 0$"),
    (lambda d: d.update(splits=[_ONE_SPLIT, copy.deepcopy(_ONE_SPLIT)]),
     r"duplicate split profile for link 0, type 0$"),
    (_constant_command_unowned,
     r"controller 0: constant command names actuator 0 it does not own"),
], ids=["cfl", "max_cell_length", "lc_supply_factor", "nan_sigma", "dup_vtype",
        "dup_route", "dup_split", "constant_unowned"])
def test_validate_reports_what_the_engine_rejects(change, diagnostic):
    # each of these once validated clean and then failed, or ran another
    # scenario than the one validated, once the engine was built
    with open(cli._resolve("macro_meso")) as f:
        d = yaml.safe_load(f)
    change(d)
    sc = parse_scenario(d)
    diags = validate_scenario(sc)
    assert len(diags) == 1 and re.search(diagnostic, diags[0]), diags
    with pytest.raises(ScenarioError, match=diagnostic.rstrip("$")):
        Engine(sc)


@pytest.mark.parametrize("path, value, owner", [
    (("demands", 0, "profile", "values"), [math.nan], "demand 0"),
    (("demands", 0, "profile", "values"), [-1.0], "demand 0"),
    (("demands", 0, "profile", "values"), [math.inf], "demand 0"),
    (("demands", 0, "profile", "period"), math.nan, "demand 0"),
    (("demands", 0, "profile", "period"), 0.0, "demand 0"),
    (("demands", 0, "profile", "period"), math.inf, "demand 0"),
    (("demands", 0, "profile", "start"), -math.inf, "demand 0"),
    (("splits", 0, "ratios", 1, "values"), [-0.5], "split at link 0, type 0"),
    (("splits", 0, "ratios", 1, "values"), [math.nan], "split at link 0, type 0"),
    (("splits", 0, "ratios", 1, "period"), -1.0, "split at link 0, type 0"),
])
def test_profiles_reject_bad_values_at_parse(path, value, owner):
    # a NaN demand once ran to a NaN total, a NaN period failed at t=0 and a
    # lone negative ratio failed at t=0 as a zero sum
    d = _base()
    d["splits"] = [copy.deepcopy(_ONE_SPLIT)]
    target = d
    for k in path[:-1]:
        target = target[k]
    target[path[-1]] = value
    with pytest.raises(ScenarioError, match=owner):
        parse_scenario(d)


@pytest.mark.parametrize("path, value, message", [
    (("vehicle_types", 0, "routing"), "foo",
     "vehicle type 0: unknown routing behavior 'foo'"),
    (("routes", 0, "links"), [0, 1, 0], "route 0 repeats a link"),
    (("links", 0, "lanes"), 0, "link 0: needs >=1 full lane"),
    (("links", 0, "length"), -5, "link 0: length must be positive"),
], ids=["routing", "route", "lanes", "length"])
def test_bad_entries_fail_as_scenario_errors_naming_the_entry(path, value, message):
    # the constructors' own errors once escaped parsing unwrapped
    d = corridor_scenario_dict([("ctm", [0, 1])], n_links=2)
    target = d
    for k in path[:-1]:
        target = target[k]
    target[path[-1]] = value
    with pytest.raises(ScenarioError) as info:
        parse_scenario(d)
    assert str(info.value) == message


def test_link_parameter_errors_name_the_link():
    d = corridor_scenario_dict([("ctm", [0, 1])], n_links=2)
    d["links"][1]["capacity"] = -1.0
    with pytest.raises(ScenarioError, match="^link 1: capacity_per_lane must be positive$"):
        parse_scenario(d)


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_scenarios_are_valid(name):
    sc = load_scenario("src/hybridtraffic/scenarios/%s.yaml" % name)
    assert validate_scenario(sc) == []


# --- command line ------------------------------------------------------


def test_cli_validate_ok(tmp_path):
    p = tmp_path / "s.yaml"
    p.write_text(yaml.safe_dump(_base()))
    assert cli_main(["validate", str(p)]) == 0


def test_cli_validate_reports_problems(tmp_path, capsys):
    d = _base()
    d["models"] = [{"kind": "ctm", "links": [0], "dt": 2.0}]
    p = tmp_path / "bad.yaml"
    p.write_text(yaml.safe_dump(d))
    assert cli_main(["validate", str(p)]) == 1
    assert "no model" in capsys.readouterr().out + capsys.readouterr().err


def test_cli_run_writes_outputs(tmp_path):
    p = tmp_path / "s.yaml"
    p.write_text(yaml.safe_dump(_base()))
    out = tmp_path / "out"
    rc = cli_main(
        ["run", str(p), "--duration", "100", "--out-dir", str(out), "--seed", "3"]
    )
    assert rc == 0
    for f in ("lane_groups.csv", "link_states.csv", "boundaries.csv"):
        assert (out / f).exists() and (out / f).stat().st_size > 0


@pytest.mark.parametrize("override, message", [
    (["--out-dt", "-5"], "output period must be positive"),
    (["--out-dt", "0"], "output period must be positive"),
    (["--duration", "-1"], "run duration must be positive"),
])
def test_cli_run_checks_overrides_like_file_values(override, message, tmp_path,
                                                   monkeypatch, capsys):
    def no_run(sc):  # at --out-dt -5 a started run would never end
        raise AssertionError("the run was started")

    monkeypatch.setattr(cli, "Engine", no_run)
    out = tmp_path / "out"
    assert cli_main(["run", "macro_meso", "--out-dir", str(out), *override]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_cli_resolves_bundled_scenarios(tmp_path):
    assert cli_main(["validate", "macro_meso"]) == 0


def test_cli_unknown_scenario_fails():
    assert cli_main(["validate", "no_such_scenario"]) != 0


def test_partial_lane_gates_are_rejected():
    d = _base()
    d["links"][0]["partials"] = [
        {"position": "outer-downstream", "lanes": 1, "length": 100.0,
         "gates": [[10.0, 20.0]]}
    ]
    with pytest.raises(ScenarioError, match="gates are not supported"):
        parse_scenario(d)
    del d["links"][0]["partials"][0]["gates"]
    assert validate_scenario(parse_scenario(d)) == []


def test_only_the_equalizing_distribution_is_accepted():
    d = _base()
    d["run"]["distribution"] = "uniform"
    with pytest.raises(ScenarioError, match="distribution 'uniform' is not supported"):
        parse_scenario(d)
    d["run"]["distribution"] = "equalizing"
    sc = parse_scenario(d)
    assert validate_scenario(sc) == []
    assert "distribution" not in scenario_to_dict(sc)["run"]


@pytest.mark.parametrize("path, value, owner", [
    (("links", 0, "lanes"), "two", "link 0: "),
    (("models", 0, "dt"), None, "model 0 (ctm): "),
    (("run", "seed"), "abc", "run: "),
], ids=["lanes", "model_dt", "seed"])
def test_bad_numbers_fail_as_scenario_errors_naming_the_entry(path, value, owner):
    # the ValueError/TypeError of a conversion once escaped parsing unwrapped
    d = corridor_scenario_dict([("ctm", [0, 1])], n_links=2)
    target = d
    for k in path[:-1]:
        target = target[k]
    target[path[-1]] = value
    with pytest.raises(ScenarioError) as info:
        parse_scenario(d)
    assert str(info.value).startswith(owner)


def test_validate_reports_split_ratios_that_sum_to_zero_within_the_run():
    # once this validated clean and failed mid-run, at the first delivery
    # into the diverge after t=300
    d = corridor_scenario_dict([("ctm", [0, 1, 2, 3])], n_links=3, duration=600.0)
    d["links"].append({"id": 3, "length": 500.0, "lanes": 1, "capacity": 1000.0,
                       "speed": 100.0, "jam_density": 100.0})
    d["road_connections"].append(
        {"id": 9, "up_link": 0, "up_lanes": [1], "down_link": 3, "down_lanes": [1]})
    d["vehicle_types"] = [{"id": 0, "routing": "probabilistic"}]
    d["routes"] = []
    del d["demands"][0]["route"]
    fading = {"start": 0.0, "period": 300.0, "values": [0.5, 0.0]}
    d["splits"] = [{"link": 0, "vtype": 0, "ratios": {1: fading, 3: dict(fading)}}]
    sc = parse_scenario(d)
    assert validate_scenario(sc) == [
        "split at link 0, type 0: ratios sum to zero at t=300"]
    with pytest.raises(ScenarioError, match="ratios sum to zero at t=300"):
        Engine(sc)
    # ratios that reach zero only after the run are fine; the run's last
    # step is at its duration
    for p in d["splits"][0]["ratios"].values():
        p["period"] = 600.0
    assert validate_scenario(parse_scenario(d)) == [
        "split at link 0, type 0: ratios sum to zero at t=600"]
    for p in d["splits"][0]["ratios"].values():
        p["period"] = 601.0
    assert validate_scenario(parse_scenario(d)) == []
