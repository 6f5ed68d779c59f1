import copy
import math
import re

import pytest
import yaml

from conftest import corridor_scenario_dict
from hybridtraffic import cli
from hybridtraffic.cli import main as cli_main
from hybridtraffic.control import ControlError
from hybridtraffic.engine import Engine
from hybridtraffic.models.ctm import CtmModel
from hybridtraffic.models.newell import NewellModel
from hybridtraffic.scenario import (
    ScenarioError,
    build_runtime,
    load_scenario,
    parse_scenario,
    scenario_to_dict,
    validate_scenario,
)

BUNDLED = ["macro_meso", "macro_micro", "meso_macro", "meso_micro", "micro_macro",
           "micro_meso"]


def _base():
    return corridor_scenario_dict([("ctm", [0, 1])], n_links=2)


# link 0 of the corridor carries partial lanes at both downstream positions
PARTIALS = [{"position": "inner-downstream", "lanes": 1, "length": 100.0},
            {"position": "outer-downstream", "lanes": 2, "length": 150.0}]


def _round_trip_data(name: str) -> dict:
    """A corridor with partial lanes and control elements, a bundled
    scenario, or a small generated grid with signals."""
    if name == "corridor":
        d = _base()
        d["sensors"] = [{"id": 0, "kind": "lane_group", "dt": 10.0, "lane_group": "0:1"}]
        d["actuators"] = [{"id": 0, "kind": "vsl", "dt": 2.0, "link": 0}]
        d["controllers"] = [{"id": 0, "type": "noop", "dt": 10.0}]
        d["links"][0]["partials"] = copy.deepcopy(PARTIALS)
        return d
    if name == "grid":
        import os
        import sys
        from dataclasses import replace

        sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench"))
        from gridgen import grid_scenario
        from harness import GRIDS

        return grid_scenario(replace(GRIDS["grid_macro"], rows=4), 1)
    with open(cli._resolve(name)) as f:
        return yaml.safe_load(f)


@pytest.mark.parametrize("name", ["corridor", *BUNDLED, "grid"])
def test_parse_serialize_round_trip(name):
    sc = parse_scenario(_round_trip_data(name))
    d2 = scenario_to_dict(sc)
    sc2 = parse_scenario(d2)  # which refuses any key the schema does not declare
    assert scenario_to_dict(sc2) == d2  # fixed point after one round trip
    assert sc2 == sc
    assert validate_scenario(sc2) == []  # and the model parameters and control entries
    if name == "corridor":
        assert d2["links"][0]["partials"] == PARTIALS and "partials" not in d2["links"][1]
        assert [(p.position, p.lanes, p.length) for p in sc2.links[0].partials] == [
            ("inner-downstream", 1, 100.0), ("outer-downstream", 2, 150.0)]
        assert not sc2.links[1].partials


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


def _diverge(duration=600.0):
    """A 3-link CTM corridor with a second exit from link 0, to link 3, and
    probabilistic demand at link 0 with no split profile yet."""
    d = corridor_scenario_dict([("ctm", [0, 1, 2, 3])], n_links=3, duration=duration)
    d["links"].append({"id": 3, "length": 500.0, "lanes": 1, "capacity": 1000.0,
                       "speed": 100.0, "jam_density": 100.0})
    d["road_connections"].append(
        {"id": 9, "up_link": 0, "up_lanes": [1], "down_link": 3, "down_lanes": [1]})
    d["vehicle_types"] = [{"id": 0, "routing": "probabilistic"}]
    d["routes"] = []
    del d["demands"][0]["route"]
    return d


def test_validate_flags_missing_split_at_diverge():
    diags = validate_scenario(parse_scenario(_diverge()))
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


def _demand_at_unknown_link(d):
    # of a new probabilistic type, which needs no route
    d["vehicle_types"].append({"id": 1, "routing": "probabilistic"})
    d["demands"].append({"link": 9, "vtype": 1, "profile": {"period": 4000, "values": [100.0]}})


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
    # and the other diagnostics, each naming the element at fault
    (lambda d: d["links"].append(dict(d["links"][5])), r"network: duplicate link ids$"),
    (lambda d: d["road_connections"].append(dict(d["road_connections"][4])),
     r"network: duplicate road connection ids$"),
    (lambda d: d["road_connections"][4].update(down_lanes=[1, 2]),
     r"road connection 4: lane out of range \[2\] on downstream link 5$"),
    (lambda d: d["models"][1]["links"].append(9), r"model 1 references unknown link 9$"),
    (lambda d: d["routes"].append({"id": 1, "links": [4, 9]}),
     r"route 1 references unknown links$"),
    (_demand_at_unknown_link, r"demand references unknown link 9$"),
    (lambda d: d["demands"][0].update(vtype=9), r"demand references unknown vehicle type 9$"),
    (lambda d: d["demands"][0].pop("route"),
     r"demand for routed type 0 at link 0 has no route$"),
    (lambda d: d["demands"][0].update(route=9), r"demand references unknown route 9$"),
    (lambda d: d.update(splits=[dict(_ONE_SPLIT, link=9)]), r"split references unknown link 9$"),
    (lambda d: d.update(splits=[dict(_ONE_SPLIT, vtype=9)]),
     r"split references unknown vehicle type 9$"),
    (lambda d: d.update(splits=[dict(_ONE_SPLIT, ratios={2: {"period": 4000, "values": [1.0]}})]),
     r"split at link 0 names non-successor links \[2\]$"),
    # a control entry is read when it is built; these once raised a bare
    # AttributeError, validated clean, or named lane group '61'
    (lambda d: d.update(sensors=[3]), r"sensor #0: must be a map, got 3$"),
    (lambda d: d.update(sensors=[{"id": 0, "kind": "local", "dt": 10.0, "link": 1,
                                  "ofset": 250.0}]), r"sensor 0: unknown key 'ofset'$"),
    (lambda d: d.update(sensors=[{"id": 0, "kind": "lane_group", "dt": 10.0,
                                  "lane_group": yaml.safe_load("1:1")}]),  # base 60
     r"sensor 0: 'lane_group' must be a string, got 61$"),
], ids=["cfl", "max_cell_length", "lc_supply_factor", "nan_sigma", "dup_vtype",
        "dup_route", "dup_split", "constant_unowned", "dup_link", "dup_rc", "rc_lanes",
        "model_link", "route_links", "demand_link", "demand_vtype", "demand_no_route",
        "demand_route", "split_link", "split_vtype", "split_non_successor",
        "sensor_not_a_map", "sensor_unknown_key", "lane_group_base_60"])
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


@pytest.mark.parametrize("actuator, what", [
    ({"kind": "vsl", "link": 0}, "is not an rc_block actuator"),
    ({"kind": "rc_block", "rc": 1}, "blocks road connection 1"),
], ids=["vsl", "rc_block_of_another_rc"])
def test_a_signal_plan_drives_the_rc_block_actuator_of_its_own_road_connection(
        actuator, what):
    # both once validated clean: a vsl actuator stopped the run at t=0 (its
    # speed limit command {'open': True} has no 'speed_kmh'), and the
    # rc_block actuator of rc 1 silently opened and closed rc 1 on rc 0's plan
    with open(cli._resolve("macro_meso")) as f:
        d = yaml.safe_load(f)
    d["actuators"] = [dict(actuator, id=7, dt=2.0)]
    d["controllers"] = [{"id": 3, "type": "fixed_time_signal", "dt": 2.0, "actuators": [7],
                         "params": {"stages": [{"duration": 10.0, "open_rcs": [0]},
                                               {"duration": 10.0, "open_rcs": []}],
                                    "rc_actuators": {0: 7}}}]
    sc = parse_scenario(d)
    diag = ("controller 3: signal plan drives road connection 0 through actuator 7, which "
            + what)
    assert validate_scenario(sc) == [diag]
    with pytest.raises(ScenarioError, match=re.escape(diag)):
        Engine(sc)


@pytest.mark.parametrize("name, model, key", [
    ("macro_micro", 0, "max_cell_lenght"), ("macro_micro", 0, "sigma_v"),
    ("macro_micro", 1, "max_cell_length"), ("macro_meso", 1, "lc_supply_factor"),
])
def test_validate_rejects_unknown_model_parameters(name, model, key):
    # a misspelled key, or another kind's, once validated clean and was
    # silently ignored
    with open(cli._resolve(name)) as f:
        d = yaml.safe_load(f)
    d["models"][model][key] = 50
    diag = "model %d (%s): unknown parameter %r" % (model, d["models"][model]["kind"], key)
    sc = parse_scenario(d)
    assert validate_scenario(sc) == [diag]
    with pytest.raises(ScenarioError, match=re.escape(diag)):
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


def _partial(**kw):
    return dict({"position": "outer-downstream", "lanes": 1, "length": 100.0}, **kw)


@pytest.mark.parametrize("path, value, message", [
    (("vehicle_types", 0, "routing"), "foo",
     "vehicle type 0: unknown routing behavior 'foo'"),
    (("routes", 0, "links"), [0, 1, 0], "route 0 repeats a link"),
    (("links", 0, "lanes"), 0, "link 0: needs >=1 full lane"),
    (("links", 0, "length"), -5, "link 0: length must be positive"),
    (("links", 0, "speed"), 0, "link 0: speed_limit must be positive"),
    (("links", 0, "jam_density"), 0, "link 0: jam_density_per_lane must be positive"),
    (("links", 0, "partials"), [_partial(position="middle")],
     "link 0: unknown partial-lane position 'middle'"),
    (("links", 0, "partials"), [_partial(lanes=0)],
     "link 0: partial-lane structure needs >=1 lane"),
    (("links", 0, "partials"), [_partial(length=0.0)],
     "link 0: partial-lane length must be positive"),
    (("links", 0, "partials"), [_partial(), _partial(length=50.0)],
     "link 0: duplicate partial-lane position outer-downstream"),
    (("links", 0, "partials"), [_partial(length=600.0)],
     "link 0: partial lane longer than link"),
    (("road_connections", 0, "up_lanes"), [],
     "road connection 0: lane sets must be non-empty"),
    (("models", 0, "links"), [], "model 0 (ctm): model spec with no links"),
    (("routes", 0, "links"), [], "route 0 is empty"),
    (("demands", 0, "profile", "values"), [], "demand 0: profile needs at least one sample"),
    # each of these once raised a bare AttributeError or TypeError naming no
    # entry, or loaded and validated clean
    (("links", 1), [0, 500], "link #1: must be a map, got [0, 500]"),
    (("links",), None, "scenario: 'links' must be a list, got None"),
    (("run",), [1], "scenario: 'run' must be a map, got [1]"),
    (("links", 0, "colour"), "red", "link 0: unknown key 'colour'"),
    (("run", "sed"), 3, "run: unknown key 'sed'"),
    (("spilts",), [], "scenario: unknown key 'spilts'"),
    (("road_connections", 0, "up_lanes"), {1},
     "road connection 0: 'up_lanes' must be a list of integers, got {1}"),
    (("name",), [1], "scenario: 'name' must be a string, got [1]"),
    (("links", 0), {"id": 0, "length": 500.0, "lanes": 1, "capacity": 1000.0, "speed": 100.0,
                    "jam_densty": 100.0}, "link 0: missing required key 'jam_density'"),
], ids=["routing", "route", "lanes", "length", "speed", "jam_density", "partial_position",
        "partial_lanes", "partial_length", "partial_twice", "partial_too_long", "rc_lanes",
        "model_links", "route_empty", "profile_empty", "link_not_a_map", "links_null",
        "run_not_a_map", "link_unknown_key", "run_unknown_key", "top_unknown_key",
        "up_lanes_set", "name_not_text", "link_misspelt_key"])
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


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_scenarios_drain_by_their_end(name):
    # every corridor, both models on their shipped 2 s clocks, empties within
    # the 1,500 s after its demand stops, to under one vehicle left
    eng = Engine(load_scenario("src/hybridtraffic/scenarios/%s.yaml" % name))
    eng.run()
    assert eng.now == 4000.0
    assert eng.total_injected() > 1000.0
    assert eng.total_in_network() < 1.0


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


def test_cli_run_failing_after_set_up_exits_1_with_its_error(tmp_path, capsys):
    # the scenario loads and the engine is built; the output directory names
    # a file, so opening the CSVs fails and the run never starts
    out = tmp_path / "taken"
    out.write_text("")
    assert cli_main(["run", "macro_meso", "--duration", "20", "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == "error: [Errno 17] File exists: %r\n" % str(out)


def test_cli_run_audit_clean(tmp_path, capsys):
    p = tmp_path / "s.yaml"
    p.write_text(yaml.safe_dump(_base()))
    assert cli_main(["run", str(p), "--duration", "100", "--audit",
                     "--out-dir", str(tmp_path / "out")]) == 0
    assert "audit" not in capsys.readouterr().err


def test_cli_run_audit_reports_failures(tmp_path, capsys, monkeypatch):
    # a CTM that keeps what it sends: every sent vehicle is counted twice.
    # On the corridor every cut leaves its sender through `remove`; on a CTM
    # grid the junctions inside the model take theirs out as array steps,
    # and only those keep what they send
    import os
    import sys
    from dataclasses import replace

    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench"))
    from gridgen import grid_scenario
    from harness import GRIDS
    from hybridtraffic.arraydelivery import ArrayJunctions

    grid = grid_scenario(replace(GRIDS["grid_macro"], rows=4, blocks=(("ctm", 0, 9),)), 1)
    for name, d, owner, attr, keep in (
            ("corridor", _base(), CtmModel, "remove", lambda self, group_id, rc, packet: None),
            ("grid", grid, ArrayJunctions, "remove", lambda self: None)):
        monkeypatch.setattr(owner, attr, keep)
        p = tmp_path / ("%s.yaml" % name)
        p.write_text(yaml.safe_dump(d))
        assert cli_main(["run", str(p), "--duration", "100", "--audit",
                         "--out-dir", str(tmp_path / name)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("error: audit found ")
        assert 1 <= len(err) - 1 <= cli.AUDIT_SHOWN
        assert all("imbalance=" in line for line in err[1:])
        monkeypatch.undo()


def test_cli_run_reports_the_boundary_residue_apart_from_the_vehicles(
        tmp_path, capsys, monkeypatch):
    # macro_meso's CTM hands fluid to a two_queue link; the fraction of a
    # vehicle not yet condensed at that boundary is in no model
    engines = []

    def kept(*args, **kwargs):
        engines.append(Engine(*args, **kwargs))
        return engines[-1]

    monkeypatch.setattr(cli, "Engine", kept)
    assert cli_main(["run", "macro_meso", "--duration", "600",
                     "--out-dir", str(tmp_path / "out")]) == 0
    eng, = engines
    residue = eng.total_in_residues()
    assert 0.0 < residue < 1.0
    assert eng.total_in_models() + residue == pytest.approx(eng.total_in_network())
    line = capsys.readouterr().out.strip().splitlines()[-1]
    assert line.endswith(", %g in the models, %g stranded in boundary residues"
                         % (eng.total_in_models(), residue))


def test_cli_resolves_bundled_scenarios(tmp_path):
    assert cli_main(["validate", "macro_meso"]) == 0


def test_cli_unknown_scenario_fails():
    assert cli_main(["validate", "no_such_scenario"]) != 0


def test_cli_refuses_a_file_that_is_not_a_mapping(tmp_path, capsys):
    p = tmp_path / "list.yaml"
    p.write_text("- links\n- models\n")
    assert cli_main(["validate", str(p)]) == 2
    assert capsys.readouterr().err == "error: scenario file must contain a mapping\n"


def test_validate_flags_a_road_connection_into_no_lane_of_its_link():
    # every lane of a link is in one of its lane groups, so a road connection
    # reaches none of them only when every downstream lane is out of range
    d = _base()
    d["road_connections"][0]["down_lanes"] = [3]
    assert validate_scenario(parse_scenario(d)) == [
        "road connection 0: lane out of range [3] on downstream link 1",
    ]


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


@pytest.mark.parametrize("position", ["inner-upstream", "outer-upstream"])
def test_partial_lanes_at_the_upstream_end_are_rejected(position):
    # every lane group is aligned at the downstream end, so these were never
    # simulated; an upstream pocket also gave its link's downstream pocket
    # the same lane length
    d = _base()
    d["links"][0]["partials"] = [
        {"position": position, "lanes": 1, "length": 100.0},
        {"position": position.replace("upstream", "downstream"), "lanes": 1,
         "length": 50.0},
    ]
    with pytest.raises(ScenarioError, match="link 0: partial lanes at the upstream end "
                       "are not supported"):
        parse_scenario(d)


def test_only_the_equalizing_distribution_is_accepted():
    d = _base()
    d["run"]["distribution"] = "uniform"
    with pytest.raises(ScenarioError, match="distribution 'uniform' is not supported"):
        parse_scenario(d)
    d["run"]["distribution"] = "equalizing"
    sc = parse_scenario(d)
    assert validate_scenario(sc) == []
    assert "distribution" not in scenario_to_dict(sc)["run"]


@pytest.mark.parametrize("path, value, message", [
    (("links", 0, "lanes"), "two", "link 0: 'lanes' must be an integer, got 'two'"),
    (("models", 0, "dt"), None, "model 0 (ctm): 'dt' must be a number, got None"),
    (("run", "seed"), "abc", "run: 'seed' must be an integer, got 'abc'"),
    # each of these once loaded as a number it is not: 2, 1, link 0, seed 1,
    # and the profile (1.0, 2.0)
    (("links", 0, "lanes"), 2.5, "link 0: 'lanes' must be an integer, got 2.5"),
    (("links", 0, "lanes"), True, "link 0: 'lanes' must be an integer, got True"),
    (("links", 0, "id"), 0.9, "link 0.9: 'id' must be an integer, got 0.9"),
    (("run", "seed"), 1.7, "run: 'seed' must be an integer, got 1.7"),
    (("demands", 0, "profile", "values"), "12",
     "demand 0: 'values' must be a list of numbers, got '12'"),
], ids=["lanes", "model_dt", "seed", "lanes_fraction", "lanes_bool", "id_fraction",
        "seed_fraction", "values_text"])
def test_bad_numbers_fail_as_scenario_errors_naming_the_entry(path, value, message):
    # the ValueError/TypeError of a conversion once escaped parsing unwrapped
    d = corridor_scenario_dict([("ctm", [0, 1])], n_links=2)
    target = d
    for k in path[:-1]:
        target = target[k]
    target[path[-1]] = value
    with pytest.raises(ScenarioError) as info:
        parse_scenario(d)
    assert str(info.value) == message


def test_validate_reports_split_ratios_that_sum_to_zero_within_the_run():
    # once this validated clean and failed mid-run, at the first delivery
    # into the diverge after t=300
    d = _diverge()
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


def _commanded_split(ratios, cmd=None):
    """The diverge, split half and half, with a constant controller that
    commands its split actuator to `ratios` (or sends it `cmd`) at 4 s."""
    d = _diverge(duration=20.0)
    half = {"start": 0.0, "period": 20.0, "values": [0.5]}
    d["splits"] = [{"link": 0, "vtype": 0, "ratios": {1: half, 3: dict(half)}}]
    d["actuators"] = [{"id": 0, "kind": "split", "dt": 2.0, "link": 0, "vtype": 0}]
    d["controllers"] = [{"id": 0, "type": "constant", "dt": 2.0, "actuators": [0],
                         "params": {"at": 4.0, "commands": {
                             0: {"ratios": ratios} if cmd is None else cmd}}}]
    return parse_scenario(d)


@pytest.mark.parametrize("ratios, problem", [
    ({1: 0.7, 3: 0.7}, "split ratios {1: 0.7, 3: 0.7} must be >= 0 and sum to one"),
    ({1: -0.5, 3: 1.5}, "split ratios {1: -0.5, 3: 1.5} must be >= 0 and sum to one"),
    ({1: 0.5, 2: 0.5}, "split ratios name non-successor links [2]"),
    ("half", "split ratios 'half' are not a map of link to ratio"),
])
def test_validate_rejects_bad_constant_split_commands(ratios, problem):
    # these once validated clean; the run then dropped the command with only
    # a log warning and kept the profile's split
    sc = _commanded_split(ratios)
    assert validate_scenario(sc) == [
        "controller 0: constant command to actuator 0: " + problem]
    with pytest.raises(ScenarioError, match="constant command to actuator 0"):
        Engine(sc)


def _commanded(actuator, cmd):
    """A 2-link CTM corridor with a constant controller that commands
    `actuator` (id 0) with `cmd` at 4 s."""
    d = corridor_scenario_dict([("ctm", [0, 1])], n_links=2, duration=20.0)
    d["actuators"] = [dict(actuator, id=0, dt=2.0)]
    d["controllers"] = [{"id": 0, "type": "constant", "dt": 2.0, "actuators": [0],
                         "params": {"at": 4.0, "commands": {0: cmd}}}]
    return parse_scenario(d)


def _commanded_vsl(cmd):
    """`_commanded` with a VSL actuator on link 0."""
    return _commanded({"kind": "vsl", "link": 0}, cmd)


@pytest.mark.parametrize("cmd, problem", [
    ({"speed_kmh": 0}, "speed limit 0.0 km/h must be positive and finite"),
    ({"speed_kmh": -10}, "speed limit -10.0 km/h must be positive and finite"),
    ({"speed_kmh": float("nan")}, "speed limit nan km/h must be positive and finite"),
    ({"speed_kmh": float("inf")}, "speed limit inf km/h must be positive and finite"),
    ({}, "speed limit command {} has no 'speed_kmh'"),
    ({"speed_kmh": "fast"}, "speed limit 'fast' is not a number"),
], ids=["zero", "negative", "nan", "inf", "missing", "text"])
def test_validate_rejects_bad_constant_vsl_commands(cmd, problem):
    # these once validated clean; the run then stopped when the command
    # fired at t=4, and a NaN was applied and crashed the run at t=14
    sc = _commanded_vsl(cmd)
    assert validate_scenario(sc) == [
        "controller 0: constant command to actuator 0: " + problem]
    with pytest.raises(ScenarioError, match="constant command to actuator 0"):
        Engine(sc)
    # the actuator applies the same rule at run time
    eng = Engine(_commanded_vsl({"speed_kmh": 50.0}))
    with pytest.raises(ControlError, match=re.escape(problem)):
        eng.actuators[0].apply(eng, 0.0, cmd)
    assert eng.model_of_link[0].speed_limit_eff[0] == 100.0


DEMAND = {"kind": "demand", "source": 0}
RC_BLOCK = {"kind": "rc_block", "rc": 0}


@pytest.mark.parametrize("actuator, cmd, problem", [
    (DEMAND, {"intensity_vph": float("nan")},
     "demand intensity nan veh/h must be >= 0 and finite"),
    (DEMAND, {"intensity_vph": float("inf")},
     "demand intensity inf veh/h must be >= 0 and finite"),
    (DEMAND, {"intensity_vph": -5}, "demand intensity -5.0 veh/h must be >= 0 and finite"),
    (DEMAND, {"intensity_vph": "x"}, "demand intensity 'x' is not a number"),
    (DEMAND, [500.0], "demand command [500.0] is not a map"),
    (RC_BLOCK, {"open": "false"},
     "rc_block command {'open': 'false'}: 'open' must be true or false"),
    (RC_BLOCK, {"open": 0}, "rc_block command {'open': 0}: 'open' must be true or false"),
    (RC_BLOCK, "closed", "rc_block command 'closed': 'open' must be true or false"),
], ids=["demand-nan", "demand-inf", "demand-negative", "demand-text", "demand-list",
        "rc-text", "rc-int", "rc-text-command"])
def test_validate_rejects_bad_constant_demand_and_rc_block_commands(actuator, cmd, problem):
    # these once validated clean: a NaN intensity silently stopped the
    # source's fluid (total injected nan, audit clean), text stopped the run
    # with a bare TypeError, a negative one failed only when it fired, and
    # `open: "false"` opened the road connection
    sc = _commanded(actuator, cmd)
    assert validate_scenario(sc) == [
        "controller 0: constant command to actuator 0: " + problem]
    with pytest.raises(ScenarioError, match="constant command to actuator 0"):
        Engine(sc)
    # the actuator applies the same rule at run time, and changes nothing
    eng = Engine(_commanded(actuator, {}))
    with pytest.raises(ControlError, match=re.escape(problem)):
        eng.actuators[0].apply(eng, 0.0, cmd)
    assert eng.sources[0].override_rate is None and eng.closed_rcs == set()


ROUTER = {"kind": "router", "vtype": 0}


@pytest.mark.parametrize("cmd, problem", [
    ({"route": 99}, "unknown route 99"),
    ({"route": "0"}, "unknown route '0'"),
    (5, "router command 5 is not a map"),
], ids=["unknown", "text", "not-a-map"])
def test_validate_rejects_bad_constant_router_commands(cmd, problem):
    # these once validated clean; the run then stopped when the command
    # fired (`unknown route 99` at t=4, 'int' object is not iterable)
    sc = _commanded(ROUTER, cmd)
    assert validate_scenario(sc) == [
        "controller 0: constant command to actuator 0: " + problem]
    with pytest.raises(ScenarioError, match="constant command to actuator 0"):
        Engine(sc)
    # the actuator applies the same rule at run time, and changes nothing
    eng = Engine(_commanded(ROUTER, {}))
    with pytest.raises(ControlError, match=re.escape(problem)):
        eng.actuators[0].apply(eng, 0.0, cmd)
    assert eng.routing.route_overrides == {}


def test_good_constant_router_command_validates_and_applies():
    sc = _commanded(ROUTER, {"route": 0})
    assert validate_scenario(sc) == []
    eng = Engine(sc)
    eng.run()
    assert eng.routing.route_overrides == {0: 0}
    eng.actuators[0].apply(eng, 20.0, {"route": None})
    assert eng.routing.route_overrides == {}


@pytest.mark.parametrize("cmd", [5, [1, 2]], ids=["int", "list"])
def test_validate_rejects_a_constant_command_that_is_not_a_map(cmd):
    # a split command once validated clean and then stopped the run in
    # `Actuator.command` with 'int' object is not iterable
    sc = _commanded_split(None, cmd)
    assert validate_scenario(sc) == [
        "controller 0: constant command to actuator 0: command %r is not a map" % (cmd,)]
    with pytest.raises(ScenarioError, match="constant command to actuator 0"):
        Engine(sc)


def test_good_constant_demand_and_rc_block_commands_apply():
    eng = Engine(_commanded(DEMAND, {"intensity_vph": 500}))
    eng.run()
    assert eng.sources[0].override_rate == 500.0
    eng.actuators[0].apply(eng, 20.0, {})  # no intensity: back to the profile
    assert eng.sources[0].override_rate is None
    eng = Engine(_commanded(RC_BLOCK, {"open": False}))
    eng.run()
    assert eng.closed_rcs == {0}
    eng.actuators[0].apply(eng, 20.0, {})  # no `open`: opens it
    assert eng.closed_rcs == set()


def test_good_constant_vsl_command_is_clamped_at_the_structural_limit():
    sc = _commanded_vsl({"speed_kmh": 140.0})
    assert validate_scenario(sc) == []
    eng = Engine(sc)
    eng.run()
    assert eng.model_of_link[0].speed_limit_eff[0] == 100.0


def test_good_constant_split_command_validates_and_applies():
    sc = _commanded_split({1: 0.3, 3: 0.7})
    assert validate_scenario(sc) == []
    eng = Engine(sc)
    eng.run()
    assert eng.routing.split_overrides == {(0, 0): {1: 0.3, 3: 0.7}}
