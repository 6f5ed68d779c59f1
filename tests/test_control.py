import logging

import pytest

from conftest import corridor_scenario_dict
from hybridtraffic.control import (
    ConstantCommand,
    ControlError,
    Controller,
    FixedTimeSignal,
)
from hybridtraffic.engine import Engine, SimulationError
from hybridtraffic.scenario import ScenarioError, parse_scenario, validate_scenario


def _engine(extra=None, duration=200.0, kinds=None, **kw):
    kinds = kinds or [("ctm", [0, 1])]
    d = corridor_scenario_dict(kinds, n_links=2, duration=duration, **kw)
    if extra:
        d.update(extra)
    return Engine(parse_scenario(d))


def test_lane_group_sensor_reads_count_and_speed():
    eng = _engine(
        extra={
            "sensors": [
                {"id": 0, "kind": "lane_group", "dt": 10.0, "lane_group": "0:1"}
            ]
        }
    )
    eng.run()
    s = eng.sensors[0]
    assert s.last["time"] == pytest.approx(200.0)
    assert len(s.history) == 21  # fires at 0, 10, ..., 200
    assert s.last["count_veh"] > 0
    assert 0.0 < s.last["speed_kmh"] <= 100.0


def test_local_sensor_flow_matches_throughput():
    eng = _engine(
        extra={
            "sensors": [
                {"id": 0, "kind": "local", "dt": 50.0, "link": 0, "offset": 400.0}
            ]
        },
        duration=600.0,
    )
    eng.run()
    s = eng.sensors[0]
    # steady free flow: measured flow settles at the injected 1000 veh/hr
    tail = [m["flow_vph"] for m in s.history[-5:]]
    assert sum(tail) / len(tail) == pytest.approx(1000.0, rel=0.15)
    assert s.last["speed_kmh"] > 0


def test_local_sensor_on_an_empty_link_reports_the_commanded_limit():
    d = corridor_scenario_dict([("ctm", [0, 1, 2, 3])], rate_vph=0.0, duration=20.0)
    d["sensors"] = [
        {"id": 0, "kind": "local", "dt": 10.0, "link": 2, "offset": 250.0},
        {"id": 1, "kind": "lane_group", "dt": 10.0, "lane_group": "2:1"},
    ]
    d["actuators"] = [{"id": 0, "kind": "vsl", "dt": 2.0, "link": 2}]
    d["controllers"] = [{"id": 0, "type": "constant", "dt": 2.0, "actuators": [0],
                         "params": {"at": 0.0, "commands": {0: {"speed_kmh": 50.0}}}}]
    eng = Engine(parse_scenario(d))
    eng.run()
    local, group = eng.sensors
    assert local.last["density_vpkm"] == 0.0
    assert local.last["speed_kmh"] == group.last["speed_kmh"] == 50.0


def test_probe_sensor_follows_then_loses_vehicle():
    eng = _engine(
        extra={
            "sensors": [
                {"id": 0, "kind": "probe", "dt": 10.0, "vehicle": 0}
            ]
        },
        kinds=[("newell", [0, 1])],
        duration=120.0,
    )
    eng.run()
    hist = eng.sensors[0].history
    active = [m for m in hist if m.get("active")]
    assert active, "vehicle 0 never observed"
    assert any(m["link"] == 1 for m in active)  # crossed to the second link
    assert not hist[-1]["active"]  # 1 km at 100 km/h: gone before 120 s


def test_rc_block_actuator_stops_flow():
    eng = _engine(
        extra={
            "actuators": [{"id": 0, "kind": "rc_block", "dt": 2.0, "rc": 0}],
            "controllers": [
                {
                    "id": 0, "type": "constant", "dt": 2.0, "actuators": [0],
                    "params": {"at": 0.0, "commands": {0: {"open": False}}},
                }
            ],
        },
        duration=300.0,
    )
    eng.run()
    assert 0 in eng.closed_rcs
    assert sum(eng.cum_in[1].values()) == 0.0  # nothing crossed the boundary
    assert eng.total_exited() == 0.0


def test_vsl_actuator_applies_and_clamps(caplog):
    eng = _engine(
        extra={"actuators": [{"id": 0, "kind": "vsl", "dt": 2.0, "link": 0}]}
    )
    act = eng.actuators[0]
    act.apply(eng, 0.0, {"speed_kmh": 60.0})
    assert eng.model_of_link[0].speed_limit_eff[0] == 60.0
    with caplog.at_level(logging.WARNING):
        act.apply(eng, 0.0, {"speed_kmh": 140.0})
    assert "clamping" in caplog.text
    assert eng.model_of_link[0].speed_limit_eff[0] == 100.0
    with pytest.raises(ControlError):
        act.apply(eng, 0.0, {"speed_kmh": -5.0})


def test_demand_actuator_overrides_intensity():
    eng = _engine(
        extra={
            "actuators": [{"id": 0, "kind": "demand", "dt": 2.0, "source": 0}],
            "controllers": [
                {
                    "id": 0, "type": "constant", "dt": 2.0, "actuators": [0],
                    "params": {"at": 0.0, "commands": {0: {"intensity_vph": 0.0}}},
                }
            ],
        },
        duration=300.0,
    )
    eng.run()
    assert eng.total_injected() == 0.0


def test_split_actuator_validates_commands(caplog):
    eng = _engine(
        extra={
            "actuators": [
                {"id": 0, "kind": "split", "dt": 2.0, "link": 0, "vtype": 0}
            ]
        }
    )
    act = eng.actuators[0]
    with caplog.at_level(logging.WARNING):
        act.apply(eng, 0.0, {"ratios": {1: 0.5}})  # does not sum to one
    assert "rejected" in caplog.text
    caplog.clear()
    with caplog.at_level(logging.WARNING):
        act.apply(eng, 0.0, {"ratios": {5: 1.0}})  # not a successor of link 0
    assert "non-successor" in caplog.text
    act.apply(eng, 0.0, {"ratios": {1: 1.0}})
    assert eng.routing.split_overrides[0, 0] == {1: 1.0}


def test_fixed_time_signal_stage_schedule():
    algo = FixedTimeSignal(
        stages=[
            {"duration": 30.0, "open_rcs": [0]},
            {"duration": 20.0, "open_rcs": [1]},
        ],
        rc_actuators={0: 10, 1: 11},
    )
    assert algo.cycle == 50.0
    assert algo.update(0.0, {}) == {10: {"open": True}, 11: {"open": False}}
    assert algo.update(35.0, {}) == {10: {"open": False}, 11: {"open": True}}
    assert algo.update(51.0, {}) == {10: {"open": True}, 11: {"open": False}}


def test_fixed_time_signal_alternates_in_engine():
    eng = _engine(
        extra={
            "actuators": [{"id": 0, "kind": "rc_block", "dt": 2.0, "rc": 0}],
            "controllers": [
                {
                    "id": 0, "type": "fixed_time_signal", "dt": 2.0,
                    "actuators": [0],
                    "params": {
                        "stages": [
                            {"duration": 30.0, "open_rcs": []},
                            {"duration": 30.0, "open_rcs": [0]},
                        ],
                        "rc_actuators": {0: 0},
                    },
                }
            ],
        },
        duration=300.0,
    )
    eng.run()
    # the boundary carried flow during green stages only, but some did cross
    assert sum(eng.cum_in[1].values()) > 0
    assert sum(eng.cum_in[1].values()) < sum(eng.cum_in[0].values())


def test_controller_rejects_unowned_actuator():
    eng = _engine(
        extra={"actuators": [{"id": 3, "kind": "rc_block", "dt": 2.0, "rc": 0}]}
    )
    ctrl = Controller(
        id=0, dt=2.0, sensor_ids=[], actuator_ids=[],
        algorithm=ConstantCommand(0.0, {3: {"open": False}}),
    )
    with pytest.raises(ControlError):
        ctrl.step(eng, 0.0)


def test_constant_command_fires_once():
    algo = ConstantCommand(100.0, {1: {"open": False}})
    assert algo.update(50.0, {}) == {}
    assert algo.update(100.0, {}) == {1: {"open": False}}
    assert algo.update(102.0, {}) == {}


def test_signal_plan_requires_stages():
    with pytest.raises(ControlError):
        FixedTimeSignal(stages=[], rc_actuators={})


SENSOR = {"id": 3, "kind": "lane_group", "dt": 10.0, "lane_group": "0:1"}
ACTUATOR = {"id": 4, "kind": "vsl", "dt": 2.0, "link": 0}
CONTROLLER = {"id": 5, "type": "noop", "dt": 2.0}


def _without(d, key):
    return {k: v for k, v in d.items() if k != key}


@pytest.mark.parametrize("section, entry, diag", [
    ("sensors", dict(SENSOR, dt=0), "sensor 3: period dt must be positive"),
    ("sensors", dict(SENSOR, dt=-2), "sensor 3: period dt must be positive"),
    ("actuators", dict(ACTUATOR, dt=0), "actuator 4: period dt must be positive"),
    ("actuators", dict(ACTUATOR, dt=-2), "actuator 4: period dt must be positive"),
    ("controllers", dict(CONTROLLER, dt=0), "controller 5: period dt must be positive"),
    ("controllers", dict(CONTROLLER, dt=-2), "controller 5: period dt must be positive"),
    ("sensors", _without(SENSOR, "dt"), "sensor 3: missing required key 'dt'"),
    ("actuators", _without(ACTUATOR, "dt"), "actuator 4: missing required key 'dt'"),
    ("sensors", _without(SENSOR, "id"), "sensor #0: missing required key 'id'"),
    ("controllers", _without(CONTROLLER, "type"), "controller 5: missing required key 'type'"),
    ("sensors", dict(SENSOR, kind="radar"), "sensor 3: unknown kind 'radar'"),
    ("controllers", dict(CONTROLLER, type="adaptive"), "controller 5: unknown type 'adaptive'"),
    ("controllers",
     dict(CONTROLLER, type="fixed_time_signal", params={"stages": [], "rc_actuators": {}}),
     "controller 5: signal plan needs at least one stage"),
    ("actuators", {"id": 4, "kind": "split", "dt": 2.0, "link": 0, "vtype": 9},
     "actuator 4: unknown vehicle type 9"),
    ("controllers",
     dict(CONTROLLER, type="fixed_time_signal",
          params={"stages": [{"duration": 10.0, "open_rcs": [0]}], "rc_actuators": {0: 4}}),
     "controller 5: signal plan names actuator 4 it does not own"),
    # a negative stage once kept the plan in its first stage, and a NaN one
    # held the last stage for ever
    *[("controllers",
       dict(CONTROLLER, type="fixed_time_signal",
            params={"stages": [{"duration": 30.0, "open_rcs": [0]},
                               {"duration": bad, "open_rcs": []}], "rc_actuators": {}}),
       "controller 5: signal stage durations [30.0, %s] must be positive and finite" % shown)
      for bad, shown in ((-10, "-10.0"), (0, "0.0"), (float("nan"), "nan"),
                         (float("inf"), "inf"))],
    # a stage without open_rcs once validated clean and stopped the run at
    # t=0 with KeyError 'open_rcs'; one naming road connection 7, which does
    # not exist, validated clean and was never opened
    *[("controllers",
       dict(CONTROLLER, type="fixed_time_signal", actuators=[4],
            params={"stages": [{"duration": 10.0, "open_rcs": [0]}, stage],
                    "rc_actuators": {0: 4}}),
       "controller 5: signal stage 1: open_rcs must be a list of the plan's road "
       "connections [0], got %s" % shown)
      for stage, shown in (({"duration": 10.0}, "None"),
                           ({"duration": 10.0, "open_rcs": [7]}, "[7]"),
                           ({"duration": 10.0, "open_rcs": 0}, "0"))],
    # a NaN offset once pinned the plan to its last stage, and a NaN trigger
    # time fired a constant command at t=0
    *[("controllers",
       dict(CONTROLLER, type="fixed_time_signal",
            params={"stages": [{"duration": 10.0, "open_rcs": [0]}], "rc_actuators": {0: 4},
                    "offset": bad}),
       "controller 5: signal offset %s s must be finite" % bad)
      for bad in (float("nan"), float("inf"))],
    *[("controllers", dict(CONTROLLER, type="constant", params={"at": bad, "commands": {}}),
       "controller 5: constant command time 'at' %s s must be finite" % bad)
      for bad in (float("nan"), float("inf"))],
    ("actuators", dict(ACTUATOR, kind="radar"), "actuator 4: unknown kind 'radar'"),
])
def test_malformed_control_entries_fail_validation(section, entry, diag):
    # validate is asserted first: a non-positive period makes `run` loop forever
    d = corridor_scenario_dict([("ctm", [0, 1])], n_links=2, duration=20.0)
    d[section] = [entry]
    sc = parse_scenario(d)
    diags = validate_scenario(sc)
    assert any(x.startswith(diag) for x in diags), diags
    with pytest.raises(ScenarioError):
        Engine(sc)


def test_local_sensor_on_one_cell_lane_groups_counts_their_outflow():
    """A CTM lane group of a single cell has no internal boundary; its
    detector counts the downstream one, as a two_queue link's does. With
    500-m cells the bundled macro_meso corridor measures its 1500 veh/h
    demand on link 1 (CTM), upstream of the queue, and about the 1000 veh/h
    bottleneck capacity on link 4 (two_queue)."""
    import importlib.resources

    import yaml

    path = importlib.resources.files("hybridtraffic") / "scenarios" / "macro_meso.yaml"
    d = yaml.safe_load(path.read_text())
    d["models"][0]["max_cell_length"] = 600
    d["sensors"] = [
        {"id": 0, "kind": "local", "dt": 100.0, "link": 1, "offset": 250.0},
        {"id": 1, "kind": "local", "dt": 100.0, "link": 4, "offset": 250.0},
    ]
    d["run"]["duration"] = 1500.0
    eng = Engine(parse_scenario(d))
    assert eng.model_of_link[1].groups["1:1"].count == 1
    eng.run()
    ctm, queue = eng.sensors
    assert queue.last["flow_vph"] == pytest.approx(1000.0, rel=0.1)
    assert ctm.last["flow_vph"] == pytest.approx(1500.0, rel=0.1)
    assert ctm.last["speed_kmh"] == pytest.approx(100.0, rel=0.05)  # free flow
