"""The whole-vehicle half of the model interface, which `two_queue` and
`newell` share (`VehicleModel`): one contract, checked on both."""

import pytest

from conftest import (corridor_network, corridor_scenario_dict,
                      supplies_around_the_pass)
from hybridtraffic import Engine
from hybridtraffic.demand import Route, RoutingContext, VehicleType
from hybridtraffic.models import NewellModel, TwoQueueModel
from hybridtraffic.packets import StateIndex, Vehicle
from hybridtraffic.scenario import parse_scenario

S, S2 = StateIndex(0, 0), StateIndex(1, 0)
MODELS = [TwoQueueModel, NewellModel]


def _model(cls):
    # one 50 m lane: a queue holds 5 vehicles, a car-following lane 10 m per car
    net, _, _ = corridor_network(1, lanes=1, length=50.0)
    m = cls(dt=2.0)
    m.build(net, [0])
    m.set_routing(RoutingContext(
        net,
        vehicle_types={0: VehicleType(0, "routed"), 1: VehicleType(1, "routed")},
        routes={0: Route(0, (0,))},
        splits={},
    ))
    m.headway_query = lambda rc: 1e9
    return m


def _vehs(*ids):
    return [Vehicle(id=i, state=S if i % 2 == 0 else S2) for i in ids]


def _room_behind_a_buffer(m, rng):
    """Receive six vehicles, advance once and release vehicles 0 and 1: the
    lane group then has room while vehicles still wait in its buffer."""
    m.receive_vehicles(0, _vehs(*range(6)), 0.0)
    m.compute_demands(0.0, rng)
    m.advance_state(2.0, rng)
    m.remove("0:1", None, _vehs(0, 1))
    buffered = [v.id for v in m.groups["0:1"].buffer]
    assert buffered and m.groups["0:1"].has_room()
    return buffered


def _drain(m, rng, t):
    """Step the model until it is empty; the ids in the order they leave."""
    out = []
    while m.total_vehicles("0:1") and t < 2000.0:
        for req in m.compute_demands(t, rng):
            m.remove(req.group_id, req.rc, req.sent)
            out += [v.id for v in req.sent]
        m.advance_state(t, rng)
        t += m.dt
    return out


@pytest.mark.parametrize("cls", MODELS)
def test_a_newcomer_queues_behind_the_buffer_and_leaves_after_it(cls, rng):
    m = _model(cls)
    buffered = _room_behind_a_buffer(m, rng)
    m.receive_vehicles(0, _vehs(100), 2.0)
    assert [v.id for v in m.groups["0:1"].buffer] == buffered + [100]
    order = _drain(m, rng, 2.0)
    assert order[-1] == 100 and set(buffered) < set(order)


@pytest.mark.parametrize("cls", MODELS)
def test_supply_sees_an_arrival_at_once_and_a_release_after_the_advance(cls, rng):
    # the supply is the free space now, so an arrival lowers it at once ...
    m = _model(cls)
    start = m.lane_group_supply("0:1")
    m.receive_vehicles(0, _vehs(0), 0.0)
    assert m.lane_group_supply("0:1") < start
    # ... and a release raises it once the engine takes the release out of
    # its sender, after every junction has delivered and just before the
    # advance; through the junction pass it reads the same. A light demand
    # often leaves one car on the lane, so a release empties it
    d = corridor_scenario_dict([(cls.kind, [0, 1])], n_links=2, rate_vph=150.0,
                               duration=300.0)
    reads = supplies_around_the_pass(Engine(parse_scenario(d)), "0:1")
    assert len(reads) > 10
    assert all(end == start <= after for start, end, after in reads)
    assert any(end < after for _, end, after in reads)


@pytest.mark.parametrize("cls", MODELS)
def test_removing_an_absent_vehicle_names_the_lane_group(cls):
    m = _model(cls)
    m.receive_vehicles(0, _vehs(0), 0.0)
    msg = "lane group 0:1: 1 of 1 released vehicles not present"
    with pytest.raises(RuntimeError, match=msg):
        m.remove("0:1", None, _vehs(99))


@pytest.mark.parametrize("cls", MODELS)
def test_counts_totals_and_lookups_agree_over_every_stage(cls, rng):
    # a queue holds vehicles in transit, waiting and buffered; a car-following
    # lane holds cars and buffered vehicles
    m = _model(cls)
    _room_behind_a_buffer(m, rng)
    m.advance_state(2.0, rng)
    m.receive_vehicles(0, _vehs(200, 201), 2.0)
    g = m.groups["0:1"]
    held = _vehs(2, 3, 4, 5, 200, 201)
    assert g.buffer and g.n_placed()
    assert sorted(v.id for v in g.vehicles()) == [v.id for v in held]
    assert dict(zip(m.routing.tables[0], m.state_counts(0))) == {S: 3.0, S2: 3.0}
    assert m.total_vehicles("0:1") == 6.0
    assert m.local_cumulative_count(0, 0.0) == 2.0
    for v in held:
        link, gid, x, speed = m.find_vehicle(v.id, 2.0)
        assert (link, gid) == (0, "0:1") and 0.0 <= x <= 50.0 and speed >= 0.0
    assert m.find_vehicle(g.buffer[-1].id, 2.0) == (0, "0:1", 0.0, 0.0)
    assert m.find_vehicle(0, 2.0) is None


@pytest.mark.parametrize("cls", MODELS)
def test_the_models_keep_only_their_dynamics(cls):
    shared = ("receive_vehicles", "receive_fluid", "remove", "state_counts",
              "find_vehicle", "local_cumulative_count", "local_density_per_m",
              "total_vehicles")
    assert not set(shared) & set(vars(cls))


@pytest.mark.parametrize("cls", MODELS)
def test_local_density_counts_the_buffered_vehicles_too(cls):
    # four vehicles sent into the empty 50 m lane are all on the link, placed
    # or waiting in its entry buffer: 80 veh/km on both models
    m = _model(cls)
    m.receive_vehicles(0, _vehs(0, 1, 2, 3), 0.0)
    assert m.groups["0:1"].stored() == 4
    assert m.local_density_per_m(0, 25.0) * 1000.0 == pytest.approx(80.0)


@pytest.mark.parametrize("cls", MODELS, ids=lambda c: c.kind)
def test_a_vehicle_model_refuses_fluid(cls):
    m = _model(cls)
    with pytest.raises(RuntimeError, match="^%s model receives whole vehicles only$" % cls.kind):
        m.receive_fluid("0:1", [1.0], 0.0)


def test_a_fluid_model_refuses_whole_vehicles():
    from hybridtraffic.models import CtmModel

    net, _, _ = corridor_network(1, lanes=1)
    m = CtmModel(dt=2.0, max_cell_length=100.0)
    m.build(net, [0])
    with pytest.raises(RuntimeError, match="^ctm model receives fluid only; translate first$"):
        m.receive_vehicles(0, _vehs(0), 0.0)
