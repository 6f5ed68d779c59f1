import numpy as np
import pytest

from conftest import corridor_network
from hybridtraffic.demand import Route, RoutingContext, VehicleType
from hybridtraffic.models.twoqueue import TwoQueueModel
from hybridtraffic.packets import StateIndex, Vehicle

S = StateIndex(0, 0)


def _model(n_links=1, lanes=1, length=500.0, dt=2.0):
    net, _, _ = corridor_network(n_links, lanes=lanes, length=length)
    m = TwoQueueModel(dt=dt)
    m.build(net, list(range(n_links)))
    m.set_routing(
        RoutingContext(
            net,
            vehicle_types={0: VehicleType(0, "routed")},
            routes={0: Route(0, tuple(range(n_links)))},
            splits={},
        )
    )
    return m


def _vehs(n, start=0):
    return [Vehicle(id=start + i, state=S) for i in range(n)]


def test_capacity_parameters():
    m = _model(lanes=2)
    gq = m.groups["0:1"]
    assert gq.n_max == pytest.approx(100.0)  # 100 veh/km * 2 lanes * 0.5 km
    assert gq.service_rate == pytest.approx(2000.0 / 3600.0)
    assert gq.tau == pytest.approx(18.0)  # 500 m at 100 km/h


def test_transit_delay_enforced(rng):
    m = _model()
    m.receive_vehicles(0, _vehs(3), now=0.0)
    # before tau no vehicle is offered regardless of the service draw
    for t in (0.0, 2.0, 16.0):
        assert m.compute_demands(t, rng) == []
    offered = []
    for k in range(9, 40):
        for req in m.compute_demands(k * 2.0, rng):
            offered.extend(v.id for v in req.sent)
            m.remove(req.group_id, None, req.sent)
        m.advance_state(k * 2.0, rng)
        if len(offered) == 3:
            break
    assert sorted(set(offered)) == [0, 1, 2]


def test_fifo_order(rng):
    m = _model()
    m.receive_vehicles(0, _vehs(5), now=0.0)
    served = []
    k = 0
    while len(served) < 5 and k < 200:
        for req in m.compute_demands(k * 2.0, rng):
            served.extend(v.id for v in req.sent)
            m.remove(req.group_id, None, req.sent)
        k += 1
    assert served == [0, 1, 2, 3, 4]


def test_supply_counts_all_stages(rng):
    m = _model(lanes=1)  # n_max = 50
    assert m.lane_group_supply("0:1") == pytest.approx(50.0)
    m.receive_vehicles(0, _vehs(30), now=0.0)
    assert m.lane_group_supply("0:1") == pytest.approx(20.0)
    m.receive_vehicles(0, _vehs(30, start=100), now=0.0)
    # 10 of the second batch overflow into the entry buffer but still count
    assert m.lane_group_supply("0:1") == 0.0
    gq = m.groups["0:1"]
    assert len(gq.buffer) == 10
    assert gq.stored() == 60


def test_buffer_admitted_as_space_frees(rng):
    m = _model(lanes=1)
    m.receive_vehicles(0, _vehs(55), now=0.0)
    gq = m.groups["0:1"]
    assert len(gq.buffer) == 5
    # serve some vehicles out after the transit delay
    removed = 0
    k = 10
    while removed < 10 and k < 500:
        for req in m.compute_demands(k * 2.0, rng):
            removed += len(req.sent)
            m.remove(req.group_id, None, req.sent)
        m.advance_state(k * 2.0, rng)
        k += 1
    assert removed >= 10
    assert len(gq.buffer) == 0
    assert gq.stored() == 55 - removed


def test_remove_requires_waiting_vehicles(rng):
    m = _model()
    m.receive_vehicles(0, _vehs(2), now=0.0)
    ghost = _vehs(1, start=99)
    with pytest.raises(RuntimeError):
        m.remove("0:1", None, ghost)


def test_service_draw_long_run_mean(rng):
    """Saturated queue throughput matches the Poisson service mean."""
    m = _model(lanes=1, dt=2.0)
    gq = m.groups["0:1"]
    mean = gq.service_rate * m.dt
    draws = 20000
    total = 0
    next_id = 0
    for k in range(draws):
        # keep the waiting queue saturated
        while len(gq.waiting) < 40:
            gq.waiting.extend(_vehs(10, start=next_id))
            next_id += 10
        reqs = m.compute_demands(1e9, rng)  # far past any transit delay
        offered = sum(len(r.sent) for r in reqs)
        assert offered <= len(gq.waiting)
        total += offered
        for r in reqs:
            m.remove(r.group_id, None, r.sent)
    expect = draws * mean
    sigma = np.sqrt(draws * mean)
    assert abs(total - expect) < 3 * sigma


def test_mean_speed_reflects_waiting_share(rng):
    m = _model()
    gq = m.groups["0:1"]
    m.receive_vehicles(0, _vehs(4), now=0.0)
    assert m.mean_speed_kmh("0:1") == pytest.approx(100.0)  # all in transit
    m.compute_demands(100.0, rng)  # promotes to waiting
    assert m.mean_speed_kmh("0:1") == pytest.approx(0.0)


def test_set_speed_limit_changes_tau():
    m = _model()
    m.set_speed_limit(0, 50.0)
    assert m.groups["0:1"].tau == pytest.approx(36.0)


def test_find_vehicle_positions(rng):
    m = _model()
    m.receive_vehicles(0, _vehs(1), now=0.0)
    link, gid, pos, speed = m.find_vehicle(0, now=9.0)
    assert link == 0 and gid == "0:1"
    assert pos == pytest.approx(250.0)  # halfway through an 18 s transit
    assert speed == pytest.approx(100.0)
    m.compute_demands(20.0, rng)
    link, gid, pos, speed = m.find_vehicle(0, now=20.0)
    assert pos == pytest.approx(500.0) and speed == 0.0
    assert m.find_vehicle(42, now=0.0) is None


def test_speed_limit_command_reaches_speed_reports():
    m = _model()
    m.set_speed_limit(0, 50.0)
    m.receive_vehicles(0, _vehs(3), now=0.0)  # all three in transit
    assert m.mean_speed_kmh("0:1") == pytest.approx(50.0)
    link, gid, pos, speed = m.find_vehicle(1, now=18.0)
    assert speed == pytest.approx(50.0)
    assert pos == pytest.approx(250.0)  # halfway through a 36 s transit


def test_queue_clears_a_carried_newell_overshoot():
    # newell -> two_queue -> newell: a car leaving link 0 carries its exit
    # overshoot; the queue on link 1 keeps no position, so link 2 must grant
    # the documented half mean step, not the distance earned on link 0
    from conftest import corridor_scenario_dict
    from hybridtraffic.engine import Engine
    from hybridtraffic.scenario import parse_scenario

    eng = Engine(parse_scenario(corridor_scenario_dict(
        [("newell", [0]), ("two_queue", [1]), ("newell", [2, 3])], duration=300.0)))
    carried = {1: [], 2: []}  # link -> ext of each vehicle as it arrives
    for link in carried:
        m = eng.model_of_link[link]

        def spy(link_id, vehicles, now, receive=m.receive_vehicles):
            if link_id in carried:
                carried[link_id] += [v.ext for v in vehicles]
            return receive(link_id, vehicles, now)

        m.receive_vehicles = spy
    eng.run()
    # link 0's cars do carry an overshoot into the queue ...
    assert any(isinstance(x, float) and x > 0 for x in carried[1])
    # ... which is dropped there
    assert len(carried[2]) > 10
    assert all(x is None for x in carried[2])
