import math

import numpy as np
import pytest

from conftest import corridor_network, std_params
from hybridtraffic.demand import Route, RoutingContext, VehicleType
from hybridtraffic.models.newell import NewellModel
from hybridtraffic.network import Link, Network, RoadConnection
from hybridtraffic.packets import StateIndex, Vehicle

S = StateIndex(0, 0)


def _model(n_links=1, lanes=1, length=500.0, dt=2.0, **sig):
    net, _, _ = corridor_network(n_links, lanes=lanes, length=length)
    m = NewellModel(dt=dt, **sig)
    m.build(net, list(range(n_links)))
    m.set_routing(
        RoutingContext(
            net,
            vehicle_types={0: VehicleType(0, "routed")},
            routes={0: Route(0, tuple(range(n_links)))},
            splits={},
        )
    )
    m.headway_query = lambda rc: 1e9
    return m


def _vehs(n, start=0):
    return [Vehicle(id=start + i, state=S, created=0.0) for i in range(n)]


def _place(lane, positions):
    # downstream-most first; bypasses the entry buffer used by receive
    from hybridtraffic.models.newell import _Car

    lane.cars = [
        _Car(vehicle=Vehicle(id=i, state=S, created=0.0), x=x)
        for i, x in enumerate(positions)
    ]


def test_jam_spacing_and_supply():
    m = _model(lanes=2)
    lane = m.lanes["0:1"]
    assert lane.jam_spacing == pytest.approx(5.0)  # 200 veh/km single file
    assert m.lane_group_supply("0:1") == 100.0  # empty 500 m lane


def test_free_car_advances_at_speed_limit(rng):
    m = _model(dt=2.0)
    m.receive_vehicles(0, _vehs(1), now=0.0)
    m.advance_state(0.0, rng)  # fresh car moves within its entry step
    x0 = m.lanes["0:1"].cars[0].x
    m.compute_demands(2.0, rng)
    m.advance_state(2.0, rng)
    x1 = m.lanes["0:1"].cars[0].x
    assert x1 - x0 == pytest.approx(100.0 / 3.6 * 2.0, abs=1e-9)


def test_follower_respects_wave_gap(rng):
    m = _model(dt=2.0)
    lane = m.lanes["0:1"]
    # leader parked near the end, follower close behind
    _place(lane, [400.0, 390.0])
    m.compute_demands(0.0, rng)
    # h = 10, delta_w = w*dt = 6.17 m -> advance h - dw = 3.83 m
    dw = std_params().congestion_wave_speed / 3.6 * 2.0
    assert lane.cars[1].tentative - 390.0 == pytest.approx(10.0 - dw, abs=1e-6)


def test_capacity_term_caps_flow(rng):
    # with a huge speed limit and tiny wave speed the h*df term governs
    net, _, _ = corridor_network(1, lanes=1)
    m = NewellModel(dt=0.5)
    m.build(net, [0])
    m.set_routing(
        RoutingContext(
            net,
            vehicle_types={0: VehicleType(0, "routed")},
            routes={0: Route(0, (0,))},
            splits={},
        )
    )
    m.headway_query = lambda rc: 1e9
    lane = m.lanes["0:1"]
    _place(lane, [300.0, 250.0])
    m.compute_demands(0.0, rng)
    df = 1000.0 / 3600.0 * 0.5
    expect = min(100.0 / 3.6 * 0.5, 50.0 - m._means(lane)[1], 50.0 * df)
    assert lane.cars[1].tentative - 250.0 == pytest.approx(expect, abs=1e-9)


def test_exit_demand_is_fifo_prefix(rng):
    m = _model(dt=2.0)
    lane = m.lanes["0:1"]
    _place(lane, [499.0, 250.0, 240.0])  # only the first reaches the end
    reqs = m.compute_demands(0.0, rng)
    assert len(reqs) == 1
    assert [v.id for v in reqs[0].packet.all_vehicles()] == [0]


def test_rejected_exiter_parks_at_boundary(rng):
    m = _model(dt=2.0)
    lane = m.lanes["0:1"]
    m.receive_vehicles(0, _vehs(1), now=0.0)
    lane.cars[0].x = 499.0
    m.compute_demands(0.0, rng)
    m.advance_state(0.0, rng)  # nothing removed: rejected at the boundary
    assert lane.cars[0].x == pytest.approx(500.0)
    reqs = m.compute_demands(2.0, rng)
    assert reqs and reqs[0].packet.total() == 1


def test_no_collisions_under_noise():
    rng = np.random.default_rng(99)
    m = _model(dt=2.0, sigma_v=5.0, sigma_w=3.0, sigma_f=0.2)
    lane = m.lanes["0:1"]
    next_id = 0
    for k in range(300):
        if m.lane_group_supply("0:1") >= 1:
            m.receive_vehicles(0, _vehs(1, start=next_id), now=k * 2.0)
            next_id += 1
        for req in m.compute_demands(k * 2.0, rng):
            m.remove(req.group_id, None, req.packet)
        m.advance_state(k * 2.0, rng)
        xs = [c.x for c in lane.cars]
        assert all(a > b for a, b in zip(xs, xs[1:])), "ordering lost at step %d" % k


def test_buffer_counts_against_supply(rng):
    m = _model()
    m.receive_vehicles(0, _vehs(3), now=0.0)
    lane = m.lanes["0:1"]
    assert len(lane.cars) == 1 and len(lane.buffer) == 2
    assert m.lane_group_supply("0:1") == 0.0


# --- ring-road fundamental diagram harness -----------------------------


def ring_flow(density_per_km, steps=400, seed=5, length=500.0, **sig):
    """Steady flow (veh/hr) of a two-link ring at the given density.

    The step size makes the effective jam spacing equal the road's, so the
    σ=0 dynamics should reproduce the triangular flow-density relation.
    """
    p = std_params()
    links = [
        Link(id=0, length=length, full_lanes=1, params=p),
        Link(id=1, length=length, full_lanes=1, params=p),
    ]
    rcs = [
        RoadConnection(0, 0, frozenset([1]), 1, frozenset([1])),
        RoadConnection(1, 1, frozenset([1]), 0, frozenset([1])),
    ]
    net = Network.build(links, rcs)
    w_ms = p.congestion_wave_speed / 3.6
    rho_jam = p.jam_density_per_lane / 1000.0  # veh/m single lane
    dt = 1.0 / (w_ms * rho_jam)
    m = NewellModel(dt=dt, **sig)
    m.build(net, [0, 1])
    m.set_routing(
        RoutingContext(
            net,
            vehicle_types={1: VehicleType(1, "probabilistic")},
            routes={},
            splits={},
        )
    )
    down_group = {0: "1:1", 1: "0:1"}
    m.headway_query = lambda rc: m.distance_to_last_vehicle(down_group[rc])
    # seed vehicles evenly, already keyed to their next link
    from hybridtraffic.models.newell import _Car

    n_total = int(round(density_per_km * 2 * length / 1000.0))
    per_link = [n_total // 2 + (n_total % 2), n_total // 2]
    vid = 0
    for lid in (0, 1):
        # evenly spaced, downstream-most first, tagged with the next link
        lane = m.lanes["%d:1" % lid]
        k = per_link[lid]
        lane.cars = [
            _Car(vehicle=Vehicle(vid + j, StateIndex(1, 1 - lid), 0.0),
                 x=length - (j + 0.5) * length / k)
            for j in range(k)
        ] if k else []
        vid += k
    rng = np.random.default_rng(seed)
    crossings = 0
    warmup = steps // 2
    for s in range(steps):
        for req in m.compute_demands(s * dt, rng):
            rc = req.rc
            gid = down_group[rc]
            supply = m.lane_group_supply(gid)
            take = req.packet.all_vehicles()[: int(supply)]
            if not take:
                continue
            from hybridtraffic.packets import vehicle_packet

            m.remove(req.group_id, rc, vehicle_packet(take))
            for v in take:
                v.state = StateIndex(1, 0 if rc == 0 else 1)
            m.receive_vehicles(1 if rc == 0 else 0, take, s * dt)
            if s >= warmup:
                crossings += len(take)
        m.advance_state(s * dt, rng)
    hours = (steps - warmup) * dt / 3600.0
    return crossings / 2.0 / hours  # two boundaries


def triangular_flow(density_per_km):
    p = std_params()
    return min(
        p.speed_limit * density_per_km,
        p.congestion_wave_speed * (p.jam_density_per_lane - density_per_km),
    )


@pytest.mark.parametrize("rho", [4.0, 10.0, 30.0, 60.0, 90.0])
def test_ring_fd_matches_triangle(rho):
    q = ring_flow(rho, steps=600)
    expect = triangular_flow(rho)
    assert q == pytest.approx(expect, rel=0.02), "rho=%s: %s vs %s" % (rho, q, expect)
