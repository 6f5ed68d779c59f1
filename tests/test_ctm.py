import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (by_state, corridor_network, corridor_scenario_dict, std_params,
                      supplies_around_the_pass)
from hybridtraffic import Engine
from hybridtraffic.demand import (
    ConfigurationError,
    Profile,
    Route,
    RoutingContext,
    RoutingError,
    SplitProfile,
    VehicleType,
)
from hybridtraffic.models.ctm import CtmModel
from hybridtraffic.network import Link, Network, PartialLaneStructure, RoadConnection
from hybridtraffic.packets import FluxPacket, ProtocolError, StateIndex, fluid_packet
from hybridtraffic.scenario import parse_scenario
from reference_ctm import ReferenceCtmModel

S = StateIndex(0, 0)  # the one state of `_single_link_model`'s link, slot 0


def _routing_for(net, route_links):
    return RoutingContext(
        net,
        vehicle_types={0: VehicleType(0, "routed")},
        routes={0: Route(0, tuple(route_links))},
        splits={},
    )


def _single_link_model(dt=2.0, length=500.0, lanes=1, max_cell=100.0):
    net, _, _ = corridor_network(1, lanes=lanes, length=length)
    m = CtmModel(dt=dt, max_cell_length=max_cell)
    m.build(net, [0])
    m.set_routing(_routing_for(net, [0]))
    return m, net


def test_cell_partitioning():
    m, _ = _single_link_model(length=500.0, max_cell=100.0)
    gc = m.groups["0:1"]
    assert gc.count == 5
    assert gc.length == pytest.approx(100.0)
    m2, _ = _single_link_model(length=450.0, max_cell=100.0)
    gc2 = m2.groups["0:1"]
    assert gc2.count == 5
    assert gc2.length == pytest.approx(90.0)


def test_cfl_violation_raises():
    # 100 km/h, dt 10 s -> 278 m per step > 100 m cell
    with pytest.raises(ConfigurationError):
        _single_link_model(dt=10.0, max_cell=100.0)


def test_normalized_speeds():
    m, _ = _single_link_model(dt=2.0)
    # v = 27.78 m/s * 2 s / 100 m
    assert m.link_v[0] == pytest.approx(0.5556, rel=1e-3)
    # w_phys = 11.11 km/h
    assert m.link_w[0] == pytest.approx(0.0617, rel=1e-3)


def test_free_flow_pulse_advances(rng):
    # dt chosen so v*dt equals exactly one cell: pure translation
    m, _ = _single_link_model(dt=3.6, max_cell=100.0)
    gc = m.groups["0:1"]
    m.receive_fluid("0:1", [1.0], 0.0)
    m.compute_demands(0.0, rng)
    m.advance_state(0.0, rng)
    assert m.occupancy("0:1", 0)[S] == pytest.approx(1.0)
    for k in range(1, 5):
        m.compute_demands(k * 3.6, rng)
        m.advance_state(k * 3.6, rng)
        tot = [gc.cell_total(i) for i in range(5)]
        assert tot[k] == pytest.approx(1.0, abs=1e-12)
        assert sum(tot) == pytest.approx(1.0, abs=1e-12)


def test_supply_and_demand_formulas(rng):
    m, _ = _single_link_model(dt=2.0, lanes=2)
    gc = m.groups["0:1"]
    # empty: supply = w * n_max
    assert m.lane_group_supply("0:1") == pytest.approx(m.link_w[0] * gc.n_max)
    m.set_occupancy("0:1", 0, {S: 6.0})
    assert m.lane_group_supply("0:1") == pytest.approx(m.link_w[0] * (gc.n_max - 6.0))
    # demand from the last cell: min(v n, f_cap n_s/n_tot)
    m.set_occupancy("0:1", -1, {S: 10.0})
    reqs = m.compute_demands(0.0, rng)
    assert len(reqs) == 1
    assert reqs[0].rc is None  # terminal link: network exit
    d = by_state(reqs[0].sent)[S]
    assert d == pytest.approx(min(m.link_v[0] * 10.0, gc.f_cap))


def test_supply_is_net_of_the_fluid_received_until_the_advance(rng):
    # Daganzo's receiving flow w (N - n) is admitted once per own step, so
    # whatever senders call receive_fluid in between counts against it
    m, _ = _single_link_model(dt=2.0, lanes=2)
    gc = m.groups["0:1"]
    full = m.link_w[0] * gc.n_max  # 1.23 veh per step
    m.receive_fluid("0:1", [0.5], 0.0)
    assert m.lane_group_supply("0:1") == full - 0.5
    m.compute_demands(0.0, rng)
    m.receive_fluid("0:1", [0.25], 0.0)
    assert m.lane_group_supply("0:1") == full - 0.75
    m.receive_fluid("0:1", [1.0], 0.0)
    assert m.lane_group_supply("0:1") == 0.0  # never negative
    m.advance_state(0.0, rng)
    n = gc.cell_total(0)
    assert n == pytest.approx(1.75)
    assert m.lane_group_supply("0:1") == max(0.0, m.link_w[0] * (gc.n_max - n))


def test_a_one_cell_lane_groups_supply_ignores_what_it_sent_until_the_advance():
    # the first cell is the last, yet its supply reads the same through the
    # junction pass, whichever junction is solved first: the engine takes
    # what the lane group sent out of it only once every junction has
    # delivered, just before the advance; then it reads the room left
    d = corridor_scenario_dict([("ctm", [0, 1], {"max_cell_length": 500.0})], n_links=2,
                               duration=200.0)
    eng = Engine(parse_scenario(d))
    assert eng.model_of_link[0].groups["0:1"].count == 1
    reads = supplies_around_the_pass(eng, "0:1")
    assert len(reads) > 50
    for start, end, after in reads:
        assert end == start < after


def test_demand_split_proportional_to_occupancy(rng):
    m, _ = _single_link_model(dt=2.0, lanes=2)
    gc = m.groups["0:1"]
    S2 = StateIndex(0, 0)
    # single route here, so use two amounts within one state via two cells is
    # not possible; instead check capacity apportionment with a full cell
    m.set_occupancy("0:1", -1, {S: 30.0})
    reqs = m.compute_demands(0.0, rng)
    assert by_state(reqs[0].sent)[S] == pytest.approx(gc.f_cap)


def test_remove_and_receive_conserve(rng):
    m, _ = _single_link_model()
    m.set_occupancy("0:1", -1, {S: 5.0})
    m.compute_demands(0.0, rng)
    table = m.routing.tables[0]
    m.remove("0:1", None, fluid_packet(table, {S: 2.0}))
    assert m.occupancy("0:1", -1)[S] == pytest.approx(3.0)
    with pytest.raises(RuntimeError, match="outflow exceeds occupancy for state"):
        m.remove("0:1", None, fluid_packet(table, {S: 99.0}))
    # a packet over another table than the link's is refused
    with pytest.raises(ProtocolError, match="not over link 0's state table"):
        m.remove("0:1", None, fluid_packet((S,), {S: 1.0}))
    m.receive_fluid("0:1", [1.25], 0.0)
    assert m.total_vehicles("0:1") == pytest.approx(3.0 + 1.25 + 5.0 - 5.0 + 2.0 - 2.0)


def test_a_slot_without_a_lane_plan_is_refused_on_entry_naming_the_state_and_link():
    # route 1 passes link 0 but jumps to link 2, which no road connection
    # from link 0 reaches: its state keeps a slot in link 0's table, with no
    # lane plan, and is refused the first time fluid arrives in that slot
    net, _, _ = corridor_network(3, lanes=1)
    m = CtmModel(dt=2.0, max_cell_length=100.0)
    m.build(net, [0, 1, 2])
    routing = RoutingContext(
        net, vehicle_types={0: VehicleType(0, "routed")},
        routes={0: Route(0, (0, 1, 2)), 1: Route(1, (0, 2))}, splits={})
    m.set_routing(routing)
    skipping = StateIndex(0, 1)
    assert routing.tables[0] == (S, skipping)
    m.receive_fluid("0:1", [1.0, 0.0], 0.0)  # the routable slot enters
    with pytest.raises(RoutingError, match=re.escape(
            "state %s has no slot on link 0: no lane group of link 0 leads to link 2"
            % (skipping,))):
        m.receive_fluid("0:1", [0.0, 1.0], 0.0)
    with pytest.raises(RoutingError, match=re.escape("state %s has no slot on link 0"
                                                     % (skipping,))):
        m.set_occupancy("0:1", 0, {skipping: 1.0})
    # nothing of the refused amount entered
    assert m.total_vehicles("0:1") == 1.0


def test_seeding_a_state_outside_the_links_table_names_the_state_and_link():
    # route 3 does not exist, so its state has no slot in link 0's table
    m, _ = _single_link_model()
    m.set_occupancy("0:1", 0, {S: 2.0})
    stranger = StateIndex(0, 3)
    with pytest.raises(RoutingError, match=re.escape(
            "state %s has no slot on link 0" % (stranger,))):
        m.set_occupancy("0:1", 0, {S: 1.0, stranger: 1.0})
    assert m.occupancy("0:1", 0) == {S: 2.0}


def _diverge_net():
    links = [
        Link(id=0, length=500, full_lanes=2, params=std_params()),
        Link(id=1, length=500, full_lanes=1, params=std_params()),
        Link(id=2, length=500, full_lanes=1, params=std_params()),
    ]
    rcs = [
        RoadConnection(0, 0, frozenset([1]), 1, frozenset([1])),
        RoadConnection(1, 0, frozenset([2]), 2, frozenset([1])),
    ]
    return Network.build(links, rcs)


def test_lane_change_conserves_and_moves_target_states(rng):
    net = _diverge_net()
    m = CtmModel(dt=2.0, max_cell_length=100.0)
    m.build(net, [0, 1, 2])
    routing = RoutingContext(
        net,
        vehicle_types={0: VehicleType(0, "routed")},
        routes={0: Route(0, (0, 1)), 1: Route(1, (0, 2))},
        splits={},
    )
    m.set_routing(routing)
    s_in = StateIndex(0, 0)  # heads to link 1 via inner lane group
    s_out = StateIndex(0, 1)  # heads to link 2 via outer lane group
    # put both states in the wrong lane group, middle cell
    m.set_occupancy("0:1", 2, {s_out: 3.0})
    m.set_occupancy("0:2", 2, {s_in: 2.0})
    before = 3.0 + 2.0
    m.lane_change_step()
    total = 0.0
    for gid in ("0:1", "0:2"):
        for i in range(m.groups[gid].count):
            total += sum(m.occupancy(gid, i).values())
    assert total == pytest.approx(before, abs=1e-12)
    # everything moved (ample space): wrong-lane occupancies now zero
    assert s_out not in m.occupancy("0:1", 2)
    assert s_in not in m.occupancy("0:2", 2)
    assert m.occupancy("0:2", 2)[s_out] == pytest.approx(3.0)
    assert m.occupancy("0:1", 2)[s_in] == pytest.approx(2.0)


def test_lane_change_limited_by_target_space(rng):
    net = _diverge_net()
    m = CtmModel(dt=2.0, max_cell_length=100.0)
    m.build(net, [0, 1, 2])
    routing = RoutingContext(
        net,
        vehicle_types={0: VehicleType(0, "routed")},
        routes={0: Route(0, (0, 1)), 1: Route(1, (0, 2))},
        splits={},
    )
    m.set_routing(routing)
    s_out = StateIndex(0, 1)
    tgt = m.groups["0:2"]
    m.set_occupancy("0:2", 2, {s_out: tgt.n_max - 1.0})  # nearly full target cell
    m.set_occupancy("0:1", 2, {s_out: 5.0})
    m.lane_change_step()
    moved = m.occupancy("0:2", 2)[s_out] - (tgt.n_max - 1.0)
    assert moved == pytest.approx(1.0, abs=1e-9)  # beta caps at free space
    assert m.occupancy("0:1", 2)[s_out] == pytest.approx(4.0, abs=1e-9)


def test_oracle_equivalence_direct_drive(rng):
    """Scripted protocol order against an independent array-based update."""
    dt = 2.0
    m, _ = _single_link_model(dt=dt, lanes=1)
    gc = m.groups["0:1"]
    v, w = m.link_v[0], m.link_w[0]
    n_max, f_cap = gc.n_max, gc.f_cap
    n = np.zeros(5)
    buffer_model = 0.0
    buffer_oracle = 0.0
    rate = 1300.0 / 3600.0 * dt  # veh per step, above capacity
    for k in range(1000):
        inflow_rate = rate if k < 600 else 0.0
        # model side, engine call order
        reqs = m.compute_demands(k * dt, rng)
        supply = m.lane_group_supply("0:1")
        buffer_model += inflow_rate
        take = min(buffer_model, supply)
        buffer_model -= take
        for req in reqs:
            m.remove("0:1", None, req.sent)
        if take > 0:
            m.receive_fluid("0:1", [take], k * dt)
        m.advance_state(k * dt, rng)
        # oracle side
        out = min(v * n[-1], f_cap)
        flux = np.zeros(4)
        for i in range(4):
            flux[i] = max(0.0, min(v * n[i], f_cap, w * (n_max - n[i + 1])))
        buffer_oracle += inflow_rate
        inflow = min(buffer_oracle, max(0.0, w * (n_max - n[0])))
        buffer_oracle -= inflow
        n_new = n.copy()
        n_new[0] += inflow - flux[0]
        for i in range(1, 4):
            n_new[i] += flux[i - 1] - flux[i]
        n_new[4] += flux[3] - out
        n = n_new
        got = np.array([gc.cell_total(i) for i in range(5)])
        assert np.all(np.abs(got - n) <= 1e-9), "step %d: %s vs %s" % (k, got, n)


def test_vsl_reduces_speed_and_rechecks_cfl():
    m, _ = _single_link_model(dt=2.0)
    m.set_speed_limit(0, 50.0)
    assert m.link_v[0] == pytest.approx(50.0 / 3.6 * 2.0 / 100.0)
    assert m.mean_speed_kmh("0:1") == 50.0  # empty group reports the limit


def test_single_lane_group_links_skip_the_lane_change_step(rng):
    m, _ = _single_link_model(dt=2.0, lanes=1)
    m.set_occupancy("0:1", -1, {S: 3.0})

    def fail(*args):
        raise AssertionError("lane change on a single lane group")

    m.lane_change_step = fail
    assert m.compute_demands(0.0, rng)  # still releases its demand


# --- the array model against the dict model (tests/reference_ctm.py) ----


def _lane_group_net(full, cells, inner, outer):
    """Link 0 of `cells` 100-m cells whose lanes each lead to their own
    one-lane link: `full` full lanes plus an inner and an outer turn pocket
    of `inner` and `outer` cells (0: none), so one lane group per lane."""
    pockets = tuple(
        PartialLaneStructure(pos, 1, 100.0 * n)
        for pos, n in (("inner-downstream", inner), ("outer-downstream", outer)) if n
    )
    link = Link(0, 100.0 * cells, full, std_params(), pockets)
    links = [link] + [Link(j + 1, 100.0, 1, std_params()) for j in range(len(link.lanes))]
    rcs = [RoadConnection(j, 0, frozenset([lane]), j + 1, frozenset([1]))
           for j, lane in enumerate(link.lanes)]
    return Network.build(links, rcs)


def _at_most_two_states(ref):
    return all(len(cell) <= 2 for gc in ref.groups.values() for cell in gc.occ)


def _same(a, b, exact):
    if exact:
        assert a == b
    else:
        assert math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-10)


def _same_amounts(a: dict, b: dict, exact):
    """Per-state amounts; a cell of the dict model keeps its states in
    insertion order, so only their values are compared."""
    for s in set(a) | set(b):
        _same(a.get(s, 0.0), b.get(s, 0.0), exact)


@settings(max_examples=150, deadline=None, database=None)
@given(st.data())
def test_array_model_matches_the_dict_reference(data):
    """Demands, supplies after removes and occupancies after each advance
    agree bit for bit while every cell holds at most two states, and within
    1e-12 relative (1e-10 absolute near zero) otherwise, over lane groups of
    different lengths, dt, lane-change supply factors, states and speed-limit
    commands."""
    full = data.draw(st.integers(1, 4), label="full lanes")
    inner = data.draw(st.integers(0, 6) if full < 4 else st.just(0), label="inner pocket")
    outer = data.draw(st.integers(0, 6) if full + (inner > 0) < 4 else st.just(0),
                      label="outer pocket")
    cells = data.draw(st.integers(max(1, inner, outer), 6), label="cells")
    # at 3.6 s a free-flow step crosses exactly one cell
    dt = data.draw(st.just(3.6) | st.floats(0.5, 3.6), label="dt")
    xi = data.draw(st.floats(0.0, 1.0), label="lc_supply_factor")
    net = _lane_group_net(full, cells, inner, outer)
    n_next = len(net.successors[0])
    routing = RoutingContext(
        net,
        vehicle_types={0: VehicleType(0, "routed"), 1: VehicleType(1, "probabilistic")},
        routes={0: Route(0, (0,)), **{j: Route(j, (0, j)) for j in range(1, n_next + 1)}},
        splits={},
    )
    pool = [StateIndex(0, r) for r in range(n_next + 1)] + [
        StateIndex(1, j) for j in range(1, n_next + 1)]
    states = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3,
                                unique=True), label="states")
    ref, arr = ReferenceCtmModel(dt, 100.0, xi), CtmModel(dt, 100.0, xi)
    for m in (ref, arr):
        m.build(net, [0])
        m.set_routing(routing)
    gids = net.link_groups[0]
    table = routing.tables[0]  # every state of the pool, in state order
    amount = st.one_of(st.just(0.0), st.floats(0.01, 8.0))
    for gid in gids:
        for i in range(arr.groups[gid].count):
            cell = {s: data.draw(amount) for s in states}
            ref.groups[gid].occ[i] = {s: a for s, a in cell.items() if a > 0}
            arr.set_occupancy(gid, i, cell)
    exact = _at_most_two_states(ref)

    def receive():
        # the reference takes a dict in state order, as the engine hands
        # the amounts over; the array model the same amounts over the table
        for gid in gids:
            inflow = {s: data.draw(amount) for s in table if s in states}
            ref.receive_fluid(gid, inflow, 0.0)
            arr.receive_fluid(gid, fluid_packet(table, inflow).amounts, 0.0)

    for _ in range(data.draw(st.integers(1, 6), label="steps")):
        vsl = data.draw(st.none() | st.floats(20.0, 100.0), label="speed limit")
        if vsl is not None:
            ref.set_speed_limit(0, vsl)
            arr.set_speed_limit(0, vsl)
        receive()
        want, got = ref.compute_demands(0.0, None), arr.compute_demands(0.0, None)
        exact = exact and _at_most_two_states(ref)
        assert [(r.group_id, r.rc) for r in got] == [(r.group_id, r.rc) for r in want]
        for w, g in zip(want, got):
            assert g.sent.table is table
            assert list(by_state(g.sent)) == list(w.sent)  # state order
            _same_amounts(by_state(g.sent), w.sent, exact)
            alpha = data.draw(st.floats(0.0, 1.0), label="accepted share")
            # the engine's cut: each amount times alpha, a zero share dropped
            ref.remove(w.group_id, w.rc,
                       {s: b for s, a in w.sent.items() if (b := a * alpha) > 0})
            arr.remove(g.group_id, g.rc,
                       FluxPacket(table, [a * alpha for a in g.sent.amounts]))
        for gid in gids:
            _same(arr.lane_group_supply(gid), ref.lane_group_supply(gid), exact)
            _same(arr.total_vehicles(gid), ref.total_vehicles(gid), exact)
        receive()
        ref.advance_state(0.0, None)
        arr.advance_state(0.0, None)
        # each state's amount comes from the intermediate state; totals are
        # summed over the cells as they are now
        summed = exact and _at_most_two_states(ref)
        for gid in gids:
            for i in range(arr.groups[gid].count):
                _same_amounts(arr.occupancy(gid, i), ref.groups[gid].occ[i], exact)
            _same(arr.mean_speed_kmh(gid), ref.mean_speed_kmh(gid), summed)
        _same_amounts(dict(zip(table, arr.state_counts(0))), ref.state_counts(0), False)
        exact = summed
