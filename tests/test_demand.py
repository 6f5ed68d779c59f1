import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_routing
from conftest import by_state, packet_of, successor_network, vehicles_by_state
from hybridtraffic.demand import (
    ConfigurationError,
    DemandProfile,
    Profile,
    Route,
    RoutingContext,
    RoutingError,
    Source,
    SplitProfile,
    VehicleType,
)
from hybridtraffic.packets import FluxPacket, StateIndex, Vehicle, fluid_packet
from reference_routing import state_sort_key


def _ctx(splits=(), nexts=None):
    return RoutingContext(
        successor_network(nexts or {10: [11], 11: [12], 12: []}),
        vehicle_types={0: VehicleType(0, "routed"), 1: VehicleType(1, "probabilistic")},
        routes={0: Route(0, (10, 11, 12))},
        splits={(sp.link, sp.vtype): sp for sp in splits},
    )


def test_profile_piecewise_constant_clamped():
    p = Profile(start_time=0.0, period=100.0, values=(5.0, 7.0))
    assert p.value_at(-10) == 5.0
    assert p.value_at(50) == 5.0
    assert p.value_at(150) == 7.0
    assert p.value_at(1e6) == 7.0


def test_route_successor():
    r = Route(0, (10, 11, 12))
    assert r.successor(10) == 11
    assert r.successor(12) is None
    with pytest.raises(RoutingError):
        r.successor(99)


def test_split_ratios_normalized():
    sp = SplitProfile(
        link=10, vtype=1,
        ratios={11: Profile(0, 1, (2.0,)), 12: Profile(0, 1, (6.0,))},
    )
    r = sp.ratios_at(0.0)
    assert r[11] == pytest.approx(0.25)
    assert r[12] == pytest.approx(0.75)


def test_source_fluid_exact_vehicle_poisson(rng):
    prof = Profile(0, 3600, (1800.0,))
    src = Source(0, DemandProfile(link=10, vtype=0, profile=prof, route=0))
    src.accrue(0.0, 2.0, vehicle_based=False, rng=rng)
    assert src.buffer == pytest.approx(1.0)
    src2 = Source(1, DemandProfile(link=10, vtype=0, profile=prof, route=0))
    total = 0.0
    for i in range(2000):
        total += src2.accrue(i * 2.0, 2.0, vehicle_based=True, rng=rng)
    assert total == src2.total_demanded
    assert total == int(total)  # whole vehicles
    assert total == pytest.approx(2000.0, rel=0.1)  # mean 1/step


def test_entry_state_routed_and_probabilistic(rng):
    ctx = _ctx()
    before = rng.bit_generator.state
    s = ctx.entry_state(0, 10, 0, 0.0, rng)
    assert s == StateIndex(0, 0)
    s = ctx.entry_state(1, 10, None, 0.0, rng)
    assert s == StateIndex(1, 11)  # single successor needs no split profile
    s = ctx.entry_state(1, 12, None, 0.0, rng)
    assert s == StateIndex(1, None)  # terminal link
    assert rng.bit_generator.state == before  # only a diverge draws


def test_next_link_of():
    ctx = _ctx()
    assert ctx.next_link_of(StateIndex(0, 0), 11) == 12
    assert ctx.next_link_of(StateIndex(0, 0), 12) is None
    assert ctx.next_link_of(StateIndex(1, 11), 10) == 11
    assert ctx.next_link_of(StateIndex(1, None), 12) is None


def test_missing_split_at_diverge_raises(rng):
    ctx = _ctx(nexts={10: [11, 12], 11: [12], 12: []})
    with pytest.raises(ConfigurationError):
        ctx.entry_state(1, 10, None, 0.0, rng)


def test_assign_next_link_fluid_divides_exactly(rng):
    splits = [
        SplitProfile(
            link=10, vtype=1,
            ratios={11: Profile(0, 1, (0.25,)), 12: Profile(0, 1, (0.75,))},
        )
    ]
    ctx = _ctx(splits=splits, nexts={10: [11, 12], 11: [12], 12: []})
    p = fluid_packet((StateIndex(1, 10),), {StateIndex(1, 10): 4.0})
    out = ctx.assign_next_link(p, 10, 0.0, rng)
    assert out.table is ctx.tables[10]
    assert by_state(out)[StateIndex(1, 11)] == pytest.approx(1.0)
    assert by_state(out)[StateIndex(1, 12)] == pytest.approx(3.0)
    assert out.size == pytest.approx(4.0)


def test_assign_next_link_vehicles_sampled_and_conserved(rng):
    splits = [
        SplitProfile(
            link=10, vtype=1,
            ratios={11: Profile(0, 1, (0.5,)), 12: Profile(0, 1, (0.5,))},
        )
    ]
    ctx = _ctx(splits=splits, nexts={10: [11, 12], 11: [12], 12: []})
    vehs = [Vehicle(i, StateIndex(1, 10), 0.0) for i in range(200)]
    out = ctx.assign_next_link(packet_of(vehs), 10, 0.0, rng)
    assert out.size == 200
    assert out.table is ctx.tables[10]
    n11 = len(vehicles_by_state(out).get(StateIndex(1, 11), []))
    assert 60 < n11 < 140  # p=0.5, loose bound
    for s, vs in zip(out.table, out.vehicles):
        assert all(v.state == s for v in vs)


def test_assign_next_link_routed_unchanged(rng):
    ctx = _ctx()
    p = fluid_packet(ctx.tables[10], {StateIndex(0, 0): 2.0})
    out = ctx.assign_next_link(p, 11, 0.0, rng)
    assert by_state(out) == {StateIndex(0, 0): 2.0}


def test_route_override_applies_where_route_passes(rng):
    ctx = RoutingContext(
        successor_network({10: [11, 12], 11: [], 12: []}),
        vehicle_types={0: VehicleType(0, "routed")},
        routes={0: Route(0, (10, 11)), 1: Route(1, (10, 12))},
        splits={},
    )
    ctx.route_overrides[0] = 1
    assert ctx.entry_state(0, 10, 0, 0.0, rng) == StateIndex(0, 1)
    # override route does not pass link 11: state kept
    p = fluid_packet(ctx.tables[10], {StateIndex(0, 0): 1.0})
    out = ctx.assign_next_link(p, 11, 0.0, rng)
    assert by_state(out) == {StateIndex(0, 0): 1.0}


# --- compiled rows ---------------------------------------------------------

_DIVERGE = {10: [11, 12], 11: [12], 12: []}


def _diverge_engine(ratios):
    """A routing context over a diverge at link 10, with a split profile of
    the probabilistic type there, and an engine stand-in for actuators."""
    from types import SimpleNamespace

    net = successor_network(_DIVERGE)
    ctx = RoutingContext(
        net,
        vehicle_types={0: VehicleType(0, "routed"), 1: VehicleType(1, "probabilistic")},
        routes={0: Route(0, (10, 11)), 1: Route(1, (10, 12))},
        splits={(10, 1): SplitProfile(link=10, vtype=1, ratios=ratios)},
    )
    return SimpleNamespace(net=net, routing=ctx)


def _rekeyed(ctx, state, now, rng):
    return by_state(ctx.assign_next_link(fluid_packet((state,), {state: 4.0}), 10, now, rng))


def test_two_piece_split_rekeys_with_the_new_ratios_from_the_boundary(rng):
    eng = _diverge_engine({11: Profile(0, 100, (0.25, 0.5)), 12: Profile(0, 100, (0.75, 0.5))})
    ctx, s = eng.routing, StateIndex(1, 10)
    assert _rekeyed(ctx, s, 0.0, rng) == {StateIndex(1, 11): 1.0, StateIndex(1, 12): 3.0}
    assert _rekeyed(ctx, s, 99.9, rng) == {StateIndex(1, 11): 1.0, StateIndex(1, 12): 3.0}
    assert _rekeyed(ctx, s, 100.0, rng) == {StateIndex(1, 11): 2.0, StateIndex(1, 12): 2.0}
    assert _rekeyed(ctx, s, 1e6, rng) == {StateIndex(1, 11): 2.0, StateIndex(1, 12): 2.0}
    # a row is compiled for the time asked, whichever was compiled last
    assert _rekeyed(ctx, s, 50.0, rng) == {StateIndex(1, 11): 1.0, StateIndex(1, 12): 3.0}
    assert ctx._draw(ctx._row(s, 10, 50.0), rng) in (StateIndex(1, 11), StateIndex(1, 12))


def test_split_actuator_override_applies_to_the_next_delivery_until_cleared(rng):
    from hybridtraffic.control import SplitActuator

    eng = _diverge_engine({11: Profile(0, 1, (0.25,)), 12: Profile(0, 1, (0.75,))})
    ctx, s = eng.routing, StateIndex(1, 10)
    act = SplitActuator(id=0, dt=1.0, link=10, vtype=1)
    assert _rekeyed(ctx, s, 0.0, rng) == {StateIndex(1, 11): 1.0, StateIndex(1, 12): 3.0}
    act.apply(eng, 1.0, {"ratios": {11: 0.0, 12: 1.0}})
    assert _rekeyed(ctx, s, 1.0, rng) == {StateIndex(1, 12): 4.0}
    before = rng.bit_generator.state
    assert ctx.entry_state(1, 10, None, 1.0, rng) == StateIndex(1, 12)
    assert rng.bit_generator.state == before  # a one-state row does not draw
    act.apply(eng, 2.0, {"ratios": None})
    assert _rekeyed(ctx, s, 2.0, rng) == {StateIndex(1, 11): 1.0, StateIndex(1, 12): 3.0}


def test_route_actuator_override_and_its_removal_are_honoured(rng):
    from hybridtraffic.control import RouterActuator

    eng = _diverge_engine({11: Profile(0, 1, (0.5,)), 12: Profile(0, 1, (0.5,))})
    ctx = eng.routing
    act = RouterActuator(id=0, dt=1.0, vtype=0)
    assert _rekeyed(ctx, StateIndex(0, 0), 0.0, rng) == {StateIndex(0, 0): 4.0}
    act.apply(eng, 1.0, {"route": 1})
    assert _rekeyed(ctx, StateIndex(0, 0), 1.0, rng) == {StateIndex(0, 1): 4.0}
    assert ctx.entry_state(0, 10, 0, 1.0, rng) == StateIndex(0, 1)
    act.apply(eng, 2.0, {"route": None})
    assert _rekeyed(ctx, StateIndex(0, 0), 2.0, rng) == {StateIndex(0, 0): 4.0}
    assert ctx.entry_state(0, 10, 0, 2.0, rng) == StateIndex(0, 0)


def test_rekeyed_fluid_stays_in_state_order(rng):
    # the engine spreads and condenses a re-keyed packet in the order of the
    # entered link's state table, which must be state order for any mix of
    # types, routes and overrides; a state the link cannot hold is refused
    nexts = {10: [11, 12, 13], 11: [12], 12: [], 13: []}
    # ids listed out of order: a table is built in state order regardless
    vtypes = {v: VehicleType(v, "routed" if v % 2 else "probabilistic") for v in (3, 1, 2, 0)}
    routes = {2: Route(2, (10, 13)), 0: Route(0, (10, 11, 12)), 1: Route(1, (10, 12))}
    refused = 0
    for _ in range(300):
        splits = {
            (10, v): SplitProfile(10, v, {nl: Profile(0, 1, (float(rng.integers(0, 3)),))
                                         for nl in (11, 12, 13)})
            for v in (0, 2)
        }
        for sp in splits.values():
            sp.ratios[13].values = (1.0,)  # never all zero
        ctx = RoutingContext(successor_network(nexts), vtypes, routes, splits)
        if rng.random() < 0.5:
            ctx.override_route(int(rng.choice([1, 3])), int(rng.integers(0, 3)))
        link = int(rng.choice([10, 11, 12]))
        table = ctx.tables[link]
        assert list(table) == sorted(table, key=state_sort_key)
        states = {StateIndex(v, int(rng.integers(0, 3)) if v % 2 else link) for v in range(4)}
        p = fluid_packet(tuple(sorted(states, key=state_sort_key)),
                         {s: float(rng.random()) + 0.1 for s in states})
        # a routed state re-keys to itself, or to its type's override route
        # where that passes the link; the link holds the routes through it
        overrides = ctx.route_overrides
        stray = [s for s in states if s.vtype % 2
                 and link not in routes[overrides.get(s.vtype, s.key)].links
                 and link not in routes[s.key].links]
        if stray:
            with pytest.raises(RoutingError, match="has no slot on link %s$" % link):
                ctx.assign_next_link(p, link, 0.0, rng)
            refused += 1
            continue
        out = ctx.assign_next_link(p, link, 0.0, rng)
        assert out.table is table
        assert out.size == pytest.approx(p.size)
    assert 0 < refused < 300


# --- the inverse-CDF draw against `rng.choice` ---------------------------


RATIO = st.one_of(st.just(0.0), st.floats(1e-3, 10.0))


@st.composite
def _routing_cases(draw):
    """A diverge at link 10 into 2-5 links, split profiles of 1-3 pieces for
    two probabilistic types, maybe a split override for one of them, maybe
    a route override, and 1-50 vehicles of mixed states in shuffled order."""
    n = draw(st.integers(2, 5))
    nexts = list(range(11, 11 + n))
    pieces = draw(st.integers(1, 3))

    def profile_ratios():
        rows = [draw(st.lists(RATIO, min_size=n, max_size=n)) for _ in range(pieces)]
        for row in rows:
            row[draw(st.integers(0, n - 1))] = draw(st.floats(0.1, 10.0))  # one > 0
        return {nl: Profile(0, 50, tuple(row[i] for row in rows))
                for i, nl in enumerate(nexts)}

    splits = {vt: profile_ratios() for vt in (1, 2)}
    override = None
    if draw(st.booleans()):
        ratios = draw(st.lists(RATIO, min_size=n, max_size=n))
        ratios[0] = draw(st.floats(0.1, 10.0))
        override = dict(zip(nexts, ratios))
    route = draw(st.one_of(st.none(), st.integers(0, 1)))
    # type 2 also under a second key: a probabilistic row ignores the key,
    # so the two rows' draws interleave into the same slots
    states = [StateIndex(1, 10), StateIndex(2, 10), StateIndex(2, 9), StateIndex(0, 0),
              StateIndex(0, 1)]
    vehicles = draw(st.lists(st.sampled_from(states), min_size=1, max_size=50))
    order = draw(st.permutations(range(len(vehicles))))
    now = draw(st.floats(0.0, 200.0))
    seed = draw(st.integers(0, 2**32 - 1))
    return nexts, splits, override, route, [vehicles[i] for i in order], now, seed


@settings(max_examples=300, deadline=None, database=None)
@given(_routing_cases())
def test_inverse_cdf_draw_matches_rng_choice(case):
    nexts, splits, override, route, states, now, seed = case
    net = successor_network({10: nexts, **{nl: [] for nl in nexts}})
    runs = []
    for assign in (RoutingContext.assign_next_link, reference_routing.assign_next_link):
        ctx = RoutingContext(
            net,
            vehicle_types={0: VehicleType(0, "routed"), 1: VehicleType(1, "probabilistic"),
                           2: VehicleType(2, "probabilistic")},
            routes={0: Route(0, (10, nexts[0])), 1: Route(1, (10, nexts[-1]))},
            splits={(10, vt): SplitProfile(10, vt, dict(r)) for vt, r in splits.items()},
        )
        if override is not None:
            ctx.override_split(10, 1, override)
        if route is not None:
            ctx.override_route(0, route)
        vehs = [Vehicle(i, s, 0.0) for i, s in enumerate(states)]
        rng = np.random.default_rng(seed)
        out = assign(ctx, packet_of(vehs), 10, now, rng)
        out = vehicles_by_state(out) if isinstance(out, FluxPacket) else out
        entry = [ctx.entry_state(1, 10, None, now, rng) for _ in range(3)]
        runs.append(([(s, [v.id for v in vs]) for s, vs in out.items()],
                     [v.state for v in vehs], entry, rng.random()))
    assert runs[0] == runs[1]


# --- slot amounts against the per-state amounts of the dict hand-over --------


def test_a_diverge_rekeys_into_a_two_lane_group_link_as_the_per_state_hand_over_did():
    """Fluid of a routed and a probabilistic state enters link 1, which
    diverges to links 2 and 3 (split 0.2 : 0.5, normalised) through one
    lane group each. The slot amounts of the re-keyed packet, the ledger and
    the parts spread over the two lane groups (supply 0.9 and 0.35) equal,
    bit for bit, the per-state amounts the StateIndex-dict hand-over gave."""
    from types import SimpleNamespace

    from hybridtraffic.engine import Engine
    from hybridtraffic.scenario import parse_scenario

    def link(i, lanes):
        return {"id": i, "length": 500.0, "lanes": lanes, "capacity": 1800.0,
                "speed": 100.0, "jam_density": 150.0}

    def prof(v):
        return {"start": 0.0, "period": 600.0, "values": [v]}

    eng = Engine(parse_scenario({
        "name": "diverge",
        "links": [link(0, 1), link(1, 2), link(2, 1), link(3, 1)],
        "road_connections": [
            {"id": 0, "up_link": 0, "up_lanes": [1], "down_link": 1, "down_lanes": [1, 2]},
            {"id": 1, "up_link": 1, "up_lanes": [1], "down_link": 2, "down_lanes": [1]},
            {"id": 2, "up_link": 1, "up_lanes": [2], "down_link": 3, "down_lanes": [1]},
        ],
        "models": [{"kind": "ctm", "links": [0, 1, 2, 3], "dt": 2.0}],
        "vehicle_types": [{"id": 0, "routing": "routed"},
                          {"id": 1, "routing": "probabilistic"}],
        "routes": [{"id": 0, "links": [0, 1, 3]}],
        "demands": [{"link": 0, "vtype": 1, "profile": prof(0.0)}],
        "splits": [{"link": 1, "vtype": 1, "ratios": {2: prof(0.2), 3: prof(0.5)}}],
        "run": {"duration": 600.0, "output_dt": 10.0, "seed": 1},
    }))
    assert eng.model_of_link[1].net.link_groups[1] == ["1:1", "1:2"]
    routed, through, left = StateIndex(0, 0), StateIndex(1, 2), StateIndex(1, 3)
    assert eng.routing.tables[1] == (routed, through, left)
    p = fluid_packet(eng.routing.tables[0], {routed: 0.37, StateIndex(1, 1): 1.1})
    out = eng.routing.assign_next_link(p, 1, 0.0, eng.rng)
    h = float.fromhex
    # recorded from the StateIndex-dict hand-over on the same input
    want = [h("0x1.7ae147ae147aep-2"), h("0x1.41d41d41d41d5p-2"), h("0x1.924924924924ap-1")]
    assert out.amounts == want
    got = []
    receiver = SimpleNamespace(vehicle_based=False,
                               receive_fluid=lambda g, part, t: got.append((g, part)))
    eng._enter(receiver, 1, out, ("1:1", "1:2"), [0.9, 0.35], 0.9 + 0.35, 0.0)
    assert got == [
        ("1:1", [h("0x1.10cb295e9e1b1p-2"), h("0x1.cf6ee27345ecdp-3"),
                 h("0x1.21a54d880bb40p-1")]),
        ("1:2", [h("0x1.a858793dd97f6p-4"), h("0x1.6872b020c49bbp-4"),
                 h("0x1.c28f5c28f5c2ap-3")]),
    ]
    assert list(eng.cum_in[1].items()) == list(zip(eng.routing.tables[1], want))
