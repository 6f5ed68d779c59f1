import numpy as np
import pytest

from conftest import successor_network
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
from hybridtraffic.packets import FluxPacket, StateIndex, Vehicle, fluid_packet, vehicle_packet


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
    p = fluid_packet({StateIndex(1, 10): 4.0})
    out = ctx.assign_next_link(p, 10, 0.0, rng)
    assert out.fluid[StateIndex(1, 11)] == pytest.approx(1.0)
    assert out.fluid[StateIndex(1, 12)] == pytest.approx(3.0)
    assert out.total() == pytest.approx(4.0)


def test_assign_next_link_vehicles_sampled_and_conserved(rng):
    splits = [
        SplitProfile(
            link=10, vtype=1,
            ratios={11: Profile(0, 1, (0.5,)), 12: Profile(0, 1, (0.5,))},
        )
    ]
    ctx = _ctx(splits=splits, nexts={10: [11, 12], 11: [12], 12: []})
    vehs = [Vehicle(i, StateIndex(1, 10), 0.0) for i in range(200)]
    out = ctx.assign_next_link(vehicle_packet(vehs), 10, 0.0, rng)
    assert out.total() == 200
    n11 = len(out.vehicles.get(StateIndex(1, 11), []))
    assert 60 < n11 < 140  # p=0.5, loose bound
    for s, vs in out.vehicles.items():
        assert all(v.state == s for v in vs)


def test_assign_next_link_routed_unchanged(rng):
    ctx = _ctx()
    p = fluid_packet({StateIndex(0, 0): 2.0})
    out = ctx.assign_next_link(p, 11, 0.0, rng)
    assert out.fluid == {StateIndex(0, 0): 2.0}


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
    p = fluid_packet({StateIndex(0, 0): 1.0})
    out = ctx.assign_next_link(p, 11, 0.0, rng)
    assert out.fluid == {StateIndex(0, 0): 1.0}


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
    return ctx.assign_next_link(fluid_packet({state: 4.0}), 10, now, rng).fluid


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
    # the engine spreads and condenses a re-keyed packet in its key order,
    # which must be state order for any mix of types, routes and overrides
    from hybridtraffic.packets import state_sort_key

    nexts = {10: [11, 12, 13], 11: [12], 12: [], 13: []}
    vtypes = {v: VehicleType(v, "routed" if v % 2 else "probabilistic") for v in range(4)}
    routes = {0: Route(0, (10, 11, 12)), 1: Route(1, (10, 12)), 2: Route(2, (10, 13))}
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
        states = {StateIndex(v, int(rng.integers(0, 3)) if v % 2 else link) for v in range(4)}
        p = fluid_packet({s: float(rng.random()) + 0.1 for s in states})
        out = ctx.assign_next_link(p, link, 0.0, rng)
        assert list(out.fluid) == sorted(out.fluid, key=state_sort_key)
        assert out.size == pytest.approx(p.size)
