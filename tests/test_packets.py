import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import packet_of, vehicles_by_state
from hybridtraffic.packets import (
    FluidToVehicleTranslator,
    ProtocolError,
    StateIndex,
    Vehicle,
    VehicleFactory,
    fluid_packet,
    take,
    vehicle_packet,
)
from reference_routing import state_sort_key

S0 = StateIndex(0, 0)
S1 = StateIndex(0, 1)
TABLE = (S0, S1)  # a state table: states in state order


def _vehs(n, state=S0, start=0):
    return [Vehicle(id=start + i, state=state, created=0.0) for i in range(n)]


def test_a_vehicle_packet_counts_its_vehicles_per_slot_of_its_table():
    # one layout for both kinds: amounts over the table, and for whole
    # vehicles one FIFO list per slot behind each amount
    p = vehicle_packet(TABLE, {S0: 0, S1: 1}, _vehs(1, S1) + _vehs(2, S0, start=10))
    assert p.table is TABLE and not p.is_fluid
    assert p.amounts == [2.0, 1.0] and p.size == 3.0
    assert [[v.id for v in vs] for vs in p.vehicles] == [[10, 11], [0]]
    assert fluid_packet(TABLE, {S1: 1.0}).vehicles is None


def test_totals_and_states():
    p = fluid_packet(TABLE, {S0: 1.5, S1: 0.5})
    assert p.size == pytest.approx(2.0)
    assert p.is_fluid and p.table is TABLE and p.amounts == [1.5, 0.5]
    # a fluid packet's amounts are aligned with its table, whatever order
    # they are given in, and it keeps its total
    p = fluid_packet(TABLE, {S1: 0.5, S0: 1.5})
    assert p.amounts == [1.5, 0.5]
    assert p.size == 2.0
    q = packet_of(_vehs(3), TABLE)
    assert q.size == 3.0
    assert not q.is_fluid


STATES = [StateIndex(1, None), StateIndex(0, 7), StateIndex(1, 2), StateIndex(0, None),
          StateIndex(0, 2)]


@settings(max_examples=200, deadline=None, database=None)
@given(st.lists(st.sampled_from(STATES), max_size=30), st.randoms(use_true_random=False))
def test_vehicle_packet_is_in_state_order_and_fifo_within_a_state(states, rnd):
    vehs = [Vehicle(id=i, state=s, created=0.0) for i, s in enumerate(states)]
    rnd.shuffle(vehs)
    # a table lists every state a link can hold, in state order
    table = tuple(sorted(STATES, key=state_sort_key))
    p = vehicle_packet(table, {s: k for k, s in enumerate(table)}, vehs)
    assert list(vehicles_by_state(p)) == sorted(set(states), key=state_sort_key)
    # each state keeps the given order of its vehicles
    for s, vs in zip(p.table, p.vehicles):
        assert vs == [v for v in vehs if v.state == s]
    assert p.all_vehicles() == [v for vs in p.vehicles for v in vs]
    assert p.size == len(vehs)


def test_fluid_packet_rejects_negative_amounts_and_drops_zeros():
    with pytest.raises(ProtocolError, match="negative fluid amount"):
        fluid_packet(TABLE, {S0: 1.0, S1: -0.5})
    with pytest.raises(ProtocolError, match="not in the packet's table"):
        fluid_packet((S0,), {S1: 1.0})
    # a zero amount is a state the packet does not carry
    assert fluid_packet(TABLE, {S0: 0.0, S1: 2.0}).amounts == [0.0, 2.0]
    assert fluid_packet(TABLE, {S1: 2.0}).amounts == [0.0, 2.0]


def test_split_vehicle_floor_per_state():
    p = packet_of(_vehs(5, S0) + _vehs(3, S1, start=100), TABLE)
    sent = take(p, 0.5, 8)
    # floor(0.5*5)=2, floor(0.5*3)=1
    assert len(vehicles_by_state(sent)[S0]) == 2
    assert len(vehicles_by_state(sent)[S1]) == 1
    # FIFO: first vehicles go first, in sorted-state order
    assert [v.id for v in sent.all_vehicles()] == [0, 1, 100]
    assert take(p, 1.0, 8).size == 8


def test_split_never_exceeds_alpha():
    p = packet_of(_vehs(7), TABLE)
    for alpha in (0.0, 0.1, 0.33, 0.5, 0.99, 1.0):
        sent = take(p, alpha, 7)
        assert sent.size <= alpha * 7 + 1e-9


@pytest.mark.parametrize("limit", [0, 1, 2, 3, 4, 5, 10])
def test_cut_stops_at_its_total_limit(limit):
    # per state floor(0.6*5)=3 and floor(0.6*3)=1: at most 4 before the limit
    p = packet_of(_vehs(3, S1, start=100) + _vehs(5, S0), TABLE)
    sent = take(p, 0.6, limit)
    ids = [v.id for v in sent.all_vehicles()]
    # the limit keeps a prefix of the uncut share, in state order
    assert ids == [0, 1, 2, 100][:limit]
    assert sent.size == len(ids)
    # each amount counts its slot's vehicles; the cut keeps the table
    assert sent.table is TABLE
    assert sent.amounts == [float(len(vs)) for vs in sent.vehicles]


def test_translator_residues_conserve():
    tr = FluidToVehicleTranslator(VehicleFactory())
    emitted = 0
    total = 0.0
    for _ in range(100):
        out = tr.translate(fluid_packet(TABLE, {S0: 0.3}), "L", 0.0)
        emitted += len(out)
        total += 0.3
    residue = tr.residues["L"][0]  # per location, aligned with its table
    assert emitted + residue == pytest.approx(total, abs=1e-9)
    assert emitted == 30 or emitted == 29  # floor behavior, residue < 1
    assert 0 <= residue < 1


def test_translator_locations_independent():
    tr = FluidToVehicleTranslator(VehicleFactory())
    tr.translate(fluid_packet(TABLE, {S0: 0.6}), "A", 0.0)
    out = tr.translate(fluid_packet(TABLE, {S0: 0.6}), "B", 0.0)
    assert not out  # B's residue is independent of A's
    out = tr.translate(fluid_packet(TABLE, {S0: 0.6}), "A", 0.0)
    assert len(out) == 1


def test_factory_ids_sequential():
    f = VehicleFactory()
    a = f.make(S0, 0.0)
    b = f.make(S0, 0.0)
    assert (a.id, b.id) == (0, 1)
