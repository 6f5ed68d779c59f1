import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_take
from conftest import cars_by_state, slots_of
from hybridtraffic.packets import (
    FluidToVehicleTranslator,
    FluxPacket,
    ProtocolError,
    StateIndex,
    Vehicle,
    VehicleFactory,
    by_slot,
    fluid_packet,
    take,
)
from reference_routing import state_sort_key

S0 = StateIndex(0, 0)
S1 = StateIndex(0, 1)
TABLE = (S0, S1)  # a state table: states in state order


def _vehs(n, state=S0, start=0):
    return [Vehicle(id=start + i, state=state) for i in range(n)]


def test_a_car_list_by_slot_counts_its_cars_per_slot_of_its_table():
    # fluid is amounts over the table; whole vehicles stay a FIFO list per
    # slot, each slot's count its length
    slots = by_slot(_vehs(1, S1) + _vehs(2, S0, start=10), {S0: 0, S1: 1})
    assert [k for k, _ in slots] == [0, 1]
    assert [len(vs) for _, vs in slots] == [2, 1] and sum(len(vs) for _, vs in slots) == 3
    assert [[v.id for v in vs] for _, vs in slots] == [[10, 11], [0]]
    assert not hasattr(fluid_packet(TABLE, {S1: 1.0}), "vehicles")


def test_totals_and_states():
    p = fluid_packet(TABLE, {S0: 1.5, S1: 0.5})
    assert p.size == pytest.approx(2.0)
    assert isinstance(p, FluxPacket) and p.table is TABLE and p.amounts == [1.5, 0.5]
    # a fluid packet's amounts are aligned with its table, whatever order
    # they are given in, and it keeps its total
    p = fluid_packet(TABLE, {S1: 0.5, S0: 1.5})
    assert p.amounts == [1.5, 0.5]
    assert p.size == 2.0
    q = slots_of(_vehs(3), TABLE)
    assert sum(len(vs) for _, vs in q) == 3
    assert not isinstance(q, FluxPacket)  # cars travel as lists, not packets


STATES = [StateIndex(1, None), StateIndex(0, 7), StateIndex(1, 2), StateIndex(0, None),
          StateIndex(0, 2)]


@settings(max_examples=200, deadline=None, database=None)
@given(st.lists(st.sampled_from(STATES), max_size=30), st.randoms(use_true_random=False))
def test_a_car_list_by_slot_is_in_state_order_and_fifo_within_a_state(states, rnd):
    vehs = [Vehicle(id=i, state=s) for i, s in enumerate(states)]
    rnd.shuffle(vehs)
    # a table lists every state a link can hold, in state order
    table = tuple(sorted(STATES, key=state_sort_key))
    slots = by_slot(vehs, {s: k for k, s in enumerate(table)})
    assert list(cars_by_state(slots, table)) == sorted(set(states), key=state_sort_key)
    # each state keeps the given order of its vehicles, and no slot is empty
    for s, vs in cars_by_state(slots, table).items():
        assert vs == [v for v in vehs if v.state == s]
    assert all(vs for _, vs in slots)
    assert sum(len(vs) for _, vs in slots) == len(vehs)


def test_fluid_packet_rejects_negative_amounts_and_drops_zeros():
    with pytest.raises(ProtocolError, match="negative fluid amount"):
        fluid_packet(TABLE, {S0: 1.0, S1: -0.5})
    with pytest.raises(ProtocolError, match="not in the packet's table"):
        fluid_packet((S0,), {S1: 1.0})
    # a zero amount is a state the packet does not carry
    assert fluid_packet(TABLE, {S0: 0.0, S1: 2.0}).amounts == [0.0, 2.0]
    assert fluid_packet(TABLE, {S1: 2.0}).amounts == [0.0, 2.0]


def _ids(slots):
    return [v.id for _, vs in slots for v in vs]


SLOTS = {s: k for k, s in enumerate(TABLE)}


def test_split_vehicle_floor_per_state():
    cars = _vehs(5, S0) + _vehs(3, S1, start=100)
    sent, cut = take(cars, SLOTS, 0.5, 8)
    # floor(0.5*5)=2, floor(0.5*3)=1
    assert len(cars_by_state(sent, TABLE)[S0]) == 2
    assert len(cars_by_state(sent, TABLE)[S1]) == 1
    # FIFO: first vehicles go first, in sorted-state order
    assert _ids(sent) == [0, 1, 100] == [v.id for v in cut]
    assert len(_ids(take(cars, SLOTS, 1.0, 8)[0])) == 8


def test_split_never_exceeds_alpha():
    cars = _vehs(7)
    for alpha in (0.0, 0.1, 0.33, 0.5, 0.99, 1.0):
        sent, cut = take(cars, SLOTS, alpha, 7)
        assert len(_ids(sent)) == len(cut) <= alpha * 7 + 1e-9


@pytest.mark.parametrize("limit", [0, 1, 2, 3, 4, 5, 10])
def test_cut_stops_at_its_total_limit(limit):
    # per state floor(0.6*5)=3 and floor(0.6*3)=1: at most 4 before the limit
    sent, cut = take(_vehs(3, S1, start=100) + _vehs(5, S0), SLOTS, 0.6, limit)
    ids = _ids(sent)
    # the limit keeps a prefix of the uncut share, in state order
    assert ids == [0, 1, 2, 100][:limit] == [v.id for v in cut]
    # each slot of the cut is a slot of the table, with the cars it sent
    assert [k for k, _ in sent] == [0, 1][:len(sent)]
    assert all(vs for _, vs in sent)


@st.composite
def _cuts(draw):
    """1-4 slots of FIFO car lists (some empty), slot k's cars of state
    (0, k); the FIFO list they make, the slots' cars interleaved in a drawn
    order that keeps each slot's; an alpha in [0, 1], often one that puts
    alpha*n within 1e-9 of an integer for a slot's n, and a limit from 0 to
    the cars' total."""
    sizes = draw(st.lists(st.integers(0, 12), min_size=1, max_size=4))
    slots, start = [], 0
    for k, n in enumerate(sizes):
        slots.append([Vehicle(id=start + i, state=StateIndex(0, k)) for i in range(n)])
        start += n
    queues = [list(vs) for vs in slots]
    cars = [queues[k].pop(0) for k in draw(st.permutations(
        [k for k, n in enumerate(sizes) for _ in range(n)]))]
    n = draw(st.sampled_from([m for m in sizes if m] or [1]))
    near = draw(st.integers(0, n)) / n + draw(st.floats(-1e-9, 1e-9)) / n
    alpha = draw(st.one_of(st.floats(0.0, 1.0), st.just(min(1.0, max(0.0, near)))))
    return slots, cars, alpha, draw(st.integers(0, start))


@settings(max_examples=500, deadline=None, database=None)
@given(_cuts())
def test_take_on_car_lists_matches_the_packet_cut(case):
    slots, cars, alpha, limit = case
    want = reference_take.take(slots, alpha, limit)
    got, cut = take(cars, {StateIndex(0, k): k for k in range(len(slots))}, alpha, limit)
    assert {k: [v.id for v in vs] for k, vs in got} == {
        k: [v.id for v in vs] for k, vs in enumerate(want) if vs}
    assert [k for k, _ in got] == sorted(k for k, _ in got)
    assert [v.id for v in cut] == _ids(got)


def test_translator_residues_conserve():
    tr = FluidToVehicleTranslator(VehicleFactory())
    emitted = 0
    total = 0.0
    for _ in range(100):
        out = tr.translate(fluid_packet(TABLE, {S0: 0.3}), "L")
        emitted += len(out)
        total += 0.3
    residue = tr.residues["L"][0]  # per location, aligned with its table
    assert emitted + residue == pytest.approx(total, abs=1e-9)
    assert emitted == 30 or emitted == 29  # floor behavior, residue < 1
    assert 0 <= residue < 1


def test_translator_locations_independent():
    tr = FluidToVehicleTranslator(VehicleFactory())
    tr.translate(fluid_packet(TABLE, {S0: 0.6}), "A")
    out = tr.translate(fluid_packet(TABLE, {S0: 0.6}), "B")
    assert not out  # B's residue is independent of A's
    out = tr.translate(fluid_packet(TABLE, {S0: 0.6}), "A")
    assert len(out) == 1


def test_factory_ids_sequential():
    f = VehicleFactory()
    a = f.make(S0)
    b = f.make(S0)
    assert (a.id, b.id) == (0, 1)
