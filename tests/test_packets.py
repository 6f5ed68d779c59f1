import pytest

from hybridtraffic.packets import (
    FluidToVehicleTranslator,
    FluxPacket,
    ProtocolError,
    StateIndex,
    Vehicle,
    VehicleFactory,
    distribute,
    fluid_packet,
    take,
    vehicle_packet,
)

S0 = StateIndex(0, 0)
S1 = StateIndex(0, 1)


def _vehs(n, state=S0, start=0):
    return [Vehicle(id=start + i, state=state, created=0.0) for i in range(n)]


def test_packet_homogeneity_enforced():
    with pytest.raises(ProtocolError):
        FluxPacket(fluid={S0: 1.0}, vehicles={S1: _vehs(1)})


def test_totals_and_states():
    p = fluid_packet({S0: 1.5, S1: 0.5})
    assert p.total() == pytest.approx(2.0)
    assert p.states() == [S0, S1]
    q = vehicle_packet(_vehs(3))
    assert q.total() == 3.0
    assert not q.is_fluid


def test_fluid_packet_rejects_negative_amounts_and_drops_zeros():
    with pytest.raises(ProtocolError, match="negative fluid amount"):
        fluid_packet({S0: 1.0, S1: -0.5})
    assert fluid_packet({S0: 0.0, S1: 2.0}).fluid == {S1: 2.0}


def test_scale_fluid_conserves():
    p = fluid_packet({S0: 3.0, S1: 1.0})
    sent = take(p, 0.25)
    assert sent.fluid == {S0: 0.75, S1: 0.25}
    assert list(sent.fluid) == [S0, S1]  # sorted-state order
    assert take(p, 1.0).fluid == p.fluid
    assert take(p, 0.0).fluid == {}  # a zero share is not kept
    assert p.fluid == {S0: 3.0, S1: 1.0}  # the offered packet is left as it was


def test_split_vehicle_floor_per_state():
    p = vehicle_packet(_vehs(5, S0) + _vehs(3, S1, start=100))
    sent = take(p, 0.5)
    # floor(0.5*5)=2, floor(0.5*3)=1
    assert len(sent.vehicles[S0]) == 2
    assert len(sent.vehicles[S1]) == 1
    # FIFO: first vehicles go first, in sorted-state order
    assert [v.id for v in sent.all_vehicles()] == [0, 1, 100]
    assert take(p, 1.0).total() == 8


def test_split_never_exceeds_alpha():
    p = vehicle_packet(_vehs(7))
    for alpha in (0.0, 0.1, 0.33, 0.5, 0.99, 1.0):
        sent = take(p, alpha)
        assert sent.total() <= alpha * 7 + 1e-9


def test_distribute_equalizing_proportional_to_space():
    parts = distribute({S0: 3.0}, {"a": 9.0, "b": 3.0})
    assert parts["a"][S0] == pytest.approx(2.25)
    assert parts["b"][S0] == pytest.approx(0.75)
    # shares never exceed free space when the total fits
    assert parts["a"][S0] <= 9.0 and parts["b"][S0] <= 3.0
    # without any free space the amounts are split evenly
    parts = distribute({S1: 1.0, S0: 3.0}, {"a": 0.0, "b": -1.0})
    assert parts["a"] == parts["b"] == {S0: 1.5, S1: 0.5}
    assert list(parts["a"]) == [S0, S1]  # sorted-state order
    with pytest.raises(ProtocolError):
        distribute({S0: 1.0}, {})


def test_translator_residues_conserve():
    tr = FluidToVehicleTranslator(VehicleFactory())
    emitted = 0
    total = 0.0
    for _ in range(100):
        out = tr.translate(fluid_packet({S0: 0.3}), "L", 0.0)
        emitted += len(out)
        total += 0.3
    assert emitted + tr.residue("L", S0) == pytest.approx(total, abs=1e-9)
    assert emitted == 30 or emitted == 29  # floor behavior, residue < 1
    assert 0 <= tr.residue("L", S0) < 1


def test_translator_locations_independent():
    tr = FluidToVehicleTranslator(VehicleFactory())
    tr.translate(fluid_packet({S0: 0.6}), "A", 0.0)
    out = tr.translate(fluid_packet({S0: 0.6}), "B", 0.0)
    assert not out  # B's residue is independent of A's
    out = tr.translate(fluid_packet({S0: 0.6}), "A", 0.0)
    assert len(out) == 1


def test_factory_ids_sequential():
    f = VehicleFactory()
    a = f.make(S0, 0.0)
    b = f.make(S0, 0.0)
    assert (a.id, b.id) == (0, 1)
