"""Flux packets: the quantum of exchange between traffic models.

A packet carries per-state contents which are either real vehicle amounts
(fluid) or lists of Vehicle objects (vehicle-based). A single packet is
homogeneous: all-fluid or all-vehicle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Iterable, NamedTuple


class ProtocolError(RuntimeError):
    """A model violated the packet-exchange contract."""


class StateIndex(NamedTuple):
    """Commodity key: (vehicle type id, route id or next-link id).

    For probabilistic types the key is the next link id, or None on a
    terminal link. For routed types the key is the route id.
    """

    vtype: int
    key: int | None


def state_sort_key(s: StateIndex):
    return (s.vtype, s.key is None, s.key if s.key is not None else 0)


@dataclass
class Vehicle:
    id: int
    state: StateIndex
    created: float
    ext: Any = None  # model-specific extension slot


@dataclass
class FluxPacket:
    """Either `fluid` or `vehicles` is populated, never both."""

    fluid: dict[StateIndex, float] = field(default_factory=dict)
    vehicles: dict[StateIndex, list[Vehicle]] = field(default_factory=dict)

    def __post_init__(self):
        if self.fluid and self.vehicles:
            raise ProtocolError("packet must be homogeneous (fluid or vehicle)")

    @property
    def is_fluid(self) -> bool:
        return not self.vehicles

    def total(self) -> float:
        if self.vehicles:
            return float(sum(len(v) for v in self.vehicles.values()))
        return sum(self.fluid.values())

    def states(self) -> list[StateIndex]:
        src = self.vehicles if self.vehicles else self.fluid
        return sorted(src.keys(), key=state_sort_key)

    def all_vehicles(self) -> list[Vehicle]:
        out: list[Vehicle] = []
        for s in self.states():
            out.extend(self.vehicles.get(s, []))
        return out


def fluid_packet(amounts: dict[StateIndex, float]) -> FluxPacket:
    """A fluid packet of the positive amounts; a negative one is an error."""
    for s, a in amounts.items():
        if a < 0:
            raise ProtocolError("negative fluid amount for state %s" % (s,))
    return FluxPacket(fluid={s: a for s, a in amounts.items() if a > 0})


def vehicle_packet(vehicles: Iterable[Vehicle]) -> FluxPacket:
    by_state: dict[StateIndex, list[Vehicle]] = {}
    for v in vehicles:
        by_state.setdefault(v.state, []).append(v)
    return FluxPacket(vehicles=by_state)


# --- the sent part of a packet ----------------------------------------


def take(p: FluxPacket, alpha: float) -> FluxPacket:
    """The part of a packet sent at scaling factor alpha in [0, 1]: each
    fluid amount times alpha, or per state the first floor(alpha*n) vehicles
    in FIFO order, so whole vehicles never exceed the fraction alpha."""
    if p.is_fluid:
        fluid = {}
        for s in p.states():
            a = p.fluid[s] * alpha
            if a > 0:
                fluid[s] = a
        return FluxPacket(fluid=fluid)
    vehicles = {}
    for s in p.states():
        vehs = p.vehicles[s]
        k = int(math.floor(alpha * len(vehs) + 1e-9))
        if k:
            vehicles[s] = vehs[:k]
    return FluxPacket(vehicles=vehicles)


def distribute(
    amounts: dict[StateIndex, float], caps: dict[str, float]
) -> dict[str, dict[StateIndex, float]]:
    """Spread per-state fluid amounts over the lane groups of `caps` (their
    remaining supply) in proportion to their free space. When none has any,
    which happens when entry credit admits a whole vehicle into fluid lane
    groups without supply, the amounts are split evenly."""
    if not caps:
        raise ProtocolError("cannot distribute over an empty lane-group set")
    space = {g: max(0.0, caps[g]) for g in sorted(caps)}
    total = sum(space.values())
    if total <= 0:
        space, total = dict.fromkeys(space, 1.0), float(len(space))
    out: dict[str, dict[StateIndex, float]] = {g: {} for g in space}
    for s in sorted(amounts, key=state_sort_key):
        for g, w in space.items():
            share = amounts[s] * w / total
            if share > 0:
                out[g][s] = share
    return out


# --- representation translation ---------------------------------------


class VehicleFactory:
    """Creates vehicles with globally unique, sequential ids."""

    def __init__(self):
        self._next = 0

    def make(self, state: StateIndex, now: float) -> Vehicle:
        v = Vehicle(id=self._next, state=state, created=now)
        self._next += 1
        return v


class FluidToVehicleTranslator:
    """Converts fluid amounts into whole vehicles.

    Fractional parts accumulate in a per-(location, state) residue that
    emits a vehicle once it reaches one.
    """

    def __init__(self, factory: VehicleFactory):
        self.factory = factory
        self.residues: dict[tuple[Any, StateIndex], float] = {}

    def residue(self, location: Any, state: StateIndex) -> float:
        return self.residues.get((location, state), 0.0)

    def translate(self, p: FluxPacket, location: Any, now: float) -> list[Vehicle]:
        """Whole vehicles condensed from a fluid packet at `location`."""
        out: list[Vehicle] = []
        for s in p.states():
            key = (location, s)
            acc = self.residues.get(key, 0.0) + p.fluid[s]
            count = int(math.floor(acc + 1e-12))
            for _ in range(count):
                out.append(self.factory.make(s, now))
            acc -= count
            if acc > 1e-15:
                self.residues[key] = acc
            else:
                self.residues.pop(key, None)
        return out
