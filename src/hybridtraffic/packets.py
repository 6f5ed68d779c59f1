"""Flux packets: the quantum of exchange between traffic models.

A packet carries per-state contents which are either real vehicle amounts
(fluid) or lists of Vehicle objects (vehicle-based). A single packet is
homogeneous: all-fluid or all-vehicle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


class FluxPacket:
    """Either `fluid` or `vehicles` is populated, never both.

    A fluid packet's states are its keys in state order (`state_sort_key`),
    the order in which every caller inserts them, and its `size` is their
    total, summed once in that order when the packet is made."""

    __slots__ = ("fluid", "vehicles", "size")

    def __init__(self, fluid: dict[StateIndex, float] | None = None,
                 vehicles: dict[StateIndex, list[Vehicle]] | None = None):
        self.fluid = fluid = {} if fluid is None else fluid
        self.vehicles = vehicles = {} if vehicles is None else vehicles
        if vehicles:
            if fluid:
                raise ProtocolError("packet must be homogeneous (fluid or vehicle)")
            self.size = float(sum(len(v) for v in vehicles.values()))
        else:
            self.size = sum(fluid.values())

    @property
    def is_fluid(self) -> bool:
        return not self.vehicles

    def total(self) -> float:
        return self.size

    def states(self) -> list[StateIndex]:
        if self.vehicles:
            return sorted(self.vehicles, key=state_sort_key)
        return list(self.fluid)

    def all_vehicles(self) -> list[Vehicle]:
        out: list[Vehicle] = []
        for s in self.states():
            out.extend(self.vehicles.get(s, []))
        return out


def fluid_packet(amounts: dict[StateIndex, float]) -> FluxPacket:
    """A fluid packet of the positive amounts, in state order; a negative
    one is an error."""
    for s, a in amounts.items():
        if a < 0:
            raise ProtocolError("negative fluid amount for state %s" % (s,))
    return FluxPacket(fluid={
        s: amounts[s] for s in sorted(amounts, key=state_sort_key) if amounts[s] > 0
    })


def vehicle_packet(vehicles: Iterable[Vehicle]) -> FluxPacket:
    by_state: dict[StateIndex, list[Vehicle]] = {}
    for v in vehicles:
        by_state.setdefault(v.state, []).append(v)
    return FluxPacket(vehicles=by_state)


# --- the sent part of a vehicle packet --------------------------------


def take(p: FluxPacket, alpha: float) -> FluxPacket:
    """The vehicles sent at scaling factor alpha in [0, 1]: per state the
    first floor(alpha*n) in FIFO order, so whole vehicles never exceed the
    fraction alpha. (The engine scales fluid as it delivers it.)"""
    vehicles = {}
    for s in p.states():
        vehs = p.vehicles[s]
        k = int(math.floor(alpha * len(vehs) + 1e-9))
        if k:
            vehicles[s] = vehs[:k]
    return FluxPacket(vehicles=vehicles)


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
        for s, a in p.fluid.items():
            key = (location, s)
            acc = self.residues.get(key, 0.0) + a
            count = int(math.floor(acc + 1e-12))
            for _ in range(count):
                out.append(self.factory.make(s, now))
            acc -= count
            if acc > 1e-15:
                self.residues[key] = acc
            else:
                self.residues.pop(key, None)
        return out
