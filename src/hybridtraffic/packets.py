"""Flux packets: the quantum of exchange between traffic models.

A packet carries either fluid, real vehicle amounts over a state table, or
lists of Vehicle objects per state (vehicle-based). A single packet is
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
    """Fluid (`table` and `amounts`) or `vehicles`, never both.

    A fluid packet's `amounts` are aligned with its `table`, a tuple of
    states in state order (`state_sort_key`): a link's state table
    (`RoutingContext.tables`), shared by every packet over that link and
    never copied. A zero amount is a state the packet does not carry. A
    vehicle packet's states are its keys in state order, the order in which
    every caller inserts them (`vehicle_packet` sorts once, and a cut or a
    re-keying keeps the order), each with its vehicles in FIFO order. `size`
    is the total amount, or the number of vehicles, summed once in state
    order when the packet is made."""

    __slots__ = ("table", "amounts", "vehicles", "is_fluid", "size")

    def __init__(self, table: tuple[StateIndex, ...] | None = None,
                 amounts: list[float] | None = None,
                 vehicles: dict[StateIndex, list[Vehicle]] | None = None):
        self.table, self.amounts, self.vehicles = table, amounts, vehicles
        self.is_fluid = vehicles is None
        if vehicles is None:
            self.size = sum(amounts)
        elif amounts is not None:
            raise ProtocolError("packet must be homogeneous (fluid or vehicle)")
        else:
            self.size = float(sum(len(v) for v in vehicles.values()))

    def all_vehicles(self) -> list[Vehicle]:
        """The vehicles in state order, FIFO within a state."""
        return [v for vs in self.vehicles.values() for v in vs]


def fluid_packet(table: tuple[StateIndex, ...],
                 amounts: dict[StateIndex, float]) -> FluxPacket:
    """A fluid packet over `table` of the given per-state amounts; a
    negative amount or a state not in the table is an error."""
    out = [0.0] * len(table)
    slot = {s: k for k, s in enumerate(table)}
    for s, a in amounts.items():
        if a < 0:
            raise ProtocolError("negative fluid amount for state %s" % (s,))
        if s not in slot:
            raise ProtocolError("state %s is not in the packet's table" % (s,))
        out[slot[s]] = a
    return FluxPacket(table, out)


def vehicle_packet(vehicles: Iterable[Vehicle]) -> FluxPacket:
    """A vehicle packet of `vehicles`, grouped by state in state order and
    kept in their given (FIFO) order within a state."""
    by_state: dict[StateIndex, list[Vehicle]] = {}
    for v in vehicles:
        by_state.setdefault(v.state, []).append(v)
    if len(by_state) > 1:
        by_state = {s: by_state[s] for s in sorted(by_state, key=state_sort_key)}
    return FluxPacket(vehicles=by_state)


# --- the sent part of a vehicle packet --------------------------------


def take(p: FluxPacket, alpha: float, limit: int) -> FluxPacket:
    """The vehicles sent at scaling factor alpha in [0, 1], at most `limit`
    of them: per state in state order the first floor(alpha*n) in FIFO
    order, so whole vehicles never exceed the fraction alpha, until `limit`
    are taken. (The engine scales fluid as it delivers it.)"""
    vehicles = {}
    for s, vehs in p.vehicles.items():
        k = min(int(math.floor(alpha * len(vehs) + 1e-9)), limit)
        if k > 0:
            vehicles[s] = vehs[:k]
            limit -= k
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

    def translate(self, p: FluxPacket, location: Any, now: float) -> list[Vehicle]:
        """Whole vehicles condensed from a fluid packet at `location`."""
        out: list[Vehicle] = []
        for s, a in zip(p.table, p.amounts):
            if a <= 0:
                continue
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
