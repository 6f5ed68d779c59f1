"""Flux packets: the quantum of exchange between traffic models.

Every packet is laid out over a link's state table: per state, a fluid
amount, or a FIFO list of Vehicle objects and its count. A single packet is
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


@dataclass
class Vehicle:
    id: int
    state: StateIndex
    created: float
    ext: Any = None  # model-specific extension slot


class FluxPacket:
    """Amounts over a state table, with the vehicles behind them or none.

    `table` is a link's state table (`RoutingContext.tables`), a tuple of
    states in state order shared by every packet over that link and never
    copied, and `amounts` is aligned with it: a zero is a state the packet
    does not carry. A fluid packet has no `vehicles`; a vehicle packet has
    one FIFO list per slot, and each amount is the length of its list.
    `size` is the total amount, summed once in slot order when the packet
    is made."""

    __slots__ = ("table", "amounts", "vehicles", "is_fluid", "size")

    def __init__(self, table: tuple[StateIndex, ...], amounts: list[float],
                 vehicles: list[list[Vehicle]] | None = None):
        self.table, self.amounts, self.vehicles = table, amounts, vehicles
        self.is_fluid = vehicles is None
        self.size = sum(amounts)

    def all_vehicles(self) -> list[Vehicle]:
        """The vehicles in slot order, FIFO within a slot."""
        return [v for vs in self.vehicles for v in vs]


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


def vehicle_packet(table: tuple[StateIndex, ...], slots: dict[StateIndex, int],
                   vehicles: Iterable[Vehicle]) -> FluxPacket:
    """A vehicle packet over `table` (`slots` maps each of its states to
    its place) of `vehicles`, each in its state's slot, kept in their given
    (FIFO) order within a slot."""
    by_slot: list[list[Vehicle]] = [[] for _ in table]
    for v in vehicles:
        by_slot[slots[v.state]].append(v)
    return FluxPacket(table, [float(len(vs)) for vs in by_slot], by_slot)


# --- the sent part of a vehicle packet --------------------------------


def take(p: FluxPacket, alpha: float, limit: int) -> FluxPacket:
    """The vehicles sent at scaling factor alpha in [0, 1], at most `limit`
    of them: per slot in slot order the first floor(alpha*n) in FIFO order,
    so whole vehicles never exceed the fraction alpha, until `limit` are
    taken. (The engine scales fluid as it delivers it.)"""
    sent = []
    for vs in p.vehicles:
        k = max(0, min(int(math.floor(alpha * len(vs) + 1e-9)), limit))
        sent.append(vs[:k])
        limit -= k
    return FluxPacket(p.table, [float(len(vs)) for vs in sent], sent)


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

    Fractional parts accumulate in a residue per link, aligned with the
    link's state table, that emits a vehicle once it reaches one.
    """

    def __init__(self, factory: VehicleFactory):
        self.factory = factory
        self.residues: dict[int, list[float]] = {}

    def translate(self, p: FluxPacket, link: int, now: float) -> list[Vehicle]:
        """Whole vehicles condensed from a fluid packet over `link`'s table."""
        out: list[Vehicle] = []
        res = self.residues.setdefault(link, [0.0] * len(p.table))
        for k, a in enumerate(p.amounts):
            if a <= 0:
                continue
            acc = res[k] + a
            count = int(math.floor(acc + 1e-12))
            for _ in range(count):
                out.append(self.factory.make(p.table[k], now))
            acc -= count
            res[k] = acc if acc > 1e-15 else 0.0
        return out
