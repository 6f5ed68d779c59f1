"""Flux packets, the quantum of fluid exchange between traffic models, and
the cut of a car list.

A fluid packet is laid out over a link's state table: one fluid amount per
state. Whole vehicles never travel as packets: a vehicle model offers its
cars as a FIFO list, and the engine takes the sent part of it slot by slot
(`take`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, NamedTuple


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
    ext: Any = None  # model-specific extension slot


class FluxPacket:
    """Fluid amounts over a state table.

    `table` is a link's state table (`RoutingContext.tables`), a tuple of
    states in state order shared by every packet over that link and never
    copied, and `amounts` is aligned with it: a zero is a state the packet
    does not carry. `size` is the total amount, summed once in slot order
    when the packet is made."""

    __slots__ = ("table", "amounts", "size")

    def __init__(self, table: tuple[StateIndex, ...], amounts: list[float]):
        self.table, self.amounts = table, amounts
        self.size = sum(amounts)


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


# --- car lists ---------------------------------------------------------


def by_slot(cars: list[Vehicle], slots: dict[StateIndex, int]) -> list[tuple[int, list[Vehicle]]]:
    """A car list by slot of a state table (`slots` maps each of its states
    to its place): (slot, its cars in FIFO order) in slot order, a slot with
    no car left out."""
    out: dict[int, list[Vehicle]] = {}
    for v in cars:
        out.setdefault(slots[v.state], []).append(v)
    return sorted(out.items())



def take(cars: list[Vehicle], slots: dict[StateIndex, int], alpha: float,
         limit: int) -> tuple[list[tuple[int, list[Vehicle]]], list[Vehicle]]:
    """The cars sent at scaling factor alpha in [0, 1], at most `limit` of
    them, out of a FIFO car list over a state table (`slots` maps each of
    its states to its place): per slot in slot order the first floor(alpha*n)
    of the slot's n cars, so whole vehicles never exceed the fraction alpha,
    until `limit` are taken. Return the sent cars as (slot, cars) in slot
    order, FIFO within a slot and a slot that sends none left out, and the
    same cars as one list, in that order. (The engine scales fluid as it
    delivers it.)"""
    by: dict[int, list[Vehicle]] = {}
    for v in cars:
        k = slots[v.state]
        vs = by.get(k)
        if vs is None:
            by[k] = [v]
        else:
            vs.append(v)
    sent, cut = [], []
    for k in sorted(by):
        vs = by[k]
        n = min(int(math.floor(alpha * len(vs) + 1e-9)), limit)
        if n > 0:
            del vs[n:]
            sent.append((k, vs))
            cut += vs
            limit -= n
    return sent, cut


# --- representation translation ---------------------------------------


class VehicleFactory:
    """Creates vehicles with globally unique, sequential ids."""

    def __init__(self):
        self._next = 0

    def make(self, state: StateIndex) -> Vehicle:
        v = Vehicle(id=self._next, state=state)
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

    def translate(self, p: FluxPacket, link: int) -> list[Vehicle]:
        """Whole vehicles condensed from a fluid packet over `link`'s table."""
        out: list[Vehicle] = []
        res = self.residues.setdefault(link, [0.0] * len(p.table))
        for k, a in enumerate(p.amounts):
            if a <= 0:
                continue
            acc = res[k] + a
            count = int(math.floor(acc + 1e-12))
            for _ in range(count):
                out.append(self.factory.make(p.table[k]))
            acc -= count
            res[k] = acc if acc > 1e-15 else 0.0
        return out
