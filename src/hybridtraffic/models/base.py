"""Behavioral contract implemented by every traffic model."""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass, field
from itertools import chain
from typing import NamedTuple

import numpy as np

from ..demand import RoutingContext, RoutingError
from ..network import Network
from ..packets import FluxPacket, StateIndex, Vehicle


class DemandRequest(NamedTuple):
    """One release request: lane group g wants to send along road connection
    `rc` (None when the lane group exits the network) `sent`, a fluid packet
    over its link's state table or whole vehicles as a FIFO car list."""

    group_id: str
    rc: int | None
    sent: FluxPacket | list[Vehicle]


def _exits_last(rc: int | None):
    """Sort key of road connections: ascending, the exit (None) last, the
    order in which the engine books the exits."""
    return (rc is None, rc or 0)


class TrafficModel(ABC):
    """One model instance manages the state of a set of links."""

    kind: str = "abstract"
    vehicle_based: bool = False

    def __init__(self, dt: float):
        if not 0 < dt < math.inf:
            raise ValueError("model time step must be positive and finite")
        self.dt = dt
        self.net: Network | None = None
        self.routing: RoutingContext | None = None
        self.links: list[int] = []
        self.group_ids: list[str] = []
        self.groups: dict = {}  # lane group id -> the model's state of it
        self.speed_limit_eff: dict[int, float] = {}  # km/h, VSL-adjustable

    def build(self, net: Network, link_ids: list[int]):
        self.net = net
        self.links = sorted(link_ids)
        self.group_ids = [
            gid for lid in self.links for gid in net.link_groups[lid]
        ]
        self.speed_limit_eff = {
            lid: net.links[lid].params.speed_limit for lid in self.links
        }

    def set_routing(self, routing: RoutingContext):
        self.routing = routing

    # --- routing over the network tables ------------------------------

    def rc_toward(self, group_id: str, link_id: int, state: StateIndex) -> int | None:
        """Road connection by which the lane group serves the state's next
        link; None when the state leaves the network at this link."""
        nxt = self.routing.next_link_of(state, link_id)
        if nxt is None:
            return None
        rc = self.net.rc_toward.get((group_id, nxt))
        if rc is None:
            raise RoutingError(
                "lane group %s has no road connection toward link %s" % (group_id, nxt)
            )
        return rc

    def groups_toward(self, link_id: int, state: StateIndex) -> list[str]:
        """Lane groups of the link from which the state can reach its next
        link (every group when it leaves the network here)."""
        nxt = self.routing.next_link_of(state, link_id)
        gids = self.net.link_groups[link_id]
        if nxt is None:
            return gids
        cands = [gid for gid in gids if (gid, nxt) in self.net.rc_toward]
        if not cands:
            raise RoutingError(
                "no lane group of link %s leads to link %s" % (link_id, nxt)
            )
        return cands

    @staticmethod
    def requests(group_id: str, by_rc: dict) -> list[DemandRequest]:
        """One request per road connection of `by_rc`, carrying what it maps
        the road connection to (a fluid packet or a non-empty car list), in
        `_exits_last` order."""
        return [DemandRequest(group_id, rc, by_rc[rc])
                for rc in sorted(by_rc, key=_exits_last)]

    # --- protocol surface (Eqs. for |p|, send) --------------------------

    def get_packet_size(self, packet: FluxPacket, rc: int | None) -> float:
        """The receiving model's norm for a fluid packet; default is the
        vehicle total, which suits all first-order models. (A car list is
        sized by its length.)"""
        return packet.size

    @abstractmethod
    def lane_group_supply(self, group_id: str) -> float:
        """Vehicles the lane group can still take before its next advance
        (>= 0): its free space now, net of what has arrived since its last
        advance. The engine reads it through this method whenever it needs
        a supply and keeps no copy beyond one flow phase."""

    @abstractmethod
    def compute_demands(self, now: float, rng: np.random.Generator) -> list[DemandRequest]:
        """Per (lane group, road connection) release requests for this step.
        May mutate internal working state (e.g. lateral movements)."""

    @abstractmethod
    def remove(self, group_id: str, rc: int | None, sent):
        """Take the given contents (a fluid packet, or a list of cars) out of
        the lane group: the accepted part of a previously offered demand. The
        engine calls it once every junction of the flow phase has
        delivered."""

    def receive_fluid(self, group_id: str, amounts: list[float], now: float):
        """Insert fluid content at the upstream end of a lane group: amounts
        aligned with its link's state table (`RoutingContext.tables`)."""
        raise RuntimeError("%s model receives whole vehicles only" % self.kind)

    def receive_vehicles(self, link_id: int, vehicles: list, now: float):
        """Insert whole vehicles entering a link; the model places each into
        its target lane group (or an entry buffer when full)."""
        raise RuntimeError("%s model receives fluid only; translate first" % self.kind)

    @abstractmethod
    def advance_state(self, now: float, rng: np.random.Generator):
        """Advance longitudinal dynamics by one model step."""

    # --- queries used by sensors, outputs, and other models ------------

    @abstractmethod
    def distance_to_last_vehicle(self, group_id: str) -> float:
        """Meters from the lane group's upstream end to its last vehicle."""

    @abstractmethod
    def total_vehicles(self, group_id: str) -> float:
        pass

    @abstractmethod
    def mean_speed_kmh(self, group_id: str) -> float:
        pass

    @abstractmethod
    def state_counts(self, link_id: int) -> list[float]:
        """Vehicle counts over the whole link per slot of its state table
        (for conservation audits and outputs)."""

    # --- optional hooks ------------------------------------------------

    def set_speed_limit(self, link_id: int, v_kmh: float):
        """Variable-speed-limit actuation; models that derive quantities from
        the limit extend this."""
        self.speed_limit_eff[link_id] = v_kmh

    def audit_failures(self) -> list[str]:
        """Broken invariants of the model's own state, each naming its lane
        group or link; checked after every step in audit mode."""
        return []

    def local_cumulative_count(self, link_id: int, offset_m: float) -> float:
        """Cumulative vehicle crossings at the internal boundary nearest to
        `offset_m` from the link's upstream end."""
        raise NotImplementedError

    def local_density_per_m(self, link_id: int, offset_m: float) -> float:
        raise NotImplementedError


@dataclass
class VehicleStore:
    """One lane group's whole vehicles: those its model has placed and, at
    the upstream end, a FIFO entry buffer of arrivals waiting for room. A
    model's store adds `placed()` (a list of the placed vehicles, in its own
    order), `n_placed()`, `has_room()` (whether one more can be placed) and
    `release(ids)` (take out the placed vehicles with these ids and return
    how many there were)."""

    link: int
    length: float
    buffer: deque = field(default_factory=deque, kw_only=True)
    cum_out: float = field(default=0.0, kw_only=True)

    def stored(self) -> int:
        return self.n_placed() + len(self.buffer)

    def vehicles(self):
        return chain(self.placed(), self.buffer)


class VehicleModel(TrafficModel):
    """A model of whole vehicles with one `VehicleStore` per lane group. Its
    requests carry cars, FIFO lists of vehicles (`requests`), which
    cross a junction as lists and come back to `remove` as the list of those
    sent. Entry, buffer admission, release, counts and lookups are here; a
    model adds its dynamics and three hooks: `_pick(gids)`, the lane group
    among those serving its next link that a vehicle enters; `_place(gid, g,
    v, now, fresh)`, which places it at the upstream end (`fresh` in the flow
    phase, not from the buffer in an advance); and `_placed_positions(g,
    now)`, a list of the (vehicle, position_m, speed_kmh) of each placed
    vehicle.

    Two entry tables resolve a state's routing once rather than per car:
    `_entry_groups` maps (link, state) to the lane groups of the link that
    serve the state's next link (`groups_toward`), which a car entering the
    link chooses among, and `_exit_rc` maps (lane group, state) to the road
    connection the state leaves the lane group by (`rc_toward`), which a
    placed car and a demand pass read. Each entry is filled on its first
    use, a refusal is raised there and never stored, and `set_routing`
    empties both, so a route replaced before it is called again is read
    afresh."""

    vehicle_based = True

    def set_routing(self, routing: RoutingContext):
        super().set_routing(routing)
        self._entry_groups: dict[tuple[int, StateIndex], list[str]] = {}
        self._exit_rc: dict[tuple[str, StateIndex], int | None] = {}

    def _rc_of(self, group_id: str, link_id: int, state: StateIndex) -> int | None:
        """`rc_toward`, through the `_exit_rc` table."""
        key = group_id, state
        try:
            return self._exit_rc[key]
        except KeyError:
            rc = self._exit_rc[key] = self.rc_toward(group_id, link_id, state)
            return rc

    def receive_vehicles(self, link_id, vehicles, now):
        # an arrival queues behind any buffered vehicle, so entry is FIFO
        entry = self._entry_groups
        for v in vehicles:
            key = link_id, v.state
            gids = entry.get(key)
            if gids is None:
                gids = entry[key] = self.groups_toward(link_id, v.state)
            gid = gids[0] if len(gids) == 1 else self._pick(gids)
            g = self.groups[gid]
            if g.buffer or not g.has_room():
                g.buffer.append(v)
            else:
                self._place(gid, g, v, now, fresh=True)

    def _admit(self, now: float):
        """Place buffered vehicles, first come first served, while their lane
        group has room."""
        for gid in self.group_ids:
            g = self.groups[gid]
            while g.buffer and g.has_room():
                self._place(gid, g, g.buffer.popleft(), now, fresh=False)

    def remove(self, group_id, rc, cars: list[Vehicle]):
        g = self.groups[group_id]
        ids = {v.id for v in cars}
        found = g.release(ids)
        if found != len(ids):
            raise RuntimeError(
                "lane group %s: %d of %d released vehicles not present"
                % (group_id, len(ids) - found, len(ids))
            )
        g.cum_out += found

    def total_vehicles(self, group_id: str) -> float:
        return float(self.groups[group_id].stored())

    def state_counts(self, link_id: int) -> list[float]:
        slots = self.routing.slots[link_id]
        out = [0.0] * len(slots)
        for gid in self.net.link_groups[link_id]:
            for v in self.groups[gid].vehicles():
                out[slots[v.state]] += 1.0
        return out

    def positions(self, g: VehicleStore, now: float) -> list:
        """(vehicle, position_m, speed_kmh) of each vehicle in the store; a
        buffered one waits, stopped, at the upstream end."""
        return self._placed_positions(g, now) + [(v, 0.0, 0.0) for v in g.buffer]

    def find_vehicle(self, vehicle_id: int, now: float = 0.0):
        """(link, group_id, position_m, speed_kmh) of the vehicle, or None."""
        for gid in self.group_ids:
            g = self.groups[gid]
            for v, x, speed in self.positions(g, now):
                if v.id == vehicle_id:
                    return g.link, gid, x, speed
        return None

    def local_cumulative_count(self, link_id: int, offset_m: float) -> float:
        return sum(self.groups[g].cum_out for g in self.net.link_groups[link_id])

    def local_density_per_m(self, link_id: int, offset_m: float) -> float:
        """Every vehicle stored on the link, buffered ones too, over its
        longest lane group."""
        gids = self.net.link_groups[link_id]
        return (sum(self.groups[g].stored() for g in gids)
                / max(self.groups[g].length for g in gids))
