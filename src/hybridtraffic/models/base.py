"""Behavioral contract implemented by every traffic model."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from ..demand import RoutingContext, RoutingError
from ..network import Network
from ..packets import FluxPacket, StateIndex


@dataclass
class DemandRequest:
    """One release request: lane group g wants to send `packet` along road
    connection `rc` (rc is None when the lane group exits the network)."""

    group_id: str
    rc: int | None
    packet: FluxPacket


class TrafficModel(ABC):
    """One model instance manages the state of a set of links."""

    kind: str = "abstract"
    vehicle_based: bool = False

    def __init__(self, dt: float):
        if dt <= 0:
            raise ValueError("model time step must be positive")
        self.dt = dt
        self.net: Network | None = None
        self.routing: RoutingContext | None = None
        self.links: list[int] = []
        self.group_ids: list[str] = []
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
    def requests(group_id: str, by_rc: dict, packet) -> list[DemandRequest]:
        """One request per road connection of `by_rc`, carrying `packet` of
        its contents: rcs ascending and the exit (None) last, the order in
        which the engine books the exits."""
        return [
            DemandRequest(group_id, rc, packet(by_rc[rc]))
            for rc in sorted(by_rc, key=lambda x: (x is None, x or 0))
        ]

    # --- protocol surface (Eqs. for |p|, send) --------------------------

    def get_packet_size(self, packet: FluxPacket, rc: int | None) -> float:
        """The receiving model's norm for a packet; default is the vehicle
        total, which suits all first-order models."""
        return packet.total()

    @abstractmethod
    def lane_group_supply(self, group_id: str) -> float:
        """Vehicles the lane group can accept this step (>= 0)."""

    @abstractmethod
    def compute_demands(self, now: float, rng: np.random.Generator) -> list[DemandRequest]:
        """Per (lane group, road connection) release requests for this step.
        May mutate internal working state (e.g. lateral movements)."""

    @abstractmethod
    def remove(self, group_id: str, rc: int | None, packet: FluxPacket):
        """Take the given contents out of the lane group (the accepted part
        of a previously offered demand)."""

    @abstractmethod
    def receive_fluid(self, group_id: str, amounts: dict[StateIndex, float], now: float):
        """Insert fluid content at the upstream end of a lane group."""

    @abstractmethod
    def receive_vehicles(self, link_id: int, vehicles: list, now: float):
        """Insert whole vehicles entering a link; the model places each into
        its target lane group (or an entry buffer when full)."""

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
    def state_counts(self, link_id: int) -> dict[StateIndex, float]:
        """Per-state vehicle counts over the whole link (for conservation
        audits and outputs)."""

    # --- optional hooks ------------------------------------------------

    def set_speed_limit(self, link_id: int, v_kmh: float):
        """Variable-speed-limit actuation; models that derive quantities from
        the limit extend this."""
        self.speed_limit_eff[link_id] = v_kmh

    def local_cumulative_count(self, link_id: int, offset_m: float) -> float:
        """Cumulative vehicle crossings at the internal boundary nearest to
        `offset_m` from the link's upstream end."""
        raise NotImplementedError

    def local_density_per_m(self, link_id: int, offset_m: float) -> float:
        raise NotImplementedError
