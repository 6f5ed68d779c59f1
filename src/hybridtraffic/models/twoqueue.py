"""Two-queue mesoscopic model: a transit queue imposing the free-flow
travel time, feeding a FIFO waiting queue served by a Poisson process."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from ..packets import FluxPacket, StateIndex, Vehicle, vehicle_packet
from .base import DemandRequest, TrafficModel


@dataclass
class _Queues:
    link: int
    length: float
    n_max: float  # veh
    service_rate: float  # veh/s
    tau: float  # free-flow travel time, s
    transit: deque = field(default_factory=deque)  # (Vehicle, eligible_time)
    waiting: deque = field(default_factory=deque)  # Vehicle
    buffer: deque = field(default_factory=deque)  # Vehicle held at entry
    cum_out: float = 0.0

    def stored(self) -> int:
        # buffered vehicles count against the link's holding capacity
        return len(self.transit) + len(self.waiting) + len(self.buffer)


class TwoQueueModel(TrafficModel):
    kind = "two_queue"
    vehicle_based = True

    def __init__(self, dt: float):
        super().__init__(dt)
        self.groups: dict[str, _Queues] = {}

    def build(self, net, link_ids):
        super().build(net, link_ids)
        for lid in self.links:
            link = net.links[lid]
            for gid in net.link_groups[lid]:
                g = net.lane_groups[gid]
                self.groups[gid] = _Queues(
                    link=lid,
                    length=g.length,
                    n_max=link.params.jam_density_per_lane / 1000.0
                    * g.num_lanes
                    * g.length,
                    service_rate=link.params.capacity_per_lane / 3600.0 * g.num_lanes,
                    tau=g.length / (link.params.speed_limit / 3.6),
                )

    # --- helpers -------------------------------------------------------

    def _promote_transit(self, gq: _Queues, now: float):
        while gq.transit and gq.transit[0][1] <= now + 1e-9:
            v, _ = gq.transit.popleft()
            gq.waiting.append(v)

    def _admit_buffer(self, gq: _Queues, now: float):
        # buffered vehicles already count as stored; admission just starts
        # their transit delay
        while gq.buffer and len(gq.transit) + len(gq.waiting) < gq.n_max - 1e-9:
            v = gq.buffer.popleft()
            gq.transit.append((v, now + gq.tau))

    # --- protocol ------------------------------------------------------

    def compute_demands(self, now, rng) -> list[DemandRequest]:
        reqs: list[DemandRequest] = []
        for gid in self.group_ids:
            gq = self.groups[gid]
            self._promote_transit(gq, now)
            k = int(rng.poisson(gq.service_rate * self.dt))
            if k <= 0 or not gq.waiting:
                continue
            head = list(gq.waiting)[: min(k, len(gq.waiting))]
            by_rc: dict[object, list[Vehicle]] = {}
            for v in head:
                by_rc.setdefault(self.rc_toward(gid, gq.link, v.state), []).append(v)
            reqs += self.requests(gid, by_rc, vehicle_packet)
        return reqs

    def lane_group_supply(self, group_id: str) -> float:
        gq = self.groups[group_id]
        return max(0.0, gq.n_max - gq.stored())

    def remove(self, group_id, rc, packet: FluxPacket):
        gq = self.groups[group_id]
        ids = {v.id for v in packet.all_vehicles()}
        if not ids:
            return
        kept = deque(v for v in gq.waiting if v.id not in ids)
        removed = len(gq.waiting) - len(kept)
        if removed != len(ids):
            raise RuntimeError(
                "lane group %s: %d of %d released vehicles not in waiting queue"
                % (group_id, len(ids) - removed, len(ids))
            )
        gq.waiting = kept
        gq.cum_out += removed

    def receive_fluid(self, group_id, amounts, now):
        raise RuntimeError("two-queue model receives whole vehicles only")

    def receive_vehicles(self, link_id, vehicles, now):
        for v in vehicles:
            # the emptiest lane group serving the vehicle's next link
            gid = min(
                self.groups_toward(link_id, v.state),
                key=lambda g: (self.groups[g].stored(), g),
            )
            gq = self.groups[gid]
            if len(gq.transit) + len(gq.waiting) < gq.n_max - 1e-9:
                gq.transit.append((v, now + gq.tau))
            else:
                gq.buffer.append(v)

    def advance_state(self, now, rng):
        for gid in self.group_ids:
            gq = self.groups[gid]
            self._admit_buffer(gq, now)
            self._promote_transit(gq, now)

    # --- queries -------------------------------------------------------

    def distance_to_last_vehicle(self, group_id: str) -> float:
        gq = self.groups[group_id]
        return max(0.0, gq.length * (gq.n_max - gq.stored()) / gq.n_max)

    def total_vehicles(self, group_id: str) -> float:
        return float(self.groups[group_id].stored())

    def mean_speed_kmh(self, group_id: str) -> float:
        gq = self.groups[group_id]
        n = gq.stored()
        limit = self.speed_limit_eff[gq.link]
        if n == 0:
            return limit
        moving = len(gq.transit)
        return limit * moving / n

    def state_counts(self, link_id: int) -> dict[StateIndex, float]:
        out: dict[StateIndex, float] = {}
        for gid in self.net.link_groups[link_id]:
            gq = self.groups[gid]
            vehs = [v for v, _ in gq.transit]
            vehs += list(gq.waiting) + list(gq.buffer)
            for v in vehs:
                out[v.state] = out.get(v.state, 0.0) + 1.0
        return out

    def set_speed_limit(self, link_id: int, v_kmh: float):
        super().set_speed_limit(link_id, v_kmh)
        for gid in self.net.link_groups[link_id]:
            gq = self.groups[gid]
            gq.tau = gq.length / (v_kmh / 3.6)

    def local_cumulative_count(self, link_id: int, offset_m: float) -> float:
        return sum(self.groups[g].cum_out for g in self.net.link_groups[link_id])

    def local_density_per_m(self, link_id: int, offset_m: float) -> float:
        total = sum(self.groups[g].stored() for g in self.net.link_groups[link_id])
        length = max(self.groups[g].length for g in self.net.link_groups[link_id])
        return total / length

    # probe support
    def find_vehicle(self, vehicle_id: int, now: float = 0.0):
        """Returns (link, group_id, position_m, speed_kmh) or None."""
        for gid in self.group_ids:
            gq = self.groups[gid]
            limit = self.speed_limit_eff[gq.link]
            for v, elig in gq.transit:
                if v.id == vehicle_id:
                    frac = min(1.0, max(0.0, 1.0 - (elig - now) / gq.tau))
                    return gq.link, gid, gq.length * frac, limit
            for v in gq.waiting:
                if v.id == vehicle_id:
                    return gq.link, gid, gq.length, 0.0
            for v in gq.buffer:
                if v.id == vehicle_id:
                    return gq.link, gid, 0.0, 0.0
        return None
