"""Two-queue mesoscopic model: a transit queue imposing the free-flow
travel time, feeding a FIFO waiting queue served by a Poisson process."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import islice

from ..packets import Vehicle
from .base import DemandRequest, VehicleModel, VehicleStore


@dataclass
class _Queues(VehicleStore):
    n_max: float  # veh
    service_rate: float  # veh/s
    tau: float  # free-flow travel time, s
    transit: deque = field(default_factory=deque)  # (Vehicle, eligible_time)
    waiting: deque = field(default_factory=deque)  # Vehicle

    def placed(self):
        return [v for v, _ in self.transit] + list(self.waiting)

    def n_placed(self) -> int:
        return len(self.transit) + len(self.waiting)

    def has_room(self) -> bool:
        return self.n_placed() < self.n_max - 1e-9

    def release(self, ids):
        # the cars sent are among the first waiting: pop until all are found,
        # then put back in order those passed over
        kept, found = [], 0
        while self.waiting and found < len(ids):
            v = self.waiting.popleft()
            if v.id in ids:
                found += 1
            else:
                kept.append(v)
        self.waiting.extendleft(reversed(kept))
        return found


class TwoQueueModel(VehicleModel):
    kind = "two_queue"

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

    def _pick(self, gids):
        # the emptiest lane group
        return min(gids, key=lambda g: (self.groups[g].stored(), g))

    def _place(self, gid, gq, v, now, fresh):
        # a queue keeps no position, so an exit overshoot carried from a
        # car-following link does not survive it
        v.ext = None
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
            by_rc: dict[object, list[Vehicle]] = {}
            for v in islice(gq.waiting, k):
                by_rc.setdefault(self.rc_toward(gid, gq.link, v.state), []).append(v)
            reqs += self.requests(gid, by_rc)
        return reqs

    def lane_group_supply(self, group_id: str) -> float:
        # buffered vehicles count against the link's holding capacity
        gq = self.groups[group_id]
        return max(0.0, gq.n_max - gq.stored())

    def advance_state(self, now, rng):
        self._admit(now)
        for gid in self.group_ids:
            self._promote_transit(self.groups[gid], now)

    # --- queries -------------------------------------------------------

    def distance_to_last_vehicle(self, group_id: str) -> float:
        gq = self.groups[group_id]
        return max(0.0, gq.length * (gq.n_max - gq.stored()) / gq.n_max)

    def mean_speed_kmh(self, group_id: str) -> float:
        gq = self.groups[group_id]
        n = gq.stored()
        limit = self.speed_limit_eff[gq.link]
        if n == 0:
            return limit
        moving = len(gq.transit)
        return limit * moving / n

    def set_speed_limit(self, link_id: int, v_kmh: float):
        super().set_speed_limit(link_id, v_kmh)
        for gid in self.net.link_groups[link_id]:
            gq = self.groups[gid]
            gq.tau = gq.length / (v_kmh / 3.6)

    def _placed_positions(self, gq, now):
        limit = self.speed_limit_eff[gq.link]
        return [
            (v, gq.length * min(1.0, max(0.0, 1.0 - (elig - now) / gq.tau)), limit)
            for v, elig in gq.transit
        ] + [(v, gq.length, 0.0) for v in gq.waiting]
