"""Discrete-time Newell car-following model, one single-file vehicle lane
per lane group, with stochastic per-step parameter draws."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..demand import ConfigurationError
from ..packets import FluxPacket, StateIndex, Vehicle, vehicle_packet
from .base import DemandRequest, TrafficModel

BIG_HEADWAY = 1e9
GAP_EPS = 1e-3  # m, strict no-collision margin


@dataclass
class _Car:
    vehicle: Vehicle
    x: float  # m from the link's upstream end
    target_rc: int | None = None
    tentative: float = 0.0
    exiting: bool = False
    last_advance: float = 0.0
    fresh: bool = False  # entered this step, moves within the same update


@dataclass
class _Lane:
    link: int
    length: float
    num_lanes: int
    jam_spacing: float  # m per vehicle at jam, single file
    cars: list[_Car] = field(default_factory=list)  # index 0 = downstream-most
    buffer: list[Vehicle] = field(default_factory=list)
    cum_out: float = 0.0

    def upstream_gap(self) -> float:
        return self.length if not self.cars else self.cars[-1].x


class NewellModel(TrafficModel):
    kind = "newell"
    vehicle_based = True

    def __init__(
        self,
        dt: float,
        sigma_v: float = 0.0,
        sigma_w: float = 0.0,
        sigma_f: float = 0.0,
    ):
        super().__init__(dt)
        if min(sigma_v, sigma_w, sigma_f) < 0:
            raise ConfigurationError("standard deviations must be >= 0")
        self.sigma_v = sigma_v  # m per step
        self.sigma_w = sigma_w  # m per step
        self.sigma_f = sigma_f  # veh per step
        self.lanes: dict[str, _Lane] = {}
        self.headway_query = None  # set by the engine: rc id -> eta meters

    def build(self, net, link_ids):
        super().build(net, link_ids)
        for lid in self.links:
            link = net.links[lid]
            for gid in net.link_groups[lid]:
                g = net.lane_groups[gid]
                self.lanes[gid] = _Lane(
                    link=lid,
                    length=g.length,
                    num_lanes=g.num_lanes,
                    jam_spacing=1000.0
                    / (link.params.jam_density_per_lane * g.num_lanes),
                )

    # --- per-step parameter draws --------------------------------------

    def _draw(self, mean: float, sigma: float, rng) -> float:
        if sigma <= 0:
            return mean
        x = rng.normal(mean, sigma)
        while x < 0:  # negative advances are meaningless; redraw
            x = rng.normal(mean, sigma)
        return float(x)

    def _means(self, lane: _Lane) -> tuple[float, float, float]:
        link = self.net.links[lane.link]
        v_ms = self.speed_limit_eff[lane.link] / 3.6
        w_ms = link.params.congestion_wave_speed / 3.6
        f_vps = link.params.capacity_per_lane / 3600.0 * lane.num_lanes
        return v_ms * self.dt, w_ms * self.dt, f_vps * self.dt

    # --- protocol ------------------------------------------------------

    def compute_demands(self, now, rng) -> list[DemandRequest]:
        reqs: list[DemandRequest] = []
        for gid in self.group_ids:
            lane = self.lanes[gid]
            if not lane.cars:
                continue
            dv_mean, dw_mean, df_mean = self._means(lane)
            for i, car in enumerate(lane.cars):
                dv = self._draw(dv_mean, self.sigma_v, rng)
                dw = self._draw(dw_mean, self.sigma_w, rng)
                df = self._draw(df_mean, self.sigma_f, rng)
                if i == 0:
                    car.target_rc = self.rc_toward(gid, lane.link, car.vehicle.state)
                    if car.target_rc is None:
                        eta = BIG_HEADWAY
                    else:
                        eta = self.headway_query(car.target_rc)
                    h = (lane.length - car.x) + eta
                else:
                    h = lane.cars[i - 1].x - car.x
                adv = max(0.0, min(dv, h - dw, h * df))
                car.tentative = car.x + adv
                car.exiting = car.tentative >= lane.length - 1e-9
                if car.exiting and car.target_rc is None and i > 0:
                    car.target_rc = self.rc_toward(gid, lane.link, car.vehicle.state)
            # exit candidates are a prefix of the FIFO order
            by_rc: dict[object, list[Vehicle]] = {}
            for car in lane.cars:
                if not car.exiting:
                    break
                by_rc.setdefault(car.target_rc, []).append(car.vehicle)
            reqs += self.requests(gid, by_rc, vehicle_packet)
        return reqs

    def lane_group_supply(self, group_id: str) -> float:
        lane = self.lanes[group_id]
        n = math.floor(lane.upstream_gap() / lane.jam_spacing + 1e-9)
        return float(max(0, n - len(lane.buffer)))

    def remove(self, group_id, rc, packet: FluxPacket):
        lane = self.lanes[group_id]
        ids = {v.id for v in packet.all_vehicles()}
        if not ids:
            return
        kept = []
        for c in lane.cars:
            if c.vehicle.id in ids:
                # carry the crossing overshoot so the next link can grant the
                # distance already earned this step (keeps mean speed exact)
                c.vehicle.ext = max(0.0, c.tentative - lane.length)
            else:
                kept.append(c)
        if len(lane.cars) - len(kept) != len(ids):
            raise RuntimeError(
                "lane group %s: released vehicles not present" % group_id
            )
        lane.cars = kept
        lane.cum_out += len(ids)

    def receive_fluid(self, group_id, amounts, now):
        raise RuntimeError("car-following model receives whole vehicles only")

    def receive_vehicles(self, link_id, vehicles, now):
        for v in vehicles:
            # the lane group with the most room serving the next link
            gid = max(
                self.groups_toward(link_id, v.state),
                key=lambda g: (self.lanes[g].upstream_gap(), g),
            )
            lane = self.lanes[gid]
            if not lane.buffer and lane.upstream_gap() >= lane.jam_spacing - 1e-9:
                lane.cars.append(_Car(vehicle=v, x=0.0, fresh=True))
            else:
                lane.buffer.append(v)

    def advance_state(self, now, rng):
        for gid in self.group_ids:
            lane = self.lanes[gid]
            dv_mean, dw_mean, df_mean = self._means(lane)
            prev_x = None
            for car in lane.cars:
                if car.fresh:
                    # entered at the upstream boundary during this step: grant
                    # the overshoot carried from the previous link (or half a
                    # mean step when unknown, e.g. arriving from a queue or a
                    # source), constrained against the already-moved leader
                    carried = car.vehicle.ext
                    if not isinstance(carried, float):
                        carried = 0.5 * dv_mean
                    car.vehicle.ext = None
                    h = (prev_x - car.x) if prev_x is not None else BIG_HEADWAY
                    adv = max(0.0, min(carried, h - dw_mean, h * df_mean))
                    car.tentative = min(car.x + adv, lane.length - 2 * GAP_EPS)
                    car.fresh = False
                new_x = car.tentative
                if car.exiting:
                    new_x = lane.length  # rejected at the boundary: park
                if prev_x is not None:
                    new_x = min(new_x, prev_x - GAP_EPS)
                new_x = max(new_x, car.x)  # motion is monotone
                car.last_advance = new_x - car.x
                car.x = new_x
                car.exiting = False
                prev_x = new_x
            # admit buffered vehicles while the upstream gap allows
            while lane.buffer and lane.upstream_gap() >= lane.jam_spacing - 1e-9:
                v = lane.buffer.pop(0)
                lane.cars.append(_Car(vehicle=v, x=0.0))

    # --- queries -------------------------------------------------------

    def distance_to_last_vehicle(self, group_id: str) -> float:
        return self.lanes[group_id].upstream_gap()

    def total_vehicles(self, group_id: str) -> float:
        lane = self.lanes[group_id]
        return float(len(lane.cars) + len(lane.buffer))

    def mean_speed_kmh(self, group_id: str) -> float:
        lane = self.lanes[group_id]
        if not lane.cars:
            return self.speed_limit_eff[lane.link]
        mean_adv = sum(c.last_advance for c in lane.cars) / len(lane.cars)
        return mean_adv / self.dt * 3.6

    def state_counts(self, link_id: int) -> dict[StateIndex, float]:
        out: dict[StateIndex, float] = {}
        for gid in self.net.link_groups[link_id]:
            lane = self.lanes[gid]
            for c in lane.cars:
                out[c.vehicle.state] = out.get(c.vehicle.state, 0.0) + 1.0
            for v in lane.buffer:
                out[v.state] = out.get(v.state, 0.0) + 1.0
        return out

    def vehicle_positions(self, link_id: int):
        """(vehicle, group_id, position_m, speed_kmh) for trajectory output."""
        rows = []
        for gid in self.net.link_groups[link_id]:
            lane = self.lanes[gid]
            for c in lane.cars:
                rows.append((c.vehicle, gid, c.x, c.last_advance / self.dt * 3.6))
            for v in lane.buffer:
                rows.append((v, gid, 0.0, 0.0))
        return rows

    def find_vehicle(self, vehicle_id: int, now: float = 0.0):
        for gid in self.group_ids:
            lane = self.lanes[gid]
            for c in lane.cars:
                if c.vehicle.id == vehicle_id:
                    return lane.link, gid, c.x, c.last_advance / self.dt * 3.6
            for v in lane.buffer:
                if v.id == vehicle_id:
                    return lane.link, gid, 0.0, 0.0
        return None

    def local_cumulative_count(self, link_id: int, offset_m: float) -> float:
        return sum(self.lanes[g].cum_out for g in self.net.link_groups[link_id])

    def local_density_per_m(self, link_id: int, offset_m: float) -> float:
        total = sum(len(self.lanes[g].cars) for g in self.net.link_groups[link_id])
        length = max(self.lanes[g].length for g in self.net.link_groups[link_id])
        return total / length
