"""Discrete-time Newell car-following model, one single-file vehicle lane
per lane group, with stochastic per-step parameter draws."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..demand import ConfigurationError
from ..packets import Vehicle
from .base import DemandRequest, VehicleModel, VehicleStore

BIG_HEADWAY = 1e9
GAP_EPS = 1e-3  # m, strict no-collision margin


@dataclass
class _Car:
    vehicle: Vehicle
    x: float  # m from the link's upstream end
    # road connection toward the vehicle's next link (None: exits the
    # network), resolved once when the car is placed in its lane
    target_rc: int | None
    tentative: float = 0.0
    exiting: bool = False
    last_advance: float = 0.0
    fresh: bool = False  # entered this step, moves within the same update


@dataclass
class _Lane(VehicleStore):
    num_lanes: int
    jam_spacing: float  # m per vehicle at jam, single file
    means: tuple[float, float, float] = (0.0, 0.0, 0.0)  # dv, dw, df per step
    cars: list[_Car] = field(default_factory=list)  # index 0 = downstream-most
    gap0: float = math.inf  # upstream gap at the last advance

    def upstream_gap(self) -> float:
        return self.length if not self.cars else self.cars[-1].x

    def placed(self):
        return [c.vehicle for c in self.cars]

    def n_placed(self) -> int:
        return len(self.cars)

    def has_room(self) -> bool:
        return self.upstream_gap() >= self.jam_spacing - 1e-9

    def release(self, ids):
        kept = []
        for c in self.cars:
            if c.vehicle.id in ids:
                # carry the crossing overshoot so the next link can grant the
                # distance already earned this step (keeps mean speed exact)
                c.vehicle.ext = max(0.0, c.tentative - self.length)
            else:
                kept.append(c)
        found = len(self.cars) - len(kept)
        self.cars = kept
        return found


class NewellModel(VehicleModel):
    kind = "newell"

    def __init__(
        self,
        dt: float,
        sigma_v: float = 0.0,
        sigma_w: float = 0.0,
        sigma_f: float = 0.0,
    ):
        super().__init__(dt)
        if not all(0 <= x < math.inf for x in (sigma_v, sigma_w, sigma_f)):
            raise ConfigurationError("standard deviations must be >= 0 and finite")
        self.sigma_v = sigma_v  # m per step
        self.sigma_w = sigma_w  # m per step
        self.sigma_f = sigma_f  # veh per step
        self.headway_query = None  # set by the engine: rc id -> eta meters

    def build(self, net, link_ids):
        super().build(net, link_ids)
        for lid in self.links:
            link = net.links[lid]
            for gid in net.link_groups[lid]:
                g = net.lane_groups[gid]
                self.groups[gid] = _Lane(
                    link=lid,
                    length=g.length,
                    num_lanes=g.num_lanes,
                    jam_spacing=1000.0
                    / (link.params.jam_density_per_lane * g.num_lanes),
                )
            self._set_means(lid)

    def set_speed_limit(self, link_id, v_kmh):
        super().set_speed_limit(link_id, v_kmh)
        self._set_means(link_id)

    def _set_means(self, link_id: int):
        """Mean per-step free-flow advance, wave gap and capacity share of
        each lane group of the link, at its current speed limit."""
        link = self.net.links[link_id]
        v_ms = self.speed_limit_eff[link_id] / 3.6
        w_ms = link.params.congestion_wave_speed / 3.6
        for gid in self.net.link_groups[link_id]:
            lane = self.groups[gid]
            f_vps = link.params.capacity_per_lane / 3600.0 * lane.num_lanes
            lane.means = (v_ms * self.dt, w_ms * self.dt, f_vps * self.dt)

    # --- per-step parameter draws --------------------------------------

    def _draws(self, lanes: list[_Lane], rng) -> np.ndarray:
        """Each car's (dv, dw, df) for one step, cars in lane order and FIFO
        within a lane, drawn as mean + sigma * z truncated at zero.

        One normal draw covers the step: its slots go car by car, dv, dw, df
        within a car, skipping a term whose sigma is zero. From the first
        negative slot on, each slot takes the stream's next values until one
        is non-negative, and when they run out the draw is topped up by
        exactly the slots still unfilled. The stream is thus read as one
        scalar `rng.normal(mean, sigma)` per term, redrawn while negative,
        would read it, and `mean + sigma * z` is the value that call gives."""
        out = np.repeat([lane.means for lane in lanes],
                        [len(lane.cars) for lane in lanes], axis=0)
        sigma = (self.sigma_v, self.sigma_w, self.sigma_f)
        noisy = [j for j in range(3) if sigma[j] > 0]
        if not noisy:
            return out
        mu = out[:, noisy].ravel()
        s = np.tile([sigma[j] for j in noisy], len(out))
        z = rng.normal(0.0, 1.0, mu.size)
        x = mu + s * z
        if (x < 0).any():
            x, mu, s, z = x.tolist(), mu.tolist(), s.tolist(), z.tolist()
            slot = pos = next(i for i, v in enumerate(x) if v < 0)
            while slot < len(x):
                if pos == len(z):
                    z += rng.normal(0.0, 1.0, len(x) - slot).tolist()
                v = mu[slot] + s[slot] * z[pos]
                pos += 1
                if v >= 0:
                    x[slot] = v
                    slot += 1
        out[:, noisy] = np.reshape(x, (len(out), len(noisy)))
        return out

    # --- protocol ------------------------------------------------------

    def compute_demands(self, now, rng) -> list[DemandRequest]:
        busy = [(gid, self.groups[gid]) for gid in self.group_ids if self.groups[gid].cars]
        if not busy:
            return []
        lanes = [lane for _, lane in busy]
        dv, dw, df = self._draws(lanes, rng).T
        cars = [car for lane in lanes for car in lane.cars]
        x = np.array([car.x for car in cars])
        # the gap ahead: to the next car, or for a lane's leader to the end
        # of its lane plus the downstream tail's distance
        h = np.empty_like(x)
        h[1:] = x[:-1] - x[1:]
        end = np.empty_like(x)
        k = 0
        for lane in lanes:
            lead = lane.cars[0]
            if lead.target_rc is None:
                eta = BIG_HEADWAY
            else:
                eta = self.headway_query(lead.target_rc)
            h[k] = (lane.length - lead.x) + eta
            end[k:k + len(lane.cars)] = lane.length - 1e-9
            k += len(lane.cars)
        # max(0, min(dv, h - dw, h * df)) per car, the same float operations
        tentative = x + np.maximum(0.0, np.minimum(np.minimum(dv, h - dw), h * df))
        for car, t, e in zip(cars, tentative.tolist(), (tentative >= end).tolist()):
            car.tentative = t
            car.exiting = e
        reqs: list[DemandRequest] = []
        for gid, lane in busy:
            # exit candidates are a prefix of the FIFO order
            by_rc: dict[object, list[Vehicle]] = {}
            for car in lane.cars:
                if not car.exiting:
                    break
                by_rc.setdefault(car.target_rc, []).append(car.vehicle)
            if by_rc:
                reqs += self.vehicle_requests(gid, by_rc)
        return reqs

    def lane_group_supply(self, group_id: str) -> float:
        # a car placed since the last advance lowers the gap; one released
        # does not raise it before the next, whatever the junction order
        lane = self.groups[group_id]
        gap = lane.upstream_gap()
        if lane.gap0 < gap:
            gap = lane.gap0
        n = math.floor(gap / lane.jam_spacing + 1e-9)
        return float(max(0, n - len(lane.buffer)))

    def _pick(self, gids):
        # the lane group with the most room
        return max(gids, key=lambda g: (self.groups[g].upstream_gap(), g))

    def _place(self, gid, lane, v, now, fresh):
        lane.cars.append(_Car(v, 0.0, self.rc_toward(gid, lane.link, v.state), fresh=fresh))

    def advance_state(self, now, rng):
        for gid in self.group_ids:
            lane = self.groups[gid]
            dv_mean, dw_mean, df_mean = lane.means
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
        self._admit(now)
        for gid in self.group_ids:
            lane = self.groups[gid]
            lane.gap0 = lane.upstream_gap()

    # --- queries -------------------------------------------------------

    def distance_to_last_vehicle(self, group_id: str) -> float:
        return self.groups[group_id].upstream_gap()

    def mean_speed_kmh(self, group_id: str) -> float:
        lane = self.groups[group_id]
        if not lane.cars:
            return self.speed_limit_eff[lane.link]
        mean_adv = sum(c.last_advance for c in lane.cars) / len(lane.cars)
        return mean_adv / self.dt * 3.6

    def _placed_positions(self, lane, now):
        return [(c.vehicle, c.x, c.last_advance / self.dt * 3.6) for c in lane.cars]

    def vehicle_positions(self, link_id: int):
        """(vehicle, group_id, position_m, speed_kmh) for trajectory output."""
        return [(v, gid, x, speed) for gid in self.net.link_groups[link_id]
                for v, x, speed in self.positions(self.groups[gid], 0.0)]
