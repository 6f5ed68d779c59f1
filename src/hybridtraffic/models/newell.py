"""Discrete-time Newell car-following model (Newell, TR-B 36(3), 2002), one
single-file vehicle lane per lane group, with stochastic per-step parameter
draws.

Each lane keeps its cars as parallel Python lists, index 0 downstream-most:
the vehicles, their positions, last advances and target road connections,
and the tentative positions of the last demand pass, with a count of the
fresh cars at the tail and of the exit candidates at the head. A step of the
bundled corridors has about three busy lanes of 25 cars, where a numpy call
costs more than the Python loop, so only the demand pass goes through numpy,
once per step over every busy lane together."""

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
class _Lane(VehicleStore):
    num_lanes: int
    jam_spacing: float  # m per vehicle at jam, single file
    means: tuple[float, float, float] = (0.0, 0.0, 0.0)  # dv, dw, df per step
    # one entry per placed car, index 0 = downstream-most
    veh: list[Vehicle] = field(default_factory=list)
    x: list[float] = field(default_factory=list)  # m from the upstream end
    adv: list[float] = field(default_factory=list)  # last advance, m
    # road connection toward the car's next link (None: exits the network),
    # resolved once when the car is placed in its lane
    rc: list[int | None] = field(default_factory=list)
    tent: list[float] = field(default_factory=list)  # tentative position
    # the last n_fresh cars entered this step and move within the same
    # update; the first n_exit reached the lane end in the demand pass
    n_fresh: int = 0
    n_exit: int = 0

    def upstream_gap(self) -> float:
        return self.x[-1] if self.x else self.length

    def placed(self):
        return self.veh[:]

    def n_placed(self) -> int:
        return len(self.veh)

    def has_room(self) -> bool:
        return self.upstream_gap() >= self.jam_spacing - 1e-9

    def release(self, ids):
        n = len(self.veh)
        gone = [i for i, v in enumerate(self.veh) if v.id in ids]
        for i in reversed(gone):
            del self.veh[i], self.x[i], self.adv[i], self.rc[i], self.tent[i]
        self.n_exit -= sum(i < self.n_exit for i in gone)
        self.n_fresh -= sum(i >= n - self.n_fresh for i in gone)
        return len(gone)


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
        out = np.repeat(np.array([lane.means for lane in lanes]),
                        [len(lane.x) for lane in lanes], axis=0)
        sigma = (self.sigma_v, self.sigma_w, self.sigma_f)
        noisy = [j for j in range(3) if sigma[j] > 0]
        if not noisy:
            return out
        # (cars, noisy terms), so the slots run car by car
        mu = out[:, noisy]
        s = [sigma[j] for j in noisy]
        z = rng.normal(0.0, 1.0, mu.size)
        x = mu + np.array(s) * z.reshape(mu.shape)
        if (x < 0).any():
            x, mu, z = x.ravel().tolist(), mu.ravel().tolist(), z.tolist()
            s = s * len(out)
            slot = pos = next(i for i, v in enumerate(x) if v < 0)
            while slot < len(x):
                if pos == len(z):
                    z += rng.normal(0.0, 1.0, len(x) - slot).tolist()
                v = mu[slot] + s[slot] * z[pos]
                pos += 1
                if v >= 0:
                    x[slot] = v
                    slot += 1
            x = np.reshape(x, (len(out), len(noisy)))
        out[:, noisy] = x
        return out

    # --- protocol ------------------------------------------------------

    def compute_demands(self, now, rng) -> list[DemandRequest]:
        busy = [(gid, self.groups[gid]) for gid in self.group_ids if self.groups[gid].x]
        if not busy:
            return []
        dv, dw, df = self._draws([lane for _, lane in busy], rng).T
        # the gap ahead: to the next car, or for a lane's leader to the end
        # of its lane plus the downstream tail's distance
        xs, leads, lead_h = [], [], []
        for _, lane in busy:
            rc = lane.rc[0]
            eta = BIG_HEADWAY if rc is None else self.headway_query(rc)
            leads.append(len(xs))
            lead_h.append((lane.length - lane.x[0]) + eta)
            xs += lane.x
        x = np.array(xs)
        h = np.empty_like(x)
        h[1:] = x[:-1] - x[1:]
        h[leads] = lead_h
        # max(0, min(dv, h - dw, h * df)) per car, the same float operations
        tentative = (x + np.maximum(0.0, np.minimum(np.minimum(dv, h - dw), h * df))).tolist()
        reqs: list[DemandRequest] = []
        for (gid, lane), k in zip(busy, leads):
            t = lane.tent = tentative[k:k + len(lane.x)]
            end = lane.length - 1e-9
            # exit candidates are a prefix of the FIFO order
            by_rc: dict[object, list[Vehicle]] = {}
            i = 0
            while i < len(t) and t[i] >= end:
                # the overshoot it carries if let through, for the next link to
                # grant (keeps mean speed exact); set before a receiver places it
                over = t[i] - lane.length
                v = lane.veh[i]
                v.ext = over if over > 0.0 else 0.0
                by_rc.setdefault(lane.rc[i], []).append(v)
                i += 1
            lane.n_exit = i
            if by_rc:
                reqs += self.requests(gid, by_rc)
        return reqs

    def lane_group_supply(self, group_id: str) -> float:
        # a buffered vehicle takes the room of one placed
        lane = self.groups[group_id]
        n = math.floor(lane.upstream_gap() / lane.jam_spacing + 1e-9)
        return float(max(0, n - len(lane.buffer)))

    def _pick(self, gids):
        # the lane group with the most room
        return max(gids, key=lambda g: (self.groups[g].upstream_gap(), g))

    def _place(self, gid, lane, v, now, fresh):
        lane.veh.append(v)
        lane.x.append(0.0)
        lane.adv.append(0.0)
        lane.rc.append(self.rc_toward(gid, lane.link, v.state))
        lane.tent.append(0.0)
        if fresh:
            lane.n_fresh += 1

    def advance_state(self, now, rng):
        # The comparisons keep the rule of Python's min and max: the first
        # argument unless a later one is strictly smaller (larger)
        for gid in self.group_ids:
            lane = self.groups[gid]
            xs, adv, tent = lane.x, lane.adv, lane.tent
            n_exit, length = lane.n_exit, lane.length
            fresh_from = len(xs) - lane.n_fresh
            prev = math.inf  # nothing ahead holds the leader
            for i in range(len(xs)):
                x = xs[i]
                if i < fresh_from:
                    new = tent[i]
                else:
                    # entered at the upstream boundary during this step: grant
                    # the overshoot carried from the previous link (or half a
                    # mean step when unknown, e.g. arriving from a queue or a
                    # source), constrained against the already-moved leader
                    dv_mean, dw_mean, df_mean = lane.means
                    v = lane.veh[i]
                    a = v.ext
                    if not isinstance(a, float):
                        a = 0.5 * dv_mean
                    v.ext = None
                    h = prev - x if i else BIG_HEADWAY
                    # max(0, min(a, h - dw, h * df)), short of the lane end
                    if h - dw_mean < a:
                        a = h - dw_mean
                    if h * df_mean < a:
                        a = h * df_mean
                    if not a > 0.0:
                        a = 0.0
                    new = x + a
                    if length - 2 * GAP_EPS < new:
                        new = length - 2 * GAP_EPS
                    tent[i] = new
                if i < n_exit:
                    new = length  # rejected at the boundary, fresh or not: park
                if prev - GAP_EPS < new:
                    new = prev - GAP_EPS
                if x > new:
                    new = x  # motion is monotone
                adv[i] = new - x
                xs[i] = prev = new
            lane.n_fresh = lane.n_exit = 0
        self._admit(now)

    # --- queries -------------------------------------------------------

    def distance_to_last_vehicle(self, group_id: str) -> float:
        return self.groups[group_id].upstream_gap()

    def mean_speed_kmh(self, group_id: str) -> float:
        lane = self.groups[group_id]
        if not lane.adv:
            return self.speed_limit_eff[lane.link]
        return sum(lane.adv) / len(lane.adv) / self.dt * 3.6

    def _placed_positions(self, lane, now):
        return [(v, x, a / self.dt * 3.6) for v, x, a in zip(lane.veh, lane.x, lane.adv)]

    def vehicle_positions(self, link_id: int):
        """(vehicle, group_id, position_m, speed_kmh) for trajectory output."""
        return [(v, gid, x, speed) for gid in self.net.link_groups[link_id]
                for v, x, speed in self.positions(self.groups[gid], 0.0)]

    def audit_failures(self) -> list[str]:
        out = []
        for gid in self.group_ids:
            lane = self.groups[gid]
            sizes = [len(lane.veh), len(lane.x), len(lane.adv), len(lane.rc), len(lane.tent)]
            n = sizes[0]
            if sizes.count(n) != len(sizes):
                out.append("lane group %s: car lists of lengths %s" % (gid, sizes))
                continue
            if lane.n_fresh > n:
                out.append("lane group %s: %d fresh cars of %d" % (gid, lane.n_fresh, n))
            ahead = lane.length
            for v, x in zip(lane.veh, lane.x):
                if not 0.0 <= x <= lane.length:
                    out.append("lane group %s: vehicle %s at %r m, outside [0, %r]"
                               % (gid, v.id, x, lane.length))
                elif x > ahead:
                    out.append("lane group %s: vehicle %s at %r m, ahead of the car in front at %r"
                               % (gid, v.id, x, ahead))
                ahead = x
        return out
