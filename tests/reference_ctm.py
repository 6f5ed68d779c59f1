"""The dict-of-dicts cell-transmission model, kept as the oracle for the
array CTM in `hybridtraffic.models.ctm`.

Each lane group is a chain of cells, each cell a dict of per-state
occupancies, and every step is written plainly: the lateral lane-change pass
cell by cell, demands from the last cell state by state, the internal fluxes
cell by cell, with one lane plan per (link, state) resolved the first time
the state is seen. Its requests carry, and its `remove` and `receive_fluid`
take, plain state -> amount dicts, where the array model takes amounts over
the link's state table. The array model must give the same demands, supplies
and occupancies, bit for bit while every cell holds at most two states
(`tests/test_ctm.py`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

from hybridtraffic.demand import ConfigurationError
from hybridtraffic.models.base import DemandRequest, TrafficModel
from hybridtraffic.packets import StateIndex
from reference_routing import state_sort_key

NEG_TOL = -1e-9


@dataclass
class _Cells:
    """Cell chain of one lane group (index 0 = upstream-most)."""

    link: int
    count: int  # number of cells
    length: float  # cell length, m
    n_max: float  # veh per cell
    f_cap: float  # veh per step per cell
    occ: list[dict[StateIndex, float]] = field(default_factory=list)
    inflow: dict[StateIndex, float] = field(default_factory=dict)
    received: float = 0.0  # fluid received since the last advance, summed per call
    outflow: dict[StateIndex, float] = field(default_factory=dict)
    pre: list[dict[StateIndex, float]] = field(default_factory=list)
    out_last: list[float] = field(default_factory=list)  # per-cell outflux, veh/step
    cum_internal: list[float] = field(default_factory=list)  # C-1 boundaries

    def cell_total(self, i: int) -> float:
        return sum(self.occ[i].values())

    def total(self) -> float:
        return sum(self.cell_total(i) for i in range(self.count)) + sum(
            self.inflow.values()
        )


class _LanePlan(NamedTuple):
    """Where one state goes on one link, per lane group inner to outer: the
    road connection it leaves by (None when it exits the network there), or
    the lateral move it must make first (+1 outward, -1 inward, 0 none)."""

    rc: tuple
    move: tuple


class ReferenceCtmModel(TrafficModel):
    kind = "ctm"
    vehicle_based = False

    def __init__(self, dt: float, max_cell_length: float, lc_supply_factor: float = 1.0):
        super().__init__(dt)
        if max_cell_length <= 0:
            raise ConfigurationError("max_cell_length must be positive")
        if not (0.0 <= lc_supply_factor <= 1.0):
            raise ConfigurationError("lane-change supply factor must be in [0,1]")
        self.max_cell_length = max_cell_length
        self.xi = lc_supply_factor
        self.groups: dict[str, _Cells] = {}
        self.link_v: dict[int, float] = {}  # normalized free-flow speed per step
        self.link_w: dict[int, float] = {}  # normalized congestion speed per step
        self.link_cell_len: dict[int, float] = {}
        self._plans: dict[int, dict[StateIndex, _LanePlan]] = {}

    # --- construction --------------------------------------------------

    def build(self, net, link_ids):
        super().build(net, link_ids)
        for lid in self.links:
            link = net.links[lid]
            n_cells = max(1, math.ceil(link.length / self.max_cell_length))
            cell_len = link.length / n_cells
            self.link_cell_len[lid] = cell_len
            self._set_normalized_speeds(lid)
            self._plans[lid] = {}
            for gid in net.link_groups[lid]:
                g = net.lane_groups[gid]
                gc = max(1, round(g.length / cell_len))
                self.groups[gid] = _Cells(
                    link=lid,
                    count=gc,
                    length=cell_len,
                    n_max=link.params.jam_density_per_lane / 1000.0
                    * g.num_lanes
                    * cell_len,
                    f_cap=link.params.capacity_per_lane / 3600.0
                    * g.num_lanes
                    * self.dt,
                    occ=[{} for _ in range(gc)],
                    out_last=[0.0] * gc,
                    cum_internal=[0.0] * max(0, gc - 1),
                )

    def _set_normalized_speeds(self, lid: int):
        link = self.net.links[lid]
        cell_len = self.link_cell_len[lid]
        v_ms = self.speed_limit_eff[lid] / 3.6
        w_ms = link.params.congestion_wave_speed / 3.6
        v = v_ms * self.dt / cell_len
        if v > 1.0 + 1e-9:
            raise ConfigurationError(
                "link %s: CFL violated (v*dt=%.1f m > cell %.1f m); reduce dt or "
                "increase max_cell_length" % (lid, v_ms * self.dt, cell_len)
            )
        self.link_v[lid] = min(v, 1.0)
        self.link_w[lid] = min(w_ms * self.dt / cell_len, 1.0)

    # --- lane plans -----------------------------------------------------

    def _plan(self, lid: int, s: StateIndex) -> _LanePlan:
        """The state's lane plan on the link, resolved on first use; it
        depends only on the state's next link, so it is kept."""
        plan = self._plans[lid].get(s)
        if plan is None:
            gids = self.net.link_groups[lid]
            served = self.groups_toward(lid, s)
            first = gids.index(served[0])
            plan = self._plans[lid][s] = _LanePlan(
                rc=tuple(
                    self.rc_toward(g, lid, s) if g in served else None for g in gids
                ),
                move=tuple(
                    0 if g in served else (1 if j < first else -1)
                    for j, g in enumerate(gids)
                ),
            )
        return plan

    # --- lane changes (intermediate state) -----------------------------

    def lane_change_step(self, lid: int):
        """Move lane-changing vehicles laterally; mutates occupancies into the
        intermediate (pre-advance) state. Conserves each state exactly."""
        gids = self.net.link_groups[lid]
        chains = [self.groups[gid] for gid in gids]
        max_c = max(c.count for c in chains)

        def cell_at(j: int, k: int) -> int | None:
            # k counts from the downstream end so chains of different length
            # stay aligned at the downstream boundary
            c = chains[j]
            i = c.count - 1 - k
            return i if i >= 0 else None

        for k in range(max_c):
            idx = [cell_at(j, k) for j in range(len(chains))]
            # lane-change totals per cell
            n_in = [0.0] * len(chains)
            n_out = [0.0] * len(chains)
            n_tot = [0.0] * len(chains)
            for j, c in enumerate(chains):
                if idx[j] is None:
                    continue
                for s, n in c.occ[idx[j]].items():
                    n_tot[j] += n
                    d = self._plan(lid, s).move[j]
                    if d == -1:
                        n_in[j] += n
                    elif d == 1:
                        n_out[j] += n
            beta = [1.0] * len(chains)
            for j, c in enumerate(chains):
                if idx[j] is None:
                    beta[j] = 0.0
                    continue
                incoming = 0.0
                if j + 1 < len(chains) and idx[j + 1] is not None:
                    incoming += n_in[j + 1]  # outer neighbor moving inward
                if j - 1 >= 0 and idx[j - 1] is not None:
                    incoming += n_out[j - 1]  # inner neighbor moving outward
                if incoming <= 0:
                    beta[j] = 1.0
                else:
                    beta[j] = min(1.0, self.xi * (c.n_max - n_tot[j]) / incoming)
                    beta[j] = max(0.0, beta[j])
            new = [dict() for _ in chains]
            for j, c in enumerate(chains):
                if idx[j] is None:
                    continue
                for s, n in c.occ[idx[j]].items():
                    d = self._plan(lid, s).move[j]
                    stay = n
                    if d == -1 and j - 1 >= 0 and idx[j - 1] is not None:
                        moved = beta[j - 1] * n
                        stay = n - moved
                        new[j - 1][s] = new[j - 1].get(s, 0.0) + moved
                    elif d == 1 and j + 1 < len(chains) and idx[j + 1] is not None:
                        moved = beta[j + 1] * n
                        stay = n - moved
                        new[j + 1][s] = new[j + 1].get(s, 0.0) + moved
                    if stay > 0:
                        new[j][s] = new[j].get(s, 0.0) + stay
            for j, c in enumerate(chains):
                if idx[j] is not None:
                    c.occ[idx[j]] = {s: n for s, n in new[j].items() if n > 0}

    # --- protocol ------------------------------------------------------

    def compute_demands(self, now, rng) -> list[DemandRequest]:
        reqs: list[DemandRequest] = []
        for lid in self.links:
            gids = self.net.link_groups[lid]
            if len(gids) > 1:  # no lane to change to
                self.lane_change_step(lid)
            v = self.link_v[lid]
            for j, gid in enumerate(gids):
                gc = self.groups[gid]
                gc.pre = [dict(c) for c in gc.occ]
                gc.outflow = {}
                last = gc.occ[-1]
                n_tot = sum(last.values())
                if n_tot <= 0:
                    continue
                by_rc: dict[object, dict[StateIndex, float]] = {}
                for s in sorted(last, key=state_sort_key):
                    n_s = last[s]
                    if n_s <= 0:
                        continue
                    plan = self._plan(lid, s)
                    if plan.move[j]:  # not served from this lane group
                        continue
                    d_s = min(v * n_s, gc.f_cap * n_s / n_tot)
                    if d_s <= 0:
                        continue
                    by_rc.setdefault(plan.rc[j], {})[s] = d_s
                reqs += self.requests(gid, by_rc, dict)
        return reqs

    def lane_group_supply(self, group_id: str) -> float:
        # the first cell at the start of the step: what `remove` took out of
        # it since does not count
        gc = self.groups[group_id]
        w = self.link_w[gc.link]
        n = sum(gc.pre[0].values()) if gc.pre else gc.cell_total(0)
        return max(0.0, max(0.0, w * (gc.n_max - n)) - gc.received)

    def remove(self, group_id: str, rc, amounts: dict[StateIndex, float]):
        gc = self.groups[group_id]
        last = gc.occ[-1]
        for s, a in amounts.items():
            cur = last.get(s, 0.0) - a
            if cur < NEG_TOL:
                raise RuntimeError(
                    "lane group %s: outflow exceeds occupancy for state %s" % (group_id, s)
                )
            if cur > 0:
                last[s] = cur
            else:
                last.pop(s, None)
            gc.outflow[s] = gc.outflow.get(s, 0.0) + a

    def receive_fluid(self, group_id, amounts, now):
        gc = self.groups[group_id]
        plans = self._plans[gc.link]
        gc.received += sum(amounts.values())
        for s, a in amounts.items():
            if a > 0:
                if s not in plans:  # an unroutable state fails on entry
                    self._plan(gc.link, s)
                gc.inflow[s] = gc.inflow.get(s, 0.0) + a

    def receive_vehicles(self, link_id, vehicles, now):
        raise RuntimeError("CTM receives fluid packets only; translate first")

    def advance_state(self, now, rng):
        for lid in self.links:
            v = self.link_v[lid]
            w = self.link_w[lid]
            for gid in self.net.link_groups[lid]:
                gc = self.groups[gid]
                pre = gc.pre if gc.pre else [dict(c) for c in gc.occ]
                # internal fluxes from the intermediate state
                for i in range(gc.count - 1):
                    n_i = sum(pre[i].values())
                    if n_i <= 0:
                        gc.out_last[i] = 0.0
                        continue
                    n_next = sum(pre[i + 1].values())
                    flux = min(v * n_i, gc.f_cap, w * (gc.n_max - n_next))
                    flux = max(0.0, flux)
                    gc.out_last[i] = flux
                    gc.cum_internal[i] += flux
                    if flux <= 0:
                        continue
                    for s in sorted(pre[i], key=state_sort_key):
                        f_s = flux * pre[i][s] / n_i
                        if f_s <= 0:
                            continue
                        cur = gc.occ[i].get(s, 0.0) - f_s
                        if cur < NEG_TOL:
                            raise RuntimeError(
                                "negative occupancy in %s cell %d" % (gid, i)
                            )
                        if cur > 0:
                            gc.occ[i][s] = cur
                        else:
                            gc.occ[i].pop(s, None)
                        gc.occ[i + 1][s] = gc.occ[i + 1].get(s, 0.0) + f_s
                gc.out_last[-1] = sum(gc.outflow.values())
                # boundary inflow into the upstream-most cell
                for s, a in gc.inflow.items():
                    gc.occ[0][s] = gc.occ[0].get(s, 0.0) + a
                gc.inflow = {}
                gc.received = 0.0
                gc.outflow = {}
                gc.pre = []

    # --- queries -------------------------------------------------------

    def distance_to_last_vehicle(self, group_id: str) -> float:
        gc = self.groups[group_id]
        n = gc.cell_total(0)
        return min(gc.length, max(0.0, gc.length * (gc.n_max - n) / gc.n_max))

    def total_vehicles(self, group_id: str) -> float:
        return self.groups[group_id].total()

    def mean_speed_kmh(self, group_id: str) -> float:
        gc = self.groups[group_id]
        limit = self.speed_limit_eff[gc.link]
        num = 0.0
        den = 0.0
        for i in range(gc.count):
            n = gc.cell_total(i)
            if n <= 1e-9:
                continue
            v_ms = gc.out_last[i] * gc.length / (n * self.dt)
            num += n * min(limit, v_ms * 3.6)
            den += n
        return limit if den <= 1e-9 else num / den

    def local_speed_ms(self, link_id: int, group_id: str, offset_m: float) -> float:
        gc = self.groups[group_id]
        i = min(gc.count - 1, max(0, int(offset_m // gc.length)))
        n = gc.cell_total(i)
        if n <= 1e-9:
            return self.speed_limit_eff[link_id] / 3.6
        return min(
            self.speed_limit_eff[link_id] / 3.6,
            gc.out_last[i] * gc.length / (n * self.dt),
        )

    def state_counts(self, link_id: int) -> dict[StateIndex, float]:
        out: dict[StateIndex, float] = {}
        for gid in self.net.link_groups[link_id]:
            gc = self.groups[gid]
            for cell in gc.occ:
                for s, n in cell.items():
                    out[s] = out.get(s, 0.0) + n
            for s, n in gc.inflow.items():
                out[s] = out.get(s, 0.0) + n
        return out

    # --- actuation and sensors ----------------------------------------

    def set_speed_limit(self, link_id: int, v_kmh: float):
        super().set_speed_limit(link_id, v_kmh)
        self._set_normalized_speeds(link_id)

    def local_density_per_m(self, link_id: int, offset_m: float) -> float:
        total = 0.0
        for gid in self.net.link_groups[link_id]:
            gc = self.groups[gid]
            i = min(gc.count - 1, max(0, int(offset_m // gc.length)))
            total += gc.cell_total(i) / gc.length
        return total
