"""Cell-transmission model with multi-commodity state and a lateral
lane-change step per cell, held in one array per model.

Every cell of the model is a row of a `(cells + 1) x slots` occupancy array:
a lane group's cells are consecutive rows, upstream-most first, in the
model's `group_ids` order. A link's slots are its state table
(`RoutingContext.tables`), the states it can hold in state order, and fluid
enters and leaves as amounts aligned with that table; columns past a link's
own slots stay zero, and so does the extra last row, which stands in for a
missing lateral neighbour. The lane changes, the demands and the internal
fluxes are a fixed number of numpy operations per step, whatever the number
of links.
Within a flow phase a cut (`remove`) goes straight into its lane group's
last-cell row of the occupancy array, and its outflow into a per-lane-group
array; fluid received goes into the first-cell inflow, a dense (lane group,
slot) array that `advance_state` adds to the cells. Only the cell totals and
the received totals stay Python lists, because every supply read
(`lane_group_supply`) uses them. The array junctions' receipts and removals
are the same steps over many lane groups at once: each round adds into the
inflow as it is taken, and one that fails names its row (`RowError`) with
the error the one-lane-group step raises.

Every sending flow of a step is computed at once, as one (lane group,
slot) demand array kept for the flow phase (`_demand`). A lane group's
demand becomes one packet and request per road connection, exits last,
except at the places the model's array junctions offer straight from that
array (`arraydelivery.ArrayJunctions` marks them in `_to_packets`); a model
with no array junction makes packets of every place.

Every float operation keeps the order of the dict model kept as the oracle
in `tests/reference_ctm.py`. A cell's total is summed column by column, in
slot order, so it equals the dict model's sum whenever a cell holds at most
two states.
"""

from __future__ import annotations

import math

import numpy as np

from ..demand import ConfigurationError, RoutingError
from ..packets import FluxPacket, ProtocolError, StateIndex
from .base import DemandRequest, TrafficModel

NEG_TOL = -1e-9
TINY = 5e-324  # divisor for empty cells: leaves every positive float as it is


def _row_sums(a: np.ndarray) -> np.ndarray:
    """Per-row sums of `a`, added column by column from the left."""
    if a.shape[1] == 1:
        return a[:, 0].copy()
    tot = a[:, 0] + a[:, 1]
    for k in range(2, a.shape[1]):
        tot += a[:, k]
    return tot


class RowError(Exception):
    """An array step failed at row `row` of its round `round`; its
    `__cause__` is the error the one-lane-group step raises there."""

    def __init__(self, row: int, round: int = 0):
        super().__init__("row %d of round %d" % (row, round))
        self.row, self.round = row, round


class _Group:
    """One lane group's cell chain: rows `start` to `start + count - 1` of
    the model's arrays, upstream-most first; once routing is set, its link's
    state table and the slots of that table with no lane plan, each with
    its `RoutingError`."""

    __slots__ = ("model", "index", "link", "start", "count", "length", "n_max", "f_cap",
                 "table", "refused")

    def __init__(self, model, index, link, start, count, length, n_max, f_cap):
        self.model, self.index, self.link = model, index, link
        self.start, self.count = start, count
        self.length = length  # cell length, m
        self.n_max = n_max  # veh per cell
        self.f_cap = f_cap  # veh per step per cell

    def cell_total(self, i: int) -> float:
        return self.model._tot[self.start + i % self.count]


class CtmModel(TrafficModel):
    kind = "ctm"

    def __init__(self, dt: float, max_cell_length: float, lc_supply_factor: float = 1.0):
        super().__init__(dt)
        if max_cell_length <= 0:
            raise ConfigurationError("max_cell_length must be positive")
        if not (0.0 <= lc_supply_factor <= 1.0):
            raise ConfigurationError("lane-change supply factor must be in [0,1]")
        self.max_cell_length = max_cell_length
        self.xi = lc_supply_factor
        self.link_v: dict[int, float] = {}  # normalized free-flow speed per step
        self.link_w: dict[int, float] = {}  # normalized congestion speed per step
        self.link_cell_len: dict[int, float] = {}
        # with array junctions (`arraydelivery.ArrayJunctions`), the (lane
        # group, slot) places whose demand still becomes packets, flat; the
        # rest the array junctions read from `_demand`
        self._to_packets: np.ndarray | None = None

    # --- construction --------------------------------------------------

    def build(self, net, link_ids):
        super().build(net, link_ids)
        rows = 0
        for lid in self.links:
            link = net.links[lid]
            n_cells = max(1, math.ceil(link.length / self.max_cell_length))
            cell_len = link.length / n_cells
            self.link_cell_len[lid] = cell_len
            self.link_v[lid], self.link_w[lid] = self._normalized_speeds(lid)
            for gid in net.link_groups[lid]:
                g = net.lane_groups[gid]
                count = max(1, round(g.length / cell_len))
                self.groups[gid] = _Group(
                    self, len(self.groups), lid, rows, count, cell_len,
                    link.params.jam_density_per_lane / 1000.0 * g.num_lanes * cell_len,
                    link.params.capacity_per_lane / 3600.0 * g.num_lanes * self.dt,
                )
                rows += count
        self._compile_cells(rows)

    def _normalized_speeds(self, lid: int) -> tuple[float, float]:
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
        return min(v, 1.0), min(w_ms * self.dt / cell_len, 1.0)

    def _compile_cells(self, n_rows: int):
        """Per-cell constants, each lane group's first and last cell, and the
        lateral neighbours on links with more than one lane group, aligned at
        the downstream end. A lane group's last cell gets no capacity in the
        per-cell constants: its outflow leaves through `remove`, so the
        internal flux computed for it, into the next lane group's first
        cell, is always 0."""
        groups = list(self.groups.values())
        self._group_list = groups
        self._n_rows = n_rows
        self._first_rows = np.array([g.start for g in groups], dtype=np.intp)
        self._last_rows = np.array([g.start + g.count - 1 for g in groups], dtype=np.intp)
        lc, inner, outer = [], [], []
        self._span = {}
        for lid in self.links:
            chain = [self.groups[gid] for gid in self.net.link_groups[lid]]
            ra, ga = chain[0].start, chain[0].index
            self._span[lid] = (ra, chain[-1].start + chain[-1].count, ga, ga + len(chain))
            if len(chain) < 2:
                continue
            local = {}  # (lane group position, cells from the downstream end) -> lc index
            for j, g in enumerate(chain):
                for i in range(g.count):
                    local[j, g.count - 1 - i] = len(lc) + (g.start + i - chain[0].start)
            for j, g in enumerate(chain):
                for i in range(g.count):
                    k = g.count - 1 - i
                    inner.append(local.get((j - 1, k), -1))
                    outer.append(local.get((j + 1, k), -1))
            lc += range(chain[0].start, chain[-1].start + chain[-1].count)
        row_group = [g for g in groups for _ in range(g.count)]
        self._row_group = row_group
        self._lc = None  # no link with a lane to change to
        if lc:
            m = len(lc)  # the zero row's place in the lateral arrays
            self._lc = np.array(lc + [n_rows], dtype=np.intp)
            self._lc_inner, self._lc_outer = np.array(
                [[x if x >= 0 else m for x in inner] + [m],
                 [x if x >= 0 else m for x in outer] + [m]], dtype=np.intp)
            self._lc_groups = [row_group[r].index for r in lc]
            self._lc_nmax = np.array([row_group[r].n_max for r in lc] + [0.0])
        self._nmax_r, self._fcap_r, self._v_r, self._w_r = np.array([
            [g.n_max for g in row_group],
            [g.f_cap if r < g.start + g.count - 1 else 0.0 for r, g in enumerate(row_group)],
            [self.link_v[g.link] for g in row_group],
            [self.link_w[g.link] for g in row_group],
        ]).reshape(4, n_rows)
        self._f_g = np.array([g.f_cap for g in groups]).reshape(-1, 1)

    # --- slots ----------------------------------------------------------

    def set_routing(self, routing):
        """Compile the lane plan of each slot of each link (see `_plan`).
        A state whose plan fails keeps its slot but is never served, and is
        refused when it first enters the link. Starts the model empty."""
        super().set_routing(routing)
        plans, refused = {}, {}
        for lid in self.links:
            plans[lid], refused[lid] = [], {}
            for k, s in enumerate(routing.tables[lid]):
                try:
                    plans[lid].append(self._plan(lid, s))
                except RoutingError as exc:
                    plans[lid].append(None)
                    refused[lid][k] = exc
        n_slots = max([1] + [len(p) for p in plans.values()])
        groups = self._group_list
        moves, self._group_rcs = [], []
        for g in groups:
            g.table, g.refused = routing.tables[g.link], refused[g.link]
            j = g.index - self._span[g.link][2]  # its place on the link
            lane_plans = plans[g.link]
            moves.append([2 if p is None else p[1][j] for p in lane_plans]
                         + [2] * (n_slots - len(lane_plans)))
            self._group_rcs.append([None if p is None else p[0][j] for p in lane_plans])
        move = np.array(moves, dtype=np.int8).reshape(len(groups), n_slots)
        # by lane group (and the index past the last), slot
        self._refused = np.zeros((len(groups) + 1, n_slots), bool)
        for g in groups:
            if g.refused:
                self._refused[g.index, list(g.refused)] = True
        # free-flow speed where the lane group serves the slot, else 0, so
        # that no demand is formed there
        self._served = move == 0
        self._v_gs = np.array([self.link_v[g.link] for g in groups])[:, None] * self._served
        if self._lc is not None:
            lc_move = move[self._lc_groups]
            self._lc_in = np.zeros((len(self._lc), n_slots))
            self._lc_out = np.zeros((len(self._lc), n_slots))
            self._lc_in[:-1] = lc_move == -1
            self._lc_out[:-1] = lc_move == 1
        self._occ = np.zeros((self._n_rows + 1, n_slots))
        self._cum = np.zeros(self._n_rows)  # crossings of each internal boundary
        self._cum_out = np.zeros(len(groups))  # crossings of each downstream boundary
        self._n_slots = n_slots
        self._flux = np.zeros(self._n_rows)  # last step's internal fluxes
        # each lane group's outflow in the last step, and in this one
        self._out_prev, self._outflow = np.zeros(len(groups)), np.zeros(len(groups))
        # inflow into each lane group's first cell, by (lane group, slot),
        # with a zero row for the index past the last, and its total per
        # lane group
        self._inflow = np.zeros((len(groups) + 1, n_slots))
        self._received = [0.0] * len(groups)
        self._tot_np = np.zeros(self._n_rows + 1)  # cell totals
        self._tot = [0.0] * (self._n_rows + 1)  # the same as a list, which `remove` updates

    def _plan(self, lid: int, s: StateIndex) -> tuple[tuple, tuple]:
        """Where the state goes on the link, per lane group inner to outer:
        the road connection it leaves by (None when it exits the network
        there), and the lateral move it must make first (+1 outward, -1
        inward, 0 none)."""
        gids = self.net.link_groups[lid]
        served = self.groups_toward(lid, s)
        first = gids.index(served[0])
        rc = tuple(self.rc_toward(g, lid, s) if g in served else None for g in gids)
        move = tuple(
            0 if g in served else (1 if j < first else -1) for j, g in enumerate(gids)
        )
        return rc, move

    @staticmethod
    def _refuse(g: _Group, k: int) -> RoutingError:
        """The error of a state entering lane group g in slot k, refused."""
        return RoutingError("state %s has no slot on link %s: %s"
                            % (g.table[k], g.link, g.refused[k]))

    def _overdraw(self, g: _Group, k: int) -> RuntimeError:
        """The error of a cut above lane group g's last cell in slot k."""
        return RuntimeError("lane group %s: outflow exceeds occupancy for state %s"
                            % (self.group_ids[g.index], g.table[k]))

    def _set_totals(self):
        self._tot_np = _row_sums(self._occ)
        self._tot = self._tot_np.tolist()

    # --- seeding and reading one cell ----------------------------------

    def occupancy(self, group_id: str, cell: int) -> dict[StateIndex, float]:
        """The cell's non-zero occupancies by state, in state order."""
        g = self.groups[group_id]
        row = self._occ[g.start + cell % g.count].tolist()
        return {s: n for s, n in zip(g.table, row) if n}

    def set_occupancy(self, group_id: str, cell: int, amounts: dict[StateIndex, float]):
        """Replace the cell's occupancies (e.g. to seed a test); not within a
        flow phase."""
        g = self.groups[group_id]
        row = np.zeros(self._occ.shape[1])
        for s, a in amounts.items():
            k = self.routing.slots[g.link].get(s)
            if k is None:
                raise RoutingError("state %s has no slot on link %s" % (s, g.link))
            if k in g.refused:
                raise self._refuse(g, k)
            row[k] = a
        self._occ[g.start + cell % g.count] = row
        self._set_totals()

    # --- lane changes (intermediate state) -----------------------------

    def lane_change_step(self):
        """Move lane-changing vehicles laterally on every link with more than
        one lane group, between cells at the same distance from the
        downstream end; mutates occupancies into the intermediate
        (pre-advance) state. Conserves each state exactly."""
        lc, inner, outer = self._lc, self._lc_inner, self._lc_outer
        x = self._occ[lc]
        tot = _row_sums(x)
        n_in = _row_sums(x * self._lc_in)
        n_out = _row_sums(x * self._lc_out)
        # what wants to come in: the outer neighbour moving inward, then the
        # inner neighbour moving outward
        incoming = n_in[outer] + n_out[inner]
        some = incoming > 0
        beta = (self.xi * (self._lc_nmax - tot)) / np.where(some, incoming, 1.0)
        np.minimum(beta, 1.0, out=beta)
        np.maximum(beta, 0.0, out=beta)
        beta = np.where(some, beta, 1.0)
        beta[-1] = 0.0  # a missing neighbour takes nothing
        moved = x * (self._lc_in * beta[inner][:, None]
                     + self._lc_out * beta[outer][:, None])
        stay = x - moved
        moved_in = moved * self._lc_in
        # from the inner neighbour, staying, from the outer neighbour
        new = (moved - moved_in)[inner] + stay
        new += moved_in[outer]
        self._occ[lc] = new
        self._set_totals()

    # --- protocol ------------------------------------------------------

    def compute_demands(self, now, rng) -> list[DemandRequest]:
        """Form the step's demand array (`_demand`) and return the requests
        of its places outside the array junctions' map, lane group by lane
        group."""
        if self._lc is not None:
            self.lane_change_step()
        last = self._occ[self._last_rows]
        n_tot = last if last.shape[1] == 1 else _row_sums(last)[:, None]
        d = np.minimum(self._v_gs * last, (self._f_g * last) / np.maximum(n_tot, TINY))
        self._demand = d
        reqs: list[DemandRequest] = []
        groups, rcs, gids = self._group_list, self._group_rcs, self.group_ids
        prev, by_rc = -1, {}

        def flush():
            if by_rc:
                table = groups[prev].table
                reqs.extend(self.requests(gids[prev], {
                    rc: FluxPacket(table, amounts) for rc, amounts in by_rc.items()}))

        d = d.ravel()
        sending = d > 0
        if self._to_packets is not None:
            sending &= self._to_packets
        at = np.flatnonzero(sending)  # lane group by lane group, slot by slot
        gi, ks = np.divmod(at, self._n_slots)
        for i, k, d_s in zip(gi.tolist(), ks.tolist(), d[at].tolist()):
            if i != prev:
                flush()
                prev, by_rc = i, {}
            amounts = by_rc.get(rcs[i][k])
            if amounts is None:
                amounts = by_rc[rcs[i][k]] = [0.0] * len(groups[i].table)
            amounts[k] = d_s
        flush()
        return reqs

    def lane_group_supply(self, group_id: str) -> float:
        """w (N - n) of the first cell now, net of the fluid received since
        the last advance, which reaches the cells only then (Daganzo's
        receiving flow, once per own step)."""
        g = self.groups[group_id]
        # `x if x > 0.0 else 0.0` is `max(0.0, x)`, NaN and -0.0 included
        free = self.link_w[g.link] * (g.n_max - self._tot[g.start])
        free = (free if free > 0.0 else 0.0) - self._received[g.index]
        return free if free > 0.0 else 0.0

    def remove(self, group_id: str, rc, packet: FluxPacket):
        g = self.groups[group_id]
        i, r = g.index, g.start + g.count - 1
        if packet.table is not g.table:
            raise ProtocolError("lane group %s: packet is not over link %s's state table"
                                % (group_id, g.link))
        row = self._occ[r]
        out, cum = float(self._outflow[i]), float(self._cum_out[i])
        for k, a in enumerate(packet.amounts):
            if a > 0:
                cur = float(row[k]) - a
                if cur < NEG_TOL:
                    raise self._overdraw(g, k)
                row[k] = cur if cur > 0 else 0.0
                out += a
                cum += a
        self._outflow[i], self._cum_out[i] = out, cum
        self._tot[r] = sum(row.tolist())

    def receive_fluid(self, group_id, amounts, now):
        g = self.groups[group_id]
        inflow, refused = self._inflow[g.index], g.refused
        self._received[g.index] += sum(amounts)
        for k, a in enumerate(amounts):
            if a > 0:
                if k in refused:
                    raise self._refuse(g, k)
                inflow[k] += a

    # --- the same as array steps, over many lane groups ----------------
    # For `arraydelivery.ArrayJunctions`, in one flow phase: `open_receipts`,
    # then rounds of `receipt_supply` and `receive_round`, `commit_receipts`
    # and, after the junction pass, `remove_rounds`. Lane groups are given
    # by index, the index past the last standing for none (supply 0, no
    # receipt); each step takes the float operations of
    # `lane_group_supply`, `receive_fluid` or `remove` in their order, and
    # raises their error for the first row that fails as a `RowError`.

    def open_receipts(self):
        """Read every lane group's free space now, as `lane_group_supply`
        does, and start taking rounds of receipts."""
        fr = self._first_rows
        free = self._w_r[fr] * (self._nmax_r[fr] - np.array(self._tot)[fr])
        self._free = np.append(np.where(free > 0.0, free, 0.0), 0.0)
        self._rec = np.append(self._received, 0.0)

    def receipt_supply(self, h: np.ndarray) -> np.ndarray:
        """`lane_group_supply` of lane groups `h`, with the rounds so far."""
        free = self._free[h] - self._rec[h]
        return np.where(free > 0.0, free, 0.0)

    def receive_round(self, h: np.ndarray, part: np.ndarray):
        """One round of `receive_fluid`: lane group h[i, j] receives
        part[i, j] (amounts over the slots), a lane group a non-zero part
        at most once a round. A refused slot raises `RowError` for the
        first row with one, from `receive_fluid`'s error."""
        n = self._n_slots
        positive = part > 0
        refused = positive & self._refused[h]
        if refused.any():
            i, j, k = np.argwhere(refused)[0].tolist()
            raise RowError(i) from self._refuse(self._group_list[h[i, j]], k)
        self._rec += np.bincount(h.ravel(), weights=_row_sums(part.reshape(-1, n)),
                                 minlength=self._rec.size)
        places = (h * n)[..., None] + np.arange(n)
        self._inflow += np.bincount(
            places.ravel(), weights=np.where(positive, part, 0.0).ravel(),
            minlength=self._inflow.size).reshape(self._inflow.shape)

    def commit_receipts(self):
        """Take in the rounds' received totals."""
        self._received = self._rec[:-1].tolist()

    def remove_rounds(self, rounds: list):
        """Rounds of `remove`, each (lane groups h, amounts): lane group
        h[i] lets go of row i of the amounts (over the slots), a lane group
        at most once a round. A cut above an occupancy raises `RowError`
        for the first such row of the first round with one, from
        `remove`'s error."""
        n, rows = self._n_slots, self._last_rows
        last, out, cum = self._occ[rows], self._outflow, self._cum_out
        cut = np.zeros(len(rows), bool)
        for r, (h, a) in enumerate(rounds):
            took = a > 0
            cur = last[h] - a
            over = took & (cur < NEG_TOL)
            if over.any():
                i, k = np.argwhere(over)[0].tolist()
                raise RowError(i, r) from self._overdraw(self._group_list[h[i]], k)
            last[h] = np.where(took, np.where(cur > 0, cur, 0.0), last[h])
            for k in range(n):  # slot by slot, as `remove` adds
                out[h] += a[:, k]
                cum[h] += a[:, k]
            cut[h[took.any(axis=1)]] = True
        self._occ[rows] = last
        g = np.flatnonzero(cut)
        tot = 0.0 + _row_sums(last[g])  # as `sum` adds from 0
        tots = self._tot
        for r, v in zip(rows[g].tolist(), tot.tolist()):
            tots[r] = v

    def advance_state(self, now, rng):
        occ, n = self._occ, self._tot_np  # totals of the intermediate state
        # internal fluxes from the intermediate state, split over the states
        # in proportion to their share of the cell: into the next cell, then
        # out of this one, clamped at 0 where anything left
        flux = np.minimum(self._v_r * n[:-1], self._fcap_r)
        np.minimum(flux, self._w_r * (self._nmax_r - n[1:]), out=flux)
        np.maximum(flux, 0.0, out=flux)
        f = occ[:-1] * flux[:, None]
        f /= np.maximum(n[:-1], TINY)[:, None]
        occ[1:] += f
        cur = occ[:-1]
        cur -= f
        neg = cur < 0.0
        if neg.any():
            neg &= f > 0
            if (cur[neg] < NEG_TOL).any():
                r = np.nonzero(neg & (cur < NEG_TOL))[0][0]
                g = self._row_group[r]
                raise RuntimeError("negative occupancy in %s cell %d" % (
                    self.group_ids[g.index], r - g.start))
            cur[neg] = 0.0
        # boundary inflow into the upstream-most cells
        occ[self._first_rows] += self._inflow[:-1]
        self._inflow.fill(0.0)
        self._received = [0.0] * len(self._group_list)
        self._cum += flux
        self._flux = flux
        self._out_prev, self._outflow = self._outflow, self._out_prev
        self._outflow.fill(0.0)
        self._set_totals()

    # --- queries -------------------------------------------------------

    def _out_of(self, g: _Group, i: int) -> float:
        """Cell i's outflux in the last step, veh/step."""
        if i == g.count - 1:
            return float(self._out_prev[g.index])
        return float(self._flux[g.start + i])

    def distance_to_last_vehicle(self, group_id: str) -> float:
        g = self.groups[group_id]
        n = self._tot[g.start]
        return min(g.length, max(0.0, g.length * (g.n_max - n) / g.n_max))

    def total_vehicles(self, group_id: str) -> float:
        g = self.groups[group_id]
        return (sum(self._tot[g.start:g.start + g.count])
                + sum(self._inflow[g.index].tolist()))

    def mean_speed_kmh(self, group_id: str) -> float:
        g = self.groups[group_id]
        limit = self.speed_limit_eff[g.link]
        num = 0.0
        den = 0.0
        for i in range(g.count):
            n = self._tot[g.start + i]
            if n <= 1e-9:
                continue
            v_ms = self._out_of(g, i) * g.length / (n * self.dt)
            num += n * min(limit, v_ms * 3.6)
            den += n
        return limit if den <= 1e-9 else num / den

    def local_speed_ms(self, link_id: int, group_id: str, offset_m: float) -> float:
        g = self.groups[group_id]
        i = min(g.count - 1, max(0, int(offset_m // g.length)))
        n = self._tot[g.start + i]
        if n <= 1e-9:
            return self.speed_limit_eff[link_id] / 3.6
        return min(
            self.speed_limit_eff[link_id] / 3.6,
            self._out_of(g, i) * g.length / (n * self.dt),
        )

    def state_counts(self, link_id: int) -> list[float]:
        out = [0.0] * len(self.routing.tables[link_id])
        for gid in self.net.link_groups[link_id]:
            g = self.groups[gid]
            for cell in self._occ[g.start:g.start + g.count].tolist():
                for k, n in enumerate(cell):
                    if n > 0:
                        out[k] += n
            for k, a in enumerate(self._inflow[g.index, :len(out)].tolist()):
                if a > 0:
                    out[k] += a
        return out

    def audit_failures(self) -> list[str]:
        occ = self._occ
        bad = ~np.isfinite(occ) | (occ < 0.0)
        if not bad.any():
            return []
        out = []
        for r, k in zip(*np.nonzero(bad)):
            g = self._row_group[r]
            states = g.table
            out.append("lane group %s cell %d state %s: occupancy %r" % (
                self.group_ids[g.index], r - g.start,
                states[k] if k < len(states) else "slot %d" % k, float(occ[r, k])))
        return out

    # --- actuation and sensors ----------------------------------------

    def set_speed_limit(self, link_id: int, v_kmh: float):
        super().set_speed_limit(link_id, v_kmh)
        v, w = self.link_v[link_id], self.link_w[link_id] = self._normalized_speeds(link_id)
        ra, rb, ga, gb = self._span[link_id]
        self._v_r[ra:rb] = v
        self._w_r[ra:rb] = w
        self._v_gs[ga:gb] = v * self._served[ga:gb]

    def local_cumulative_count(self, link_id: int, offset_m: float) -> float:
        """Crossings of the internal cell boundary nearest to the offset; a
        lane group of one cell counts its downstream boundary."""
        total = 0.0
        for gid in self.net.link_groups[link_id]:
            g = self.groups[gid]
            if g.count < 2:
                total += float(self._cum_out[g.index])
                continue
            b = min(g.count - 1, max(1, round(offset_m / g.length)))
            total += float(self._cum[g.start + b - 1])
        return total

    def local_density_per_m(self, link_id: int, offset_m: float) -> float:
        total = 0.0
        for gid in self.net.link_groups[link_id]:
            g = self.groups[gid]
            i = min(g.count - 1, max(0, int(offset_m // g.length)))
            total += self._tot[g.start + i] / g.length
        return total
