"""Array delivery for the junctions that lie within one CTM model.

A batched junction whose upstream and downstream lane groups all belong to
one `CtmModel` is an array junction. Its fluid never meets a vehicle, its
routing draws no random number, and since every supply is the free space at
the start of the step, net of what has entered since, what it delivers
depends on no other junction. So the engine delivers every array junction
of a model in rounds by pair rank: round k takes the k-th offered pair of
each junction at once, as a few numpy steps over the model's arrays.

The offers come straight from the model's demand array: at build the
deliverer maps each (lane group, slot) of the model to the pair its demand
is offered on, or to no array pair, and the model turns only the places
outside the map into packets (`CtmModel._to_packets`). Per flow phase the
deliverer gathers its pairs' demand rows, sizes each as `FluxPacket.size`
does (a left-to-right sum over the slots) and ranks the offered pairs of
each junction. A junction whose one offered pair goes through a road
connection with one downstream lane group is handed back to the engine
with a packet of that row, for the closed form, as the pair-by-pair path
would solve it.

Each step takes the float operations of the pair-by-pair path
(`Engine._deliver`, `RoutingContext.assign_next_link`, `Engine._enter`,
`Engine._book`, `CtmModel.lane_group_supply`, `receive_fluid` and `remove`)
in the same order for each lane group, ledger entry and cell: a round holds
at most one pair of a junction, a lane group and a link belong to one
junction, so every per-key sum that runs across pairs runs across rounds,
in pair order. The CTM keeps what its cell layout implies (its receipts
and removals as array steps); this module keeps the junctions, the routing
map and, per round, one `np.bincount` of the amounts booked into the
engine's ledger arrays, by (link, slot) place. The received fluid, the
inflow and the ledger rounds are committed once per flow phase, the rounds
added in round order, so each place still sums `x = x + a` in pair order;
cuts are taken out after the pass, with the per-cut clamp. An array step
that fails commits nothing, and the engine redoes it pair by pair with
packets built from the rows (`plan`), which names the failing pair.
"""

from __future__ import annotations

import numpy as np

from .models.ctm import _row_sums
from .nodemodel import EPS
from .packets import FluxPacket


class ArrayJunctions:
    """The array junctions of one CTM model (`junctions`, ascending id):
    static tables of their pairs and road connections, the map from the
    model's demand places to the pairs, the compiled routing map, and one
    flow phase's state between `offer` and `remove`."""

    def __init__(self, engine, model, junctions):
        self.model, self.routing = model, engine.routing
        self.n = n = model._n_slots
        groups = model._group_list
        index = {gid: g.index for gid, g in model.groups.items()}
        # per pair, junction by junction: its junction, lane group, road
        # connection (its place in `_up`/`_down`), place in the batch, and
        # its junction's first and last pair
        jset = engine._jset
        self.start = {}  # junction id -> its first pair
        self._junction = []
        pair_g, pair_r, pair_rc, pair_batch, pair_first, pair_last, rc_at = (
            [], [], [], [], [], [], {})
        rc_groups, up, down = [], [], []
        sup_pos, sup_g = [], []
        for j in junctions:
            k = jset.place[j.id]
            self.start[j.id] = len(pair_g)
            self._junction += [j] * len(j.pairs)
            for i, (g, r) in enumerate(j.pairs):
                if r not in rc_at:
                    conn = engine._rc[r]
                    rc_at[r] = len(rc_at)
                    rc_groups.append([index[h] for h in conn.groups])
                    up.append(conn.up_link)
                    down.append(conn.down_link)
                pair_g.append(index[g])
                pair_r.append(r)
                pair_rc.append(rc_at[r])
                pair_batch.append(jset.pair_start[k] + i)
                pair_first.append(self.start[j.id])
            pair_last += [len(pair_g) - 1] * len(j.pairs)
            sup_pos += range(jset.down_start[k], jset.down_start[k] + len(j.downstream))
            sup_g += [index[h] for h in j.downstream]
        intp = np.intp
        self._up, self._down = np.array(up, intp), np.array(down, intp)
        self._pair_g, pair_rc = np.array(pair_g, intp), np.array(pair_rc, intp)
        self._pair_batch, self._pair_first = np.array(pair_batch, intp), np.array(pair_first, intp)
        self._pair_last = np.array(pair_last, intp)
        self._pair_table = [groups[g].table for g in pair_g]
        self._one_down = np.array([len(rc_groups[i]) == 1 for i in pair_rc])
        # the demand map: each pair's places in the model's (lane group,
        # slot) demand array, flat, and which of them it offers, those
        # whose slot leaves its lane group by the pair's road connection;
        # the model makes packets of the places no pair offers
        slots = np.arange(n)
        self._src = self._pair_g[:, None] * n + slots
        self._mine = np.zeros((len(pair_g), n), bool)
        for q, (g, r) in enumerate(zip(pair_g, pair_r)):
            rcs = model._group_rcs[g]
            self._mine[q, :len(rcs)] = [x == r for x in rcs]
        to_packets = np.ones(len(groups) * n, bool)
        to_packets[self._src[self._mine]] = False
        model._to_packets = to_packets
        self._offered = np.zeros((len(pair_g), n))  # this phase's rows
        # each pair's road connection's downstream lane groups, padded with
        # the index past the last lane group, which stands for none
        width = max(map(len, rc_groups))
        self._h = np.array([h + [len(groups)] * (width - len(h)) for h in rc_groups],
                           intp)[pair_rc]
        # each pair's ledger places out of its upstream and into its
        # downstream link (the engine's padding place past a link's table),
        # and its entries in the routing map, per slot
        self._n_places = engine._cum_in.size

        def places(links):
            lens = np.array([len(engine.routing.tables[lid]) for lid in links], intp)
            off = np.array([engine.place_of[lid] for lid in links], intp)
            return np.where(slots < lens[:, None], off[:, None] + slots,
                            self._n_places - 1)[pair_rc]

        self._out_places, self._in_places = places(up), places(down)
        self._entries = pair_rc[:, None] * n + slots
        self._sup_pos, self._sup_g = np.array(sup_pos, intp), np.array(sup_g, intp)
        self._reset_map()
        # the batched junctions this flow phase offers (0 when none), and
        # each pair's size and rank among its junction's batched pairs
        self.batched = 0
        self._size = self._rank = None
        # per round of the pass, the pairs that delivered and what they cut
        self._cuts: list[tuple] = []

    def name(self, pair: int) -> tuple:
        """(junction id, rc, lane group) of a pair."""
        j = self._junction[pair]
        g, r = j.pairs[pair - self.start[j.id]]
        return j.id, r, g

    # --- routing map ----------------------------------------------------

    def _reset_map(self):
        """Drop the compiled routing map: per entry (road connection * n +
        slot of its upstream link's table), once compiled, the row of
        `RoutingContext._row` as next slots (padded with the column past
        the table), ratios (padded with 0) and their total."""
        self._version = self.routing.version
        size = len(self._up) * self.n
        self._known = np.zeros(size, bool)
        self._dest = np.full((size, 1), self.n, np.intp)
        self._ratio = np.zeros((size, 1))
        self._total = np.ones(size)
        self._timed = []  # (entry, split profile key, pieces compiled from)

    def _refresh_map(self, t):
        """Recompile on the routing rows' own staleness rules: every entry
        once an override has dropped the rows, an entry once its split
        profile has moved to another piece."""
        if self.routing.version != self._version:
            self._reset_map()
            return
        splits, kept = self.routing.splits, []
        for entry, key, pieces in self._timed:
            if splits[key].pieces_at(t) != pieces:
                self._known[entry] = False
            else:
                kept.append((entry, key, pieces))
        self._timed = kept

    def _compile(self, entries: np.ndarray, t):
        """Compile each of `entries` the map lacks, in entry order."""
        n = self.n
        for e in dict.fromkeys(entries[~self._known[entries]].tolist()):
            up, down = int(self._up[e // n]), int(self._down[e // n])
            s = self.routing.tables[up][e % n]
            row = self.routing._row(s, down, t)
            w = len(row.slots)
            if w > self._dest.shape[1]:
                extra = w - self._dest.shape[1]
                self._dest = np.pad(self._dest, ((0, 0), (0, extra)), constant_values=n)
                self._ratio = np.pad(self._ratio, ((0, 0), (0, extra)))
            self._dest[e] = n
            self._dest[e, :w] = row.slots
            self._ratio[e] = 0.0
            self._ratio[e, :w] = row.ratios
            self._total[e] = row.total
            self._known[e] = True
            if row.pieces is not None:
                self._timed.append((e, (down, s.vtype), row.pieces))

    # --- one flow phase ---------------------------------------------------

    def offer(self) -> dict[int, dict]:
        """Read this flow phase's offers from the model's demand array:
        rank the pairs each junction batches, and return the junctions for
        the closed form, each with its one offer by pair index as (sender,
        packet, size)."""
        off, first = self._offered, self._pair_first
        np.take(self.model._demand, self._src, out=off)
        np.copyto(off, 0.0, where=~((off > 0) & self._mine))
        size = _row_sums(off)  # `FluxPacket.size`, summed left to right
        on = size > 0
        seen = np.cumsum(on)
        before = seen[first] - on[first]  # offered pairs of the junctions before
        single = on & (seen[self._pair_last] - before == 1) & self._one_down
        closed = {}
        for q in np.flatnonzero(single).tolist():
            jid = self._junction[q].id
            closed[jid] = {q - self.start[jid]: self._packet(q)}
        # a junction for the closed form has no other offered pair, so the
        # ranks within every other junction hold without it
        on &= ~single
        self._rank = np.where(on, seen - 1 - before, -1)
        self._size = size * on
        self.batched = int(np.count_nonzero(self._rank == 0))
        return closed

    def _packet(self, q: int) -> tuple:
        """(sender, packet, size) of pair q's demand row."""
        table = self._pair_table[q]
        packet = FluxPacket(table, self._offered[q, :len(table)].tolist())
        return self.model, packet, packet.size

    def plan(self) -> list[tuple]:
        """The batched offers as the pair-by-pair path takes them: per
        junction, ascending, (junction, offers by pair index, the pairs'
        offset in the batch)."""
        out = []
        for q in np.flatnonzero(self._rank >= 0).tolist():
            j = self._junction[q]
            if not out or out[-1][0] is not j:
                out.append((j, {}, int(self._pair_batch[self.start[j.id]])))
            out[-1][1][q - self.start[j.id]] = self._packet(q)
        return out

    def open(self, demand: np.ndarray, supply: np.ndarray):
        """Fill the batch's `demand` of the pairs `offer` ranked, and its
        `supply` of every array junction's downstream lane groups from the
        model's free space and received fluid now."""
        demand[self._pair_batch] = self._size
        self.model.open_receipts()
        supply[self._sup_pos] = self.model.receipt_supply(self._sup_g)

    def deliver(self, t, flow: np.ndarray, cum_in: np.ndarray, cum_out: np.ndarray) -> int:
        """Deliver the offered pairs with the batch's `flow`, in rounds by
        rank; book into the engine's `cum_in`/`cum_out` ledger arrays and
        return the number of deliveries. Nothing is committed if it fails."""
        n, model, places = self.n, self.model, self._n_places
        self._refresh_map(t)
        delta = flow[self._pair_batch]
        booked_out, booked_in = [], []  # per round, the amounts by place
        cuts = []
        for rank in range(self._rank.max() + 1):
            at = np.flatnonzero(self._rank == rank)
            h = self._h[at]
            caps = model.receipt_supply(h)
            allow = _row_sums(caps)
            d, size = delta[at], self._size[at]
            total = np.minimum(np.minimum(1.0, d / size) * size, allow)
            ok = (d > EPS) & (total > 0)
            at, h, caps, allow, total, size = (
                at[ok], h[ok], caps[ok], allow[ok], total[ok], size[ok])
            if not at.size:
                continue
            # the cut: booked out of the upstream link, kept for removal
            sent = self._offered[at] * np.minimum(1.0, total / size)[:, None]
            cuts.append((at, sent))
            booked_out.append(np.bincount(self._out_places[at].ravel(), weights=sent.ravel(),
                                          minlength=places))
            # re-keyed through the routing map into the entered link's slots
            entries = self._entries[at]
            lacking = (sent > 0) & ~self._known[entries]
            if lacking.any():
                self._compile(entries[lacking], t)
            rows = np.arange(len(at)) * (n + 1)
            routed = np.bincount(
                (rows[:, None, None] + self._dest[entries]).ravel(),
                weights=(sent[..., None] * self._ratio[entries]
                         / self._total[entries][..., None]).ravel(),
                minlength=len(at) * (n + 1)).reshape(-1, n + 1)[:, :n]
            booked_in.append(np.bincount(self._in_places[at].ravel(), weights=routed.ravel(),
                                         minlength=places))
            # spread over the road connection's lane groups by free space
            model.receive_round(h, routed[:, None, :] * caps[..., None] / allow[:, None, None])
        # commit: a place gets at most one non-zero amount a round, so adding
        # the rounds in order is the pair-by-pair path's `x = x + a`
        model.commit_receipts()
        for ledger, rounds in ((cum_out, booked_out), (cum_in, booked_in)):
            for got in rounds:
                ledger += got
        self._cuts, self.batched = cuts, 0
        return sum(len(at) for at, _ in cuts)

    def cuts(self) -> list[tuple]:
        """The pass's cuts not yet taken out, as (lane group, rc, packet) in
        the order the pair-by-pair path makes them."""
        out = []
        for at, sent in self._cuts:
            for q, row in zip(at.tolist(), sent):
                _, r, g = self.name(q)
                table = self._pair_table[q]
                out.append((q, g, r, FluxPacket(table, row[:len(table)].tolist())))
        return [c[1:] for c in sorted(out, key=lambda c: c[0])]

    def remove(self):
        """Take the pass's cuts out of the senders' last cells, round by
        round (`CtmModel.remove_rounds`)."""
        if self._cuts:
            self.model.remove_rounds([(self._pair_g[at], sent) for at, sent in self._cuts])
            self._cuts = []
