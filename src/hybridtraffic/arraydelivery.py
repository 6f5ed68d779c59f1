"""Array delivery for the junctions that lie within one CTM model.

A batched junction whose upstream and downstream lane groups all belong to
one `CtmModel` is an array junction. Its fluid never meets a vehicle, its
routing draws no random number, and since every supply is the free space at
the start of the step, net of what has entered since, what it delivers
depends on no other junction. So the engine delivers every array junction
of a model in rounds by pair rank: round k takes the k-th offered pair of
each junction at once, as a few numpy steps over the model's arrays. An
array junction is delivered this way at every step, whatever it is
offered; the path is fixed when the engine is built.

The offers come straight from the model's demand array: at build the
deliverer maps each (lane group, slot) of the model to the pair its demand
is offered on, or to no array pair, and the model turns only the places
outside the map into packets (`CtmModel._to_packets`). Per flow phase the
deliverer gathers its pairs' demand rows, sizes each as `FluxPacket.size`
does (a left-to-right sum over the slots) and ranks the offered pairs of
each junction.

Each step takes the float operations of the pair-by-pair path
(`Engine._deliver`, `RoutingContext.assign_next_link`, `Engine._enter`,
`Engine._book`, `CtmModel.lane_group_supply`, `receive_fluid` and `remove`)
in the same order for each lane group, ledger entry and cell: a round holds
at most one pair of a junction, a lane group and a link belong to one
junction, so every per-key sum that runs across pairs runs across rounds,
in pair order. The CTM keeps what its cell layout implies (its receipts
and removals as array steps); this module keeps the junctions, the routing
map and, per round, one `np.bincount` of the amounts booked into the
engine's ledger arrays, by (link, slot) place, added as the round is made,
so each place still sums `x = x + a` in pair order. Cuts are taken out
after the pass, with the per-cut clamp.

A failure that the pair-by-pair path makes at a pair (a refused slot, an
unroutable state, an outflow above the occupancy) is raised as a
`PairError` that names the pair, from that path's own error. When several
pairs fail in one flow phase, the lowest pair index of the first failing
round is named, for delivery and for removal alike.
"""

from __future__ import annotations

import numpy as np

from .models.ctm import RowError, _row_sums
from .nodemodel import EPS


class PairError(Exception):
    """An array step failed at the pair its args name, (junction id, rc,
    lane group); its `__cause__` is the error the pair-by-pair path raises
    there."""


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
        pair_g, pair_r, pair_rc, pair_batch, pair_first, rc_at = [], [], [], [], [], {}
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
            sup_pos += range(jset.down_start[k], jset.down_start[k] + len(j.downstream))
            sup_g += [index[h] for h in j.downstream]
        intp = np.intp
        self._up, self._down = np.array(up, intp), np.array(down, intp)
        self._pair_g, pair_rc = np.array(pair_g, intp), np.array(pair_rc, intp)
        self._pair_batch, self._pair_first = np.array(pair_batch, intp), np.array(pair_first, intp)
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

    def _compile(self, entries: np.ndarray, rows: np.ndarray, t):
        """Compile `entries`, each needed by the round's row of `rows`, in
        row order. Return None, or the first row an entry fails to compile
        for and the routing error; the entries before it are compiled."""
        n = self.n
        for e, i in zip(entries.tolist(), rows.tolist()):
            if self._known[e]:  # needed by an earlier row too
                continue
            up, down = int(self._up[e // n]), int(self._down[e // n])
            s = self.routing.tables[up][e % n]
            try:
                row = self.routing._row(s, down, t)
            except Exception as exc:
                return i, exc
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

    def offer(self):
        """Read this flow phase's offers from the model's demand array: size
        each pair and rank the offered pairs of each junction."""
        off, first = self._offered, self._pair_first
        np.take(self.model._demand, self._src, out=off)
        np.copyto(off, 0.0, where=~((off > 0) & self._mine))
        self._size = _row_sums(off)  # `FluxPacket.size`, summed left to right
        on = self._size > 0
        seen = np.cumsum(on)
        before = seen[first] - on[first]  # offered pairs of the junctions before
        self._rank = np.where(on, seen - 1 - before, -1)
        self.batched = int(np.count_nonzero(self._rank == 0))

    def open(self, demand: np.ndarray, supply: np.ndarray):
        """Fill the batch's `demand` of the pairs `offer` ranked, and its
        `supply` of every array junction's downstream lane groups from the
        model's free space and received fluid now."""
        demand[self._pair_batch] = self._size
        self.model.open_receipts()
        supply[self._sup_pos] = self.model.receipt_supply(self._sup_g)

    def deliver(self, t, flow: np.ndarray, cum_in: np.ndarray, cum_out: np.ndarray) -> int:
        """Deliver the offered pairs with the batch's `flow`, in rounds by
        rank, each round booked into the engine's `cum_in`/`cum_out` ledger
        arrays as it is made; return the number of deliveries. A round's
        routing failure is raised once the pairs before it have entered."""
        n, model, places = self.n, self.model, self._n_places
        self._refresh_map(t)
        delta = flow[self._pair_batch]
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
            # the cut: booked out of the upstream link, kept for removal; a
            # place gets at most one non-zero amount a round, so adding the
            # rounds in order is the pair-by-pair path's `x = x + a`
            sent = self._offered[at] * np.minimum(1.0, total / size)[:, None]
            cuts.append((at, sent))
            cum_out += np.bincount(self._out_places[at].ravel(), weights=sent.ravel(),
                                   minlength=places)
            # re-keyed through the routing map into the entered link's slots
            entries = self._entries[at]
            lacking = (sent > 0) & ~self._known[entries]
            failed = (self._compile(entries[lacking], np.nonzero(lacking)[0], t)
                      if lacking.any() else None)
            stop = len(at) if failed is None else failed[0]
            rows = np.arange(len(at)) * (n + 1)
            routed = np.bincount(
                (rows[:, None, None] + self._dest[entries]).ravel(),
                weights=(sent[..., None] * self._ratio[entries]
                         / self._total[entries][..., None]).ravel(),
                minlength=len(at) * (n + 1)).reshape(-1, n + 1)[:stop, :n]
            cum_in += np.bincount(self._in_places[at[:stop]].ravel(), weights=routed.ravel(),
                                  minlength=places)
            # spread over the road connection's lane groups by free space
            try:
                model.receive_round(h[:stop], routed[:, None, :] * caps[:stop, :, None]
                                    / allow[:stop, None, None])
            except RowError as exc:
                raise PairError(*self.name(at[exc.row])) from exc.__cause__
            if failed is not None:
                raise PairError(*self.name(at[stop])) from failed[1]
        model.commit_receipts()
        self._cuts, self.batched = cuts, 0
        return sum(len(at) for at, _ in cuts)

    def remove(self):
        """Take the pass's cuts out of the senders' last cells, round by
        round (`CtmModel.remove_rounds`); a cut above its sender's
        occupancy raises `PairError`."""
        if self._cuts:
            try:
                self.model.remove_rounds([(self._pair_g[at], sent) for at, sent in self._cuts])
            except RowError as exc:
                raise PairError(*self.name(self._cuts[exc.round][0][exc.row])) from exc.__cause__
            self._cuts = []
