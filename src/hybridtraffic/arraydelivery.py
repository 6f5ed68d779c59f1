"""Array delivery for the junctions that lie within one CTM model.

A batched junction whose upstream and downstream lane groups all belong to
one `CtmModel` is an array junction. Its fluid never meets a vehicle, its
routing draws no random number, and since every supply is the free space at
the start of the step, net of what has entered since, what it delivers
depends on no other junction. So the engine delivers every array junction
of a model in rounds by pair rank: round k takes the k-th offered pair of
each junction at once, as a few numpy steps over the model's arrays.

Each step takes the float operations of the pair-by-pair path
(`Engine._deliver`, `RoutingContext.assign_next_link`, `Engine._enter`,
`Engine._book`, `CtmModel.lane_group_supply`, `receive_fluid` and `remove`)
in the same order for each lane group, ledger entry and cell: a round holds
at most one pair of a junction, a lane group and a link belong to one
junction, so every per-key sum that runs across pairs runs across rounds,
in pair order. The CTM keeps what its cell layout implies (its receipts
and removals as array steps); this module keeps the junctions, the routing
map and the ledgers. The ledgers, the received fluid and the inflow are
written back once per flow phase; cuts are taken out after the pass, with
the per-cut clamp. An array step that fails commits nothing, and the
engine redoes it pair by pair, which names the failing pair.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from .models.ctm import _NEVER, _row_sums
from .nodemodel import EPS
from .packets import FluxPacket, ProtocolError


class _Booking:
    """One flow phase's rounds of amounts booked into places (below
    `size`), a place at most one non-zero amount a round: per place, a seed
    and then its amounts in round order added up, as a sequence of
    `x = x + a` gives them, and the places in the order they were first
    booked (round, then place)."""

    def __init__(self, size: int):
        self.rounds: list[np.ndarray] = []
        self.first = np.full(size, _NEVER)

    def add(self, places: np.ndarray, amounts: np.ndarray):
        got = np.bincount(places.ravel(), weights=amounts.ravel(), minlength=self.first.size)
        self.first[(got > 0) & (self.first == _NEVER)] = len(self.rounds)
        self.rounds.append(got)

    def sums(self, seed) -> tuple[list, list]:
        """The booked places in order, and their `seed(place)` plus their
        amounts."""
        places = np.argsort(self.first, kind="stable")[:np.count_nonzero(self.first != _NEVER)]
        at = places.tolist()
        total = np.array([seed(x) for x in at], float)
        for got in self.rounds:
            total += got[places]
        return at, total.tolist()


class ArrayJunctions:
    """The array junctions of one CTM model (`junctions`, ascending id):
    static tables of their pairs and road connections, the compiled routing
    map, and one flow phase's state between `open` and `remove`."""

    def __init__(self, engine, model, junctions):
        self.model, self.routing = model, engine.routing
        self.n = n = model._n_slots
        groups = model._group_list
        index = {gid: g.index for gid, g in model.groups.items()}
        # every (link, slot) of the model's links, for the ledgers, and a
        # place past the last for the slots past a link's table
        offset, self._ls_link, self._ls_state = {}, [], []
        for lid in model.links:
            offset[lid] = len(self._ls_link)
            table = engine.routing.tables[lid]
            self._ls_link += [lid] * len(table)
            self._ls_state += table
        self._n_places = len(self._ls_link) + 1
        # per pair, junction by junction: its junction, lane group, road
        # connection (its place in `_up`/`_down`), place in the batch, and
        # its junction's first pair
        jset = engine._jset
        self.start = {}  # junction id -> its first pair
        self._junction = []
        pair_g, pair_rc, pair_batch, pair_first, rc_at = [], [], [], [], {}
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
                pair_rc.append(rc_at[r])
                pair_batch.append(jset.pair_start[k] + i)
                pair_first.append(self.start[j.id])
            sup_pos += range(jset.down_start[k], jset.down_start[k] + len(j.downstream))
            sup_g += [index[h] for h in j.downstream]
        intp = np.intp
        self._up, self._down = np.array(up, intp), np.array(down, intp)
        self._pair_g, pair_rc = np.array(pair_g, intp), np.array(pair_rc, intp)
        self._pair_batch, self._pair_first = np.array(pair_batch, intp), np.array(pair_first, intp)
        self._pair_table = [groups[g].table for g in pair_g]
        self._pair_len = np.array([len(t) for t in self._pair_table], intp)
        # each pair's road connection's downstream lane groups, padded with
        # the index past the last lane group, which stands for none
        width = max(map(len, rc_groups))
        self._h = np.array([h + [len(groups)] * (width - len(h)) for h in rc_groups],
                           intp)[pair_rc]
        # each pair's ledger places out of its upstream and into its
        # downstream link, and its entries in the routing map, per slot
        slots = np.arange(n)

        def places(links):
            lens = np.array([len(engine.routing.tables[lid]) for lid in links], intp)
            off = np.array([offset[lid] for lid in links], intp)
            return np.where(slots < lens[:, None], off[:, None] + slots,
                            self._n_places - 1)[pair_rc]

        self._out_places, self._in_places = places(up), places(down)
        self._entries = pair_rc[:, None] * n + slots
        self._sup_pos, self._sup_g = np.array(sup_pos, intp), np.array(sup_g, intp)
        self._reset_map()
        # this pass's (junction, offers, pairs' offset in the batch), the
        # offers by pair index as (sender, packet, size)
        self.items: list[tuple] = []
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

    def open(self, demand: np.ndarray, supply: np.ndarray):
        """Fill the batch's `demand` of the pairs `items` offer, and its
        `supply` of every array junction's downstream lane groups from the
        model's free space and received fluid now. Every pair has a row in
        the pass's arrays: one not offered has size 0 and rank -1."""
        start, tables = self.start, self._pair_table
        pairs, offers = [], []
        for j, offered, _ in self.items:
            s0 = start[j.id]
            pairs += [s0 + i for i in offered]
            offers += offered.values()
        packets = [o[1] for o in offers]
        if not all(pk.table is tables[p] and pk.is_fluid for p, pk in zip(pairs, packets)):
            raise ProtocolError("a packet is not fluid over its lane group's table")
        pairs = np.array(pairs, np.intp)
        lens = self._pair_len[pairs]
        ends = np.cumsum(lens)
        n_pairs = len(self._pair_g)
        self._offered = np.zeros((n_pairs, self.n))
        self._offered[np.repeat(pairs, lens), np.arange(ends[-1]) - np.repeat(ends - lens, lens)] = (
            np.fromiter(chain.from_iterable(pk.amounts for pk in packets), float, ends[-1]))
        self._size, self._psize = np.zeros(n_pairs), np.zeros(n_pairs)
        self._size[pairs] = [o[2] for o in offers]
        self._psize[pairs] = [pk.size for pk in packets]
        # each offered pair's rank among its junction's offered pairs
        on = np.zeros(n_pairs, bool)
        on[pairs] = True
        seen = np.cumsum(on)
        first = self._pair_first
        self._rank = np.where(on, seen - 1 - (seen[first] - on[first]), -1)
        demand[self._pair_batch] = self._size
        self.model.open_receipts()
        supply[self._sup_pos] = self.model.receipt_supply(self._sup_g)

    def deliver(self, t, flow: np.ndarray, cum_in, cum_out) -> int:
        """Deliver the offered pairs with the batch's `flow`, in rounds by
        rank; book into the `cum_in`/`cum_out` ledgers and return the number
        of deliveries. Nothing is committed if it fails."""
        n, model = self.n, self.model
        self._refresh_map(t)
        delta = flow[self._pair_batch]
        booked_out, booked_in = _Booking(self._n_places), _Booking(self._n_places)
        cuts = []
        for rank in range(self._rank.max() + 1):
            at = np.flatnonzero(self._rank == rank)
            h = self._h[at]
            caps = model.receipt_supply(h)
            allow = _row_sums(caps)
            d, size = delta[at], self._size[at]
            total = np.minimum(np.minimum(1.0, d / size) * size, allow)
            ok = (d > EPS) & (total > 0)
            at, h, caps, allow, total = at[ok], h[ok], caps[ok], allow[ok], total[ok]
            if not at.size:
                continue
            # the cut: booked out of the upstream link, kept for removal
            sent = self._offered[at] * np.minimum(1.0, total / self._psize[at])[:, None]
            cuts.append((at, sent))
            booked_out.add(self._out_places[at], sent)
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
            booked_in.add(self._in_places[at], routed)
            # spread over the road connection's lane groups by free space
            model.receive_round(h, routed[:, None, :] * caps[..., None] / allow[:, None, None])
        # commit
        model.commit_receipts()
        link, state = self._ls_link, self._ls_state
        for ledgers, booked in ((cum_out, booked_out), (cum_in, booked_in)):
            for x, v in zip(*booked.sums(lambda x: ledgers[link[x]].get(state[x], 0.0))):
                ledgers[link[x]][state[x]] = v
        self._cuts, self.items = cuts, []
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
