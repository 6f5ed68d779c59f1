"""Iterative junction flow allocation.

Scales simultaneous packet requests through multi-input/multi-output
junctions so that they fit the downstream supplies, with FIFO blocking:
an upstream lane group with any demanded-but-blocked exiting road
connection delivers nothing. This is the lane-group node model of Wright,
Gomes, Horowitz and Kurzhanskiy (TR-B 105, 2017), steps NM 0-6.

A junction is compiled once into integer-indexed tables (`Junction`), and
the junctions a network solves with the general model into one union of
them (`JunctionSet`). `solve` then runs NM 0-6 as numpy over every junction
of the union at once, each junction on its own: its own activity, iteration
bound and safety net. `solve_1x1` is the one-by-one-by-one case in closed
form.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

EPS = 1e-9
_FULL = 1.0 - 1e-15  # a road connection at psi_r >= this passes nothing


class NodeModelError(RuntimeError):
    """A node-model failure; `junction` is the id of the junction it
    happened at, where known."""

    def __init__(self, msg, junction=None):
        super().__init__(msg)
        self.junction = junction


class Junction:
    """Static tables of one junction. G, R and H (`upstream`, `rcs`,
    `downstream`) are its upstream lane groups, road connections and
    downstream lane groups, sorted; `pairs` lists every (g, r) with g in U_r
    in delivery order. Every (r, h) with h in D_r is an edge, numbered in
    the order of R and then of D_r. The tables, by index:

    - `g_pairs[g]`: (r, pair) for each road connection g feeds (D_g);
    - `r_edges[r]`: (edge, h, access fraction) for each h in D_r;
    - `h_edges[h]`: (r, edge) for each road connection into h (U_h).
    """

    __slots__ = ("id", "upstream", "rcs", "downstream", "pairs", "pair_index",
                 "g_pairs", "r_edges", "h_edges", "n_edges")

    def __init__(self, id, up_of_r: dict, down_of_r: dict, access: dict):
        """`up_of_r` and `down_of_r` map each road connection to its U_r and
        D_r; `access` maps each (r, h) with h in D_r to its fraction of h."""
        self.id = id
        self.rcs = R = tuple(sorted(up_of_r))
        self.upstream = tuple(sorted({g for r in R for g in up_of_r[r]}))
        self.downstream = tuple(sorted({h for r in R for h in down_of_r[r]}))
        self.pairs = tuple(sorted((g, r) for r in R for g in up_of_r[r]))
        self.pair_index = {p: i for i, p in enumerate(self.pairs)}
        g_of = {g: i for i, g in enumerate(self.upstream)}
        h_of = {h: i for i, h in enumerate(self.downstream)}
        g_pairs = [[] for _ in self.upstream]
        h_edges = [[] for _ in self.downstream]
        r_edges, e = [], 0
        for k, r in enumerate(R):
            if not up_of_r[r] or not down_of_r[r]:
                raise NodeModelError("junction %s: road connection %s needs an upstream "
                                     "and a downstream lane group" % (id, r), id)
            for g in sorted(up_of_r[r]):
                g_pairs[g_of[g]].append((k, self.pair_index[g, r]))
            edges = []
            for h in sorted(down_of_r[r]):
                lam = access[r, h]
                if not 0 < lam <= 1 + EPS:
                    raise NodeModelError("junction %s: access fraction %r out of (0,1] on "
                                         "(%s, %s)" % (id, lam, r, h), id)
                edges.append((e, h_of[h], lam))
                h_edges[h_of[h]].append((k, e))
                e += 1
            r_edges.append(tuple(edges))
        self.g_pairs = tuple(map(tuple, g_pairs))
        self.r_edges = tuple(r_edges)
        self.h_edges = tuple(map(tuple, h_edges))
        self.n_edges = e


class JunctionSet:
    """The union of some junctions (`junctions`, in the given order): their
    `upstream`, `rcs`, `downstream` and `pairs` concatenated, and index
    arrays over those. `pair_start[k]` and `down_start[k]` are where
    junction k's pairs and downstream groups begin (`place` maps a junction
    id to its k).

    Within a junction, each downstream group's edges are in the order of R,
    each road connection's pairs in the order of G, and each upstream
    group's pairs are consecutive; so a sum `np.bincount` takes over them in
    array order is the one the per-junction solver takes left to right."""

    __slots__ = ("junctions", "ids", "place", "upstream", "rcs", "downstream", "pairs",
                 "pair_start", "down_start", "pair_g", "pair_r", "g_first", "g_j",
                 "j_first_g", "edge_r", "edge_h", "edge_lam", "h_j", "max_iters")

    def __init__(self, junctions: list[Junction]):
        self.junctions = tuple(junctions)
        self.ids = tuple(j.id for j in junctions)
        self.place = {jid: k for k, jid in enumerate(self.ids)}
        self.upstream = tuple(g for j in junctions for g in j.upstream)
        self.rcs = tuple(r for j in junctions for r in j.rcs)
        self.downstream = tuple(h for j in junctions for h in j.downstream)
        self.pairs = tuple(p for j in junctions for p in j.pairs)
        pair_g, pair_r, g_first, g_j, j_first_g = [], [], [], [], []
        edge_r, edge_h, edge_lam, h_j = [], [], [], []
        self.pair_start, self.down_start = [], []
        n_g = n_r = n_h = 0
        for k, j in enumerate(junctions):
            self.pair_start.append(len(pair_g))
            self.down_start.append(n_h)
            j_first_g.append(n_g)
            # pairs are sorted by (g, r): each group's are consecutive
            at_g, at_r = [0] * len(j.pairs), [0] * len(j.pairs)
            for gi, entries in enumerate(j.g_pairs):
                g_first.append(len(pair_g) + entries[0][1])
                g_j.append(k)
                for r, p in entries:
                    at_g[p], at_r[p] = n_g + gi, n_r + r
            pair_g += at_g
            pair_r += at_r
            for r, edges in enumerate(j.r_edges):
                for _, h, lam in edges:
                    edge_r.append(n_r + r)
                    edge_h.append(n_h + h)
                    edge_lam.append(lam)
            h_j += [k] * len(j.downstream)
            n_g, n_r, n_h = n_g + len(j.upstream), n_r + len(j.rcs), n_h + len(j.downstream)
        intp = np.intp
        self.pair_g, self.pair_r = np.array(pair_g, intp), np.array(pair_r, intp)
        self.g_first, self.g_j = np.array(g_first, intp), np.array(g_j, intp)
        self.j_first_g = np.array(j_first_g, intp)
        self.edge_r, self.edge_h = np.array(edge_r, intp), np.array(edge_h, intp)
        self.edge_lam = np.array(edge_lam, float)
        self.h_j = np.array(h_j, intp)
        self.max_iters = np.array([max(1, len(j.upstream)) for j in junctions], intp)


class Flows(NamedTuple):
    flow: np.ndarray  # per pair: delivered veh
    flow_h: np.ndarray  # per downstream lane group: accepted veh
    iterations: int  # summed over the junctions


def _where_positive(x: np.ndarray) -> np.ndarray:
    """`max(0.0, x)` elementwise, as Python's `max` gives it."""
    return np.where(x > 0.0, x, 0.0)


def solve(jset: JunctionSet, demand, supply, closed) -> Flows:
    """Allocate `demand` (veh per pair of `jset.pairs`) within `supply` (veh
    per downstream lane group of `jset.downstream`); `closed` flags each
    road connection of `jset.rcs`. Every junction is solved on its own.

    Each junction gets the flows, bit for bit, of the per-junction list
    solver kept with the tests: every per-junction sum is an `np.bincount`
    over entries in that solver's order, from 0.0, with the terms it leaves
    out added as exactly 0.0, which cannot change a sum; a junction stops
    iterating when it has no sending group or when an iteration advances
    less than EPS."""
    d = np.array(demand, dtype=float)  # remaining demand
    s = np.array(supply, dtype=float)  # remaining supply
    closed = np.asarray(closed, dtype=bool)
    if d.size and d.min() < 0:
        p = int(np.argmax(d < 0))
        jid = jset.ids[jset.g_j[jset.pair_g[p]]]
        raise NodeModelError("junction %s: negative demand on (%s, %s)"
                             % ((jid,) + jset.pairs[p]), jid)
    if s.size and s.min() < 0:
        h = int(np.argmax(s < 0))
        jid = jset.ids[jset.h_j[h]]
        raise NodeModelError("junction %s: negative supply on %s"
                             % (jid, jset.downstream[h]), jid)
    pair_g, pair_r, g_first = jset.pair_g, jset.pair_r, jset.g_first
    edge_r, edge_h, lam = jset.edge_r, jset.edge_h, jset.edge_lam
    n_r, n_h, n_j = len(jset.rcs), len(jset.downstream), len(jset.ids)
    flow, flow_h = np.zeros(d.size), np.zeros(n_h)
    iters = np.zeros(n_j, np.intp)
    active = np.ones(n_j, bool)
    while True:
        # NM 0: a road connection is blocked when closed or when all its
        # downstream groups are full; an upstream group when it demands
        # nothing or any road connection it demands is blocked. Groups that
        # send sum their demand per road connection (NM 1): blocked groups
        # deliver nothing this iteration, so their retained demand exerts
        # no pressure on the downstream supplies.
        open_r = np.bincount(edge_r, weights=s[edge_h] > EPS, minlength=n_r) > 0
        blocked_r = closed | ~open_r
        demanded = d > EPS
        g_send = (np.logical_or.reduceat(demanded, g_first)
                  & ~np.logical_or.reduceat(demanded & blocked_r[pair_r], g_first)
                  & active[jset.g_j])
        # stopping criterion: every upstream lane group blocked or empty
        active &= np.logical_or.reduceat(g_send, jset.j_first_g)
        if not active.any():
            break
        over = active & (iters >= jset.max_iters)
        if over.any():
            k = int(np.argmax(over))
            raise NodeModelError("junction %s: node model failed to terminate within %d "
                                 "iterations" % (jset.ids[k], jset.max_iters[k]), jset.ids[k])
        iters += active
        send = g_send[pair_g]
        plus = send & demanded
        d_r = np.bincount(pair_r, weights=np.where(send, d, 0.0), minlength=n_r)

        # NM 1-2: apportionment mu per edge, demand per downstream group
        s_lam = lam * s[edge_h]
        s_r = np.bincount(edge_r, weights=s_lam, minlength=n_r)
        apportioned = ~closed & (s_r > 0)
        mu = np.where(apportioned[edge_r],
                      s_lam / np.where(apportioned, s_r, 1.0)[edge_r], 0.0)
        d_h = np.bincount(edge_h, weights=mu * d_r[edge_r], minlength=n_h)
        demanded_h = d_h > 0
        psi_h = np.where(demanded_h,
                         _where_positive(1.0 - s / np.where(demanded_h, d_h, 1.0)), 0.0)

        # NM 3: propagate the excess-demand factors to the road connections
        psi_r = np.where(blocked_r, 1.0,
                         np.bincount(edge_r, weights=mu * psi_h[edge_h], minlength=n_r))

        # NM 4-5: upstream reduction factors; advance and retain demand
        psi_g = np.maximum.reduceat(np.where(plus, psi_r[pair_r], 0.0), g_first)[pair_g]
        adv = np.where(plus, d * (1.0 - psi_g), 0.0)
        d = np.where(plus, psi_g * d, d)
        np.add(flow, adv, out=flow, where=plus)
        delta_r = np.bincount(pair_r, weights=adv, minlength=n_r)

        # NM 6: flow into each downstream lane group; reduce supplies
        psi_e = psi_r[edge_r]
        passing = psi_e < _FULL  # delta_r is zero for blocked connections
        term = ((1.0 - psi_h[edge_h]) / np.where(passing, 1.0 - psi_e, 1.0)
                * mu * delta_r[edge_r])
        delta_h = np.bincount(edge_h, weights=np.where(passing, term, 0.0), minlength=n_h)
        moving = active[jset.h_j]
        np.add(flow_h, delta_h, out=flow_h, where=moving)
        s = np.where(moving, _where_positive(s - delta_h), s)
        # numerical safety net beyond the |G| bound
        active &= ~(np.bincount(jset.h_j, weights=delta_h, minlength=n_j) < EPS)

    return Flows(flow, flow_h, int(iters.sum()))


def solve_1x1(demand: float, supply: float, closed: bool = False) -> float:
    """Flow through a junction with one upstream lane group, one road
    connection and one downstream lane group.

    This is NM 0-6's single iteration in closed form, with the same float
    operations in the same order, so it equals `solve(...).flow` bit for bit
    (wherever `solve` terminates). The access fraction cancels: the one
    apportionment is mu = lam*s / (lam*s) = 1.
    """
    if demand < 0:
        raise NodeModelError("negative demand %r" % demand)
    if supply < 0:
        raise NodeModelError("negative supply %r" % supply)
    if closed or not demand > EPS or supply <= EPS:
        return 0.0  # the group is empty or blocked
    return demand * (1.0 - max(0.0, 1.0 - supply / demand))
