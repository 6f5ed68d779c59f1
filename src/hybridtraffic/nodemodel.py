"""Iterative junction flow allocation.

Scales simultaneous packet requests through a multi-input/multi-output
junction so that they fit the downstream supplies, with FIFO blocking:
an upstream lane group with any demanded-but-blocked exiting road
connection delivers nothing.

A junction is compiled once into integer-indexed tables (`Junction`); each
`solve` then works over flat lists indexed by those tables.
"""

from __future__ import annotations

from typing import NamedTuple

EPS = 1e-9


class NodeModelError(RuntimeError):
    pass


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
                                     "and a downstream lane group" % (id, r))
            for g in sorted(up_of_r[r]):
                g_pairs[g_of[g]].append((k, self.pair_index[g, r]))
            edges = []
            for h in sorted(down_of_r[r]):
                lam = access[r, h]
                if not 0 < lam <= 1 + EPS:
                    raise NodeModelError("junction %s: access fraction %r out of (0,1] on "
                                         "(%s, %s)" % (id, lam, r, h))
                edges.append((e, h_of[h], lam))
                h_edges[h_of[h]].append((k, e))
                e += 1
            r_edges.append(tuple(edges))
        self.g_pairs = tuple(map(tuple, g_pairs))
        self.r_edges = tuple(r_edges)
        self.h_edges = tuple(map(tuple, h_edges))
        self.n_edges = e


class Flows(NamedTuple):
    flow: list  # per pair: delivered veh
    flow_h: list  # per downstream lane group: accepted veh
    iterations: int


def solve(junction: Junction, demand: list, supply: list, closed: list) -> Flows:
    """Allocate `demand` (veh per pair of `junction.pairs`) within `supply`
    (veh per downstream lane group); `closed` flags each road connection.

    Steps NM 0-6 below take the same float operations in the same order as
    the readable dict-based solver kept with the tests; every sum runs left
    to right from 0.0, leaving out only terms that are exactly 0.0 (closed
    road connections, blocked groups), which cannot change it."""
    if min(demand) < 0:
        raise NodeModelError("negative demand on (%s, %s)"
                             % junction.pairs[demand.index(min(demand))])
    if min(supply) < 0:
        raise NodeModelError("negative supply on %s"
                             % junction.downstream[supply.index(min(supply))])
    g_pairs, r_edges, h_edges = junction.g_pairs, junction.r_edges, junction.h_edges
    n_r = len(r_edges)
    d = list(demand)  # mutated: remaining demand
    s = list(supply)  # mutated: remaining supply
    flow, flow_h = [0.0] * len(d), [0.0] * len(s)

    max_iters = max(1, len(g_pairs))
    work_iters = 0
    while True:
        # NM 0: a road connection is blocked when closed or when all its
        # downstream groups are full; an upstream group when it demands
        # nothing or any road connection it demands is blocked. Groups that
        # send sum their demand per road connection (NM 1) on the way:
        # blocked groups deliver nothing this iteration, so their retained
        # demand exerts no pressure on the downstream supplies.
        blocked_r = list(closed)
        for k, edges in enumerate(r_edges):
            if not blocked_r[k]:
                for _, h, _ in edges:
                    if s[h] > EPS:
                        break
                else:
                    blocked_r[k] = True
        d_r = [0.0] * n_r
        sending = []  # the demanded (r, pair) entries of each group that sends
        for entries in g_pairs:
            plus = []
            for k, p in entries:
                if d[p] > EPS:
                    if blocked_r[k]:
                        break
                    plus.append((k, p))
            else:
                if plus:
                    sending.append(plus)
                    for k, p in entries:
                        d_r[k] += d[p]

        # stopping criterion: every upstream lane group blocked or empty
        if not sending:
            break
        if work_iters >= max_iters:
            raise NodeModelError(
                "node model failed to terminate within %d iterations" % max_iters
            )
        work_iters += 1

        # NM 1-2: apportionment mu per edge, demand per downstream group
        mu, d_h = [0.0] * junction.n_edges, [0.0] * len(s)
        for k, edges in enumerate(r_edges):
            if closed[k]:
                continue
            s_r = 0.0
            for _, h, lam in edges:
                s_r += lam * s[h]
            if s_r <= 0:
                continue
            for e, h, lam in edges:
                mu[e] = m = lam * s[h] / s_r
                d_h[h] += m * d_r[k]
        psi_h = [max(0.0, 1.0 - x / y) if y > 0 else 0.0 for x, y in zip(s, d_h)]

        # NM 3: propagate the excess-demand factors to the road connections
        psi_r = [1.0] * n_r
        for k, edges in enumerate(r_edges):
            if not blocked_r[k]:
                x = 0.0
                for e, h, _ in edges:
                    x += mu[e] * psi_h[h]
                psi_r[k] = x

        # NM 4-5: upstream reduction factors; advance and retain demand
        delta_r = [0.0] * n_r
        for plus in sending:
            psi_g = 0.0  # the max over its demanded rcs; every psi_r >= 0
            for k, _ in plus:
                if psi_r[k] > psi_g:
                    psi_g = psi_r[k]
            for k, p in plus:
                adv = d[p] * (1.0 - psi_g)
                d[p] = psi_g * d[p]
                flow[p] += adv
                delta_r[k] += adv

        # NM 6: flow into each downstream lane group; reduce supplies
        total_advance = 0.0
        for h, entries in enumerate(h_edges):
            delta_h = 0.0
            for k, e in entries:
                if psi_r[k] >= 1.0 - 1e-15:
                    continue  # delta_r is zero for blocked connections
                delta_h += (1.0 - psi_h[h]) / (1.0 - psi_r[k]) * mu[e] * delta_r[k]
            flow_h[h] += delta_h
            s[h] = max(0.0, s[h] - delta_h)
            total_advance += delta_h
        if total_advance < EPS:
            break  # numerical safety net beyond the |G| bound

    return Flows(flow, flow_h, work_iters)


def solve_1x1(demand: float, supply: float, closed: bool = False) -> float:
    """Flow through a junction with one upstream lane group, one road
    connection and one downstream lane group.

    This is `solve`'s single iteration in closed form, with the same float
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
