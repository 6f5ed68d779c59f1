"""Random junction problems with realistic structure, shared by the node
model unit tests and the acceptance suite."""

import numpy as np

from hybridtraffic.network import (
    Link,
    Network,
    RoadConnection,
    RoadParams,
    validate_network,
)
from hybridtraffic.nodemodel import EPS
from reference_nodemodel import NodeProblem

_P = RoadParams(1000.0, 100.0, 100.0)


def _fragment(rng: np.random.Generator):
    """A random lane-level network fragment (n_up upstream links feeding n_dn
    downstream links) and its upstream links; None when degenerate."""
    n_up = int(rng.integers(1, 4))
    n_dn = int(rng.integers(1, 4))
    links = [
        Link(id=i, length=500.0, full_lanes=int(rng.integers(1, 4)), params=_P)
        for i in range(n_up + n_dn)
    ]
    ups, dns = links[:n_up], links[n_up:]
    rcs = []
    rid = 0
    for u in ups:
        targets = [d for d in dns if rng.random() < 0.7]
        if not targets:
            targets = [dns[int(rng.integers(0, n_dn))]]
        for d in targets:
            ul, dl = u.lanes, d.lanes
            a = int(rng.integers(0, len(ul)))
            b = int(rng.integers(a, len(ul)))
            c = int(rng.integers(0, len(dl)))
            e = int(rng.integers(c, len(dl)))
            rcs.append(
                RoadConnection(
                    rid, u.id, frozenset(ul[a : b + 1]), d.id, frozenset(dl[c : e + 1])
                )
            )
            rid += 1
    try:
        net = Network.build(links, rcs)
    except Exception:
        return None
    if validate_network(net):
        return None
    return net, ups


def random_junction(rng: np.random.Generator) -> NodeProblem | None:
    """One junction drawn from a random lane-level network fragment, with
    random demands and supplies; None when the draw is degenerate."""
    fragment = _fragment(rng)
    if fragment is None:
        return None
    net, ups = fragment
    demand, down_of_g, up_of_r = {}, {}, {}
    down_of_r, up_of_h, supply, access = {}, {}, {}, {}
    for u in ups:
        for gid in net.link_groups[u.id]:
            g = net.lane_groups[gid]
            for r in g.exiting_rcs:
                if rng.random() < 0.85:
                    demand[(gid, r)] = float(rng.uniform(0.0, 10.0))
                    down_of_g.setdefault(gid, []).append(r)
                    up_of_r.setdefault(r, []).append(gid)
    if not demand:
        return None
    for r in sorted(up_of_r):
        down_of_r[r] = list(net.rc_down_groups[r])
        for h in down_of_r[r]:
            access[(r, h)] = net.lane_access_fraction(r, h)
            up_of_h.setdefault(h, []).append(r)
            if h not in supply:
                supply[h] = float(rng.uniform(0.0, 12.0)) if rng.random() < 0.8 else 0.0
    closed = {r for r in up_of_r if rng.random() < 0.1}
    return NodeProblem(
        upstream=sorted(down_of_g),
        rcs=sorted(up_of_r),
        downstream=sorted(up_of_h),
        down_of_g={k: sorted(v) for k, v in down_of_g.items()},
        up_of_r={k: sorted(v) for k, v in up_of_r.items()},
        down_of_r={k: sorted(v) for k, v in down_of_r.items()},
        up_of_h={k: sorted(v) for k, v in up_of_h.items()},
        demand=demand,
        supply=supply,
        access=access,
        closed_rcs=closed,
    )


def _problem(net, pairs, demand, supply, closed) -> NodeProblem:
    """The junction over (g, r) `pairs` with sorted adjacency; `demand`,
    `supply` and `closed` are cut down to it."""
    down_of_g, up_of_r, up_of_h = {}, {}, {}
    for g, r in sorted(pairs, key=lambda k: (k[1], k[0])):
        down_of_g.setdefault(g, []).append(r)
        up_of_r.setdefault(r, []).append(g)
    down_of_r = {r: list(net.rc_down_groups[r]) for r in sorted(up_of_r)}
    for r, hs in down_of_r.items():
        for h in hs:
            up_of_h.setdefault(h, []).append(r)
    return NodeProblem(
        upstream=sorted(down_of_g),
        rcs=sorted(up_of_r),
        downstream=sorted(up_of_h),
        down_of_g=down_of_g,
        up_of_r=up_of_r,
        down_of_r=down_of_r,
        up_of_h=up_of_h,
        demand={k: d for k, d in demand.items() if k in pairs},
        supply={h: supply[h] for h in up_of_h},
        access={(r, h): net.lane_access_fraction(r, h)
                for r, hs in down_of_r.items() for h in hs},
        closed_rcs={r for r in closed if r in up_of_r},
    )


def random_junction_pair(rng: np.random.Generator):
    """One random junction twice: over the (g, r) pairs that carry demand
    this step, and over every pair of the fragment with the idle ones left
    without demand, as a simulation engine may compile it once. None when
    the draw is degenerate."""
    fragment = _fragment(rng)
    if fragment is None:
        return None
    net, _ups = fragment
    everything = [(g, r) for r in net.road_connections for g in net.rc_up_groups[r]]
    demand = {
        k: float(rng.uniform(0.0, 10.0)) for k in everything if rng.random() < 0.6
    }
    if not demand:
        return None
    supply = {
        h: float(rng.uniform(0.0, 12.0)) if rng.random() < 0.8 else 0.0
        for h in sorted(net.lane_groups)
    }
    closed = {r for r in net.road_connections if rng.random() < 0.1}
    return (_problem(net, set(demand), demand, supply, closed),
            _problem(net, set(everything), demand, supply, closed))


def random_siso(rng: np.random.Generator) -> NodeProblem:
    """A junction with one upstream lane group, one road connection and one
    downstream lane group. Demand and supply are drawn over several scales
    and hit the solver's thresholds (0, EPS, each other) on purpose."""

    def amount(other: float | None) -> float:
        pick = rng.random()
        if pick < 0.05:
            return 0.0
        if pick < 0.10:
            return EPS * float(rng.choice([0.5, 1.0, 1.0 + 1e-12, 2.0]))
        if pick < 0.20 and other is not None:
            return other * float(rng.choice([1.0, 1.0 - 1e-15, 1.0 + 1e-15]))
        return float(10.0 ** rng.uniform(-8.0, 3.0))

    d = amount(None)
    s = amount(d)
    lanes = int(rng.integers(1, 5))
    lam = int(rng.integers(1, lanes + 1)) / lanes
    return NodeProblem(
        upstream=["g"], rcs=[0], downstream=["h"],
        down_of_g={"g": [0]}, up_of_r={0: ["g"]},
        down_of_r={0: ["h"]}, up_of_h={"h": [0]},
        demand={("g", 0): d}, supply={"h": s}, access={(0, "h"): lam},
        closed_rcs={0} if rng.random() < 0.1 else set(),
    )
