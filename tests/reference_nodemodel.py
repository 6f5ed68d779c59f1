"""The node model's test oracles, and adapters that pose a problem to the
solver in `hybridtraffic.nodemodel`.

Two oracles. `NodeProblem`, `NodeSolution` and `solve` state the node model
plainly, over dicts keyed by lane group and road connection ids.
`solve_list` is the per-junction solver over one compiled `Junction`'s
flat lists; it takes the same float operations in the same order as the
dict solver, and the batched `nodemodel.solve` takes them again for every
junction of a `JunctionSet`, so all three agree bit for bit
(`tests/test_nodemodel.py`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from hybridtraffic import nodemodel
from hybridtraffic.nodemodel import EPS, NodeModelError


@dataclass
class NodeProblem:
    """Working description of one junction's simultaneous requests.

    g: upstream lane group ids, r: road connection ids, h: downstream lane
    group ids. `demand` is per (g, r) in vehicles; `supply` per h in
    vehicles; `access` holds the per-(r, h) accessible fraction of h.
    """

    upstream: list  # G
    rcs: list  # R
    downstream: list  # H
    down_of_g: dict  # g -> list of r          (D_g)
    up_of_r: dict  # r -> list of g            (U_r)
    down_of_r: dict  # r -> list of h          (D_r)
    up_of_h: dict  # h -> list of r            (U_h)
    demand: dict  # (g, r) -> veh
    supply: dict  # h -> veh
    access: dict  # (r, h) -> fraction in (0, 1]
    closed_rcs: set = field(default_factory=set)

    def validate(self):
        for (g, r), d in self.demand.items():
            if d < 0:
                raise NodeModelError("negative demand on (%s, %s)" % (g, r))
        for h, s in self.supply.items():
            if s < 0:
                raise NodeModelError("negative supply on %s" % h)
        for (r, h), lam in self.access.items():
            if not (0 < lam <= 1 + EPS):
                raise NodeModelError("access fraction out of (0,1] on (%s, %s)" % (r, h))
        for g in self.upstream:
            for r in self.down_of_g[g]:
                if g not in self.up_of_r[r]:
                    raise NodeModelError("inconsistent adjacency at (%s, %s)" % (g, r))


@dataclass
class NodeSolution:
    flow_gr: dict  # (g, r) -> delivered veh
    flow_r: dict  # r -> delivered veh
    flow_h: dict  # h -> accepted veh
    iterations: int = 0


def solve(problem: NodeProblem) -> NodeSolution:
    problem.validate()
    G, R, H = problem.upstream, problem.rcs, problem.downstream
    d = dict(problem.demand)  # mutated: remaining demand
    s = dict(problem.supply)  # mutated: remaining supply
    lam = problem.access

    sol = NodeSolution(
        flow_gr={k: 0.0 for k in d},
        flow_r={r: 0.0 for r in R},
        flow_h={h: 0.0 for h in H},
    )

    max_iters = max(1, len(G))
    work_iters = 0
    while True:
        # NM 0: demanded road connections and blocked flags
        d_plus = {
            g: [r for r in problem.down_of_g[g] if d.get((g, r), 0.0) > EPS]
            for g in G
        }
        blocked_h = {h: s[h] <= EPS for h in H}
        blocked_r = {
            r: (r in problem.closed_rcs)
            or all(blocked_h[h] for h in problem.down_of_r[r])
            for r in R
        }
        blocked_g = {
            g: (not d_plus[g]) or any(blocked_r[r] for r in d_plus[g]) for g in G
        }

        # stopping criterion: every upstream lane group blocked or empty
        if all(blocked_g[g] for g in G):
            break
        if work_iters >= max_iters:
            raise NodeModelError(
                "node model failed to terminate within %d iterations" % max_iters
            )
        work_iters += 1

        # NM 1: demands and supplies per road connection, apportionment mu.
        # Blocked upstream groups deliver nothing this iteration, so their
        # retained demand exerts no pressure on the downstream supplies
        # (otherwise unblocked competitors would be throttled forever and
        # the |G| termination bound would not hold).
        d_r = {
            r: sum(
                d.get((g, r), 0.0)
                for g in problem.up_of_r[r]
                if not blocked_g[g]
            )
            for r in R
        }
        s_r = {
            r: sum(lam[(r, h)] * s[h] for h in problem.down_of_r[r]) for r in R
        }
        mu = {}
        for r in R:
            for h in problem.down_of_r[r]:
                mu[(r, h)] = 0.0 if s_r[r] <= 0 else lam[(r, h)] * s[h] / s_r[r]
        for r in problem.closed_rcs:
            for h in problem.down_of_r[r]:
                mu[(r, h)] = 0.0

        # NM 2: demand and excess-demand factor per downstream lane group
        d_h = {
            h: sum(mu[(r, h)] * d_r[r] for r in problem.up_of_h[h]) for h in H
        }
        psi_h = {
            h: (max(0.0, 1.0 - s[h] / d_h[h]) if d_h[h] > 0 else 0.0) for h in H
        }

        # NM 3: propagate the excess-demand factors to the road connections
        psi_r = {}
        for r in R:
            if blocked_r[r]:
                psi_r[r] = 1.0
            else:
                psi_r[r] = sum(mu[(r, h)] * psi_h[h] for h in problem.down_of_r[r])

        # NM 4: upstream reduction factors; advance and retain demand
        delta_gr = {}
        for g in G:
            psi_g = 1.0 if blocked_g[g] else max(psi_r[r] for r in d_plus[g])
            for r in d_plus[g]:
                adv = d[(g, r)] * (1.0 - psi_g)
                delta_gr[(g, r)] = adv
                d[(g, r)] = psi_g * d[(g, r)]
                sol.flow_gr[(g, r)] += adv

        # NM 5: advancing flow per road connection
        delta_r = {
            r: sum(delta_gr.get((g, r), 0.0) for g in problem.up_of_r[r]) for r in R
        }
        for r in R:
            sol.flow_r[r] += delta_r[r]

        # NM 6: flow into each downstream lane group; reduce supplies
        total_advance = 0.0
        for h in H:
            delta_h = 0.0
            for r in problem.up_of_h[h]:
                if psi_r[r] >= 1.0 - 1e-15:
                    continue  # delta_r is zero for blocked connections
                delta_h += (1.0 - psi_h[h]) / (1.0 - psi_r[r]) * mu[(r, h)] * delta_r[r]
            sol.flow_h[h] += delta_h
            s[h] = max(0.0, s[h] - delta_h)
            total_advance += delta_h
        if total_advance < EPS:
            break  # numerical safety net beyond the |G| bound

    sol.iterations = work_iters
    return sol


# --- the per-junction list solver --------------------------------------------


def solve_list(junction: nodemodel.Junction, demand: list, supply: list,
               closed: list) -> nodemodel.Flows:
    """Allocate `demand` (veh per pair of `junction.pairs`) within `supply`
    (veh per downstream lane group); `closed` flags each road connection.

    Steps NM 0-6 take the same float operations in the same order as the
    dict solver above; every sum runs left to right from 0.0, leaving out
    only terms that are exactly 0.0 (closed road connections, blocked
    groups), which cannot change it."""
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
        # send sum their demand per road connection (NM 1) on the way.
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

    return nodemodel.Flows(flow, flow_h, work_iters)


def solve_each(jset: nodemodel.JunctionSet, demand, supply, closed) -> nodemodel.Flows:
    """`nodemodel.solve`'s problem solved junction by junction with
    `solve_list`; the flows are concatenated as numpy arrays, the iterations
    summed."""
    flow, flow_h, iterations = [], [], 0
    demand, supply, closed = list(demand), list(supply), list(closed)
    r0 = 0
    for k, j in enumerate(jset.junctions):
        p0, h0 = jset.pair_start[k], jset.down_start[k]
        try:
            got = solve_list(j, demand[p0:p0 + len(j.pairs)],
                             supply[h0:h0 + len(j.downstream)],
                             closed[r0:r0 + len(j.rcs)])
        except NodeModelError as exc:
            raise NodeModelError("junction %s: %s" % (j.id, exc), j.id) from exc
        r0 += len(j.rcs)
        flow += got.flow
        flow_h += got.flow_h
        iterations += got.iterations
    return nodemodel.Flows(np.array(flow), np.array(flow_h), iterations)


# --- adapters to the compiled solvers ----------------------------------------


def compile_problem(problem: NodeProblem, id=0) -> nodemodel.Junction:
    """The problem's junction compiled as the engine compiles it."""
    junction = nodemodel.Junction(id, problem.up_of_r, problem.down_of_r, problem.access)
    assert junction.upstream == tuple(problem.upstream)
    assert junction.rcs == tuple(problem.rcs)
    assert junction.downstream == tuple(problem.downstream)
    return junction


def _posed(junction: nodemodel.Junction, problem: NodeProblem):
    """(demand, supply, closed) of `problem` over the junction's tables."""
    return ([problem.demand.get(p, 0.0) for p in junction.pairs],
            [problem.supply[h] for h in junction.downstream],
            [r in problem.closed_rcs for r in junction.rcs])


def _solution(junction: nodemodel.Junction, flow, flow_h, iterations) -> NodeSolution:
    """A flow for every (g, r) pair of the junction (idle pairs too) and, per
    road connection, the sum of its pairs' flows."""
    flow_r = dict.fromkeys(junction.rcs, 0.0)
    for (g, r), f in zip(junction.pairs, flow):
        flow_r[r] += f
    return NodeSolution(
        flow_gr=dict(zip(junction.pairs, flow)),
        flow_r=flow_r,
        flow_h=dict(zip(junction.downstream, flow_h)),
        iterations=iterations,
    )


def solve_all(problems: list) -> tuple[list, int]:
    """The problems solved at once by the batched solver over their union:
    a `NodeSolution` per problem (its `iterations` left at 0) and the
    iterations of the whole batch."""
    jset, demand, supply, closed = union(problems)
    flows = nodemodel.solve(jset, demand, supply, closed)
    flow, flow_h = flows.flow.tolist(), flows.flow_h.tolist()
    return [_solution(j, flow[p0:p0 + len(j.pairs)], flow_h[h0:h0 + len(j.downstream)], 0)
            for j, p0, h0 in zip(jset.junctions, jset.pair_start, jset.down_start)
            ], flows.iterations


def solve_compiled(problem: NodeProblem, solver=None) -> NodeSolution:
    """`problem` solved by the batched solver as a one-junction set, or by
    `solver(junction, demand, supply, closed)` (e.g. `solve_list`), as a
    `NodeSolution`."""
    if solver is None:
        (sol,), sol.iterations = solve_all([problem])
        return sol
    junction = compile_problem(problem)
    return _solution(junction, *solver(junction, *_posed(junction, problem)))


def union(problems: list) -> tuple:
    """The problems as one `JunctionSet` with junction ids 0, 1, ...: (the
    set, demand, supply, closed) in its concatenated order."""
    jset = nodemodel.JunctionSet([compile_problem(p, k) for k, p in enumerate(problems)])
    demand, supply, closed = [], [], []
    for j, p in zip(jset.junctions, problems):
        d, s, c = _posed(j, p)
        demand += d
        supply += s
        closed += c
    return jset, demand, supply, closed
