"""The readable dict-based node model, kept as the oracle for the compiled
solver in `hybridtraffic.nodemodel`, and a small adapter that poses one of
its problems to that solver.

`NodeProblem`, `NodeSolution` and `solve` state the node model plainly, over
dicts keyed by lane group and road connection ids. The compiled `solve` takes
the same float operations in the same order, so the two agree bit for bit
(`tests/test_nodemodel.py`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


# --- adapter to the compiled solver -----------------------------------------


def compile_problem(problem: NodeProblem) -> nodemodel.Junction:
    """The problem's junction compiled as the engine compiles it."""
    junction = nodemodel.Junction(0, problem.up_of_r, problem.down_of_r, problem.access)
    assert junction.upstream == tuple(problem.upstream)
    assert junction.rcs == tuple(problem.rcs)
    assert junction.downstream == tuple(problem.downstream)
    return junction


def solve_compiled(problem: NodeProblem) -> NodeSolution:
    """`problem` solved by the compiled solver, as a `NodeSolution`: a flow for
    every (g, r) pair of the junction (idle pairs too) and, per road
    connection, the sum of its pairs' flows."""
    junction = compile_problem(problem)
    flows = nodemodel.solve(
        junction,
        [problem.demand.get(p, 0.0) for p in junction.pairs],
        [problem.supply[h] for h in junction.downstream],
        [r in problem.closed_rcs for r in junction.rcs],
    )
    flow_r = dict.fromkeys(junction.rcs, 0.0)
    for (g, r), f in zip(junction.pairs, flows.flow):
        flow_r[r] += f
    return NodeSolution(
        flow_gr=dict(zip(junction.pairs, flows.flow)),
        flow_r=flow_r,
        flow_h=dict(zip(junction.downstream, flows.flow_h)),
        iterations=flows.iterations,
    )
