"""The batched node model (`hybridtraffic.nodemodel`): hand cases and fuzzed
junctions through the adapter in `reference_nodemodel`, and bit-for-bit
agreement with the two oracles kept there: the dict solver, junction by
junction, and the per-junction list solver, on unions of junctions."""

import numpy as np
import pytest

from hybridtraffic import nodemodel
from hybridtraffic.nodemodel import EPS, NodeModelError, solve_1x1
from reference_nodemodel import NodeProblem, solve_all, solve_each, solve_list, union
from reference_nodemodel import solve as reference_solve
from reference_nodemodel import solve_compiled as solve


def siso(d=10.0, s=4.0):
    return NodeProblem(
        upstream=["g"], rcs=[0], downstream=["h"],
        down_of_g={"g": [0]}, up_of_r={0: ["g"]},
        down_of_r={0: ["h"]}, up_of_h={"h": [0]},
        demand={("g", 0): d}, supply={"h": s},
        access={(0, "h"): 1.0},
    )


def test_siso_bottleneck_exact():
    sol = solve(siso(10.0, 4.0))
    assert sol.flow_gr[("g", 0)] == pytest.approx(4.0, abs=1e-12)


def test_siso_unconstrained():
    sol = solve(siso(3.0, 10.0))
    assert sol.flow_gr[("g", 0)] == pytest.approx(3.0, abs=1e-12)


def merge(d_a, d_b, s):
    return NodeProblem(
        upstream=["a", "b"], rcs=[0, 1], downstream=["h"],
        down_of_g={"a": [0], "b": [1]},
        up_of_r={0: ["a"], 1: ["b"]},
        down_of_r={0: ["h"], 1: ["h"]},
        up_of_h={"h": [0, 1]},
        demand={("a", 0): d_a, ("b", 1): d_b},
        supply={"h": s},
        access={(0, "h"): 1.0, (1, "h"): 1.0},
    )


def blocked_diverge():
    # one sending group, two exits; the blocked exit freezes the whole group
    return NodeProblem(
        upstream=["g"], rcs=[0, 1], downstream=["h0", "h1"],
        down_of_g={"g": [0, 1]},
        up_of_r={0: ["g"], 1: ["g"]},
        down_of_r={0: ["h0"], 1: ["h1"]},
        up_of_h={"h0": [0], "h1": [1]},
        demand={("g", 0): 4.0, ("g", 1): 4.0},
        supply={"h0": 10.0, "h1": 0.0},
        access={(0, "h0"): 1.0, (1, "h1"): 1.0},
    )


def closed_siso():
    p = siso(10.0, 4.0)
    p.closed_rcs = {0}
    return p


def test_symmetric_merge_shares_supply():
    sol = solve(merge(6.0, 6.0, 6.0))
    assert sol.flow_gr[("a", 0)] == pytest.approx(3.0, abs=1e-9)
    assert sol.flow_gr[("b", 1)] == pytest.approx(3.0, abs=1e-9)


def test_fifo_blocked_diverge_stops_everything():
    sol = solve(blocked_diverge())
    assert sol.flow_gr[("g", 0)] == pytest.approx(0.0, abs=1e-12)
    assert sol.flow_gr[("g", 1)] == pytest.approx(0.0, abs=1e-12)


def test_closed_rc_blocks_like_zero_supply():
    sol = solve(closed_siso())
    assert sol.flow_gr[("g", 0)] == pytest.approx(0.0, abs=1e-12)


def test_asymmetric_merge_apportioned_by_demand():
    # staggered merge: demands 9 and 3 into supply 6; both constrained
    # proportionally via the iterative apportionment
    sol = solve(merge(9.0, 3.0, 6.0))
    total = sol.flow_gr[("a", 0)] + sol.flow_gr[("b", 1)]
    assert total == pytest.approx(6.0, abs=1e-9)
    # demand-proportional split: 4.5 and 1.5
    assert sol.flow_gr[("a", 0)] == pytest.approx(4.5, abs=1e-9)
    assert sol.flow_gr[("b", 1)] == pytest.approx(1.5, abs=1e-9)


@pytest.mark.parametrize("seed", range(5))
def test_fuzzed_problems_terminate_and_conserve(seed):
    from junction_fuzz import random_junction

    rng = np.random.default_rng(seed)
    for _ in range(500):
        p = random_junction(rng)
        if p is None:
            continue
        sol = solve(p)
        assert sol.iterations <= max(1, len(p.upstream))
        for key, d in p.demand.items():
            f = sol.flow_gr.get(key, 0.0)
            assert -1e-9 <= f <= d + 1e-9
        # inflow at each receiver never exceeds its supply
        for h in p.downstream:
            assert sol.flow_h[h] <= p.supply[h] + 1e-6
        # conservation: total sent equals total received
        assert sum(sol.flow_h.values()) == pytest.approx(
            sum(sol.flow_gr.values()), abs=1e-9
        )
        # nothing moves through a closed road connection
        for r in p.closed_rcs:
            assert sol.flow_r[r] == pytest.approx(0.0, abs=1e-12)


def _flow_1x1(p):
    return solve_1x1(p.demand[("g", 0)], p.supply["h"], 0 in p.closed_rcs)


def _lone_pair(p, rng):
    """`p`, a 1x1x1 junction, as the one demanded pair (g, 0) of a larger
    junction: g also feeds an idle rc 2 into k, and an idle group a feeds
    rc 1 into h and k."""
    return NodeProblem(
        upstream=["a", "g"], rcs=[0, 1, 2], downstream=["h", "k"],
        down_of_g={"a": [1], "g": [0, 2]},
        up_of_r={0: ["g"], 1: ["a"], 2: ["g"]},
        down_of_r={0: ["h"], 1: ["h", "k"], 2: ["k"]},
        up_of_h={"h": [0, 1], "k": [1, 2]},
        demand=dict(p.demand),
        supply={"h": p.supply["h"], "k": float(rng.uniform(0.0, 12.0))},
        access={(0, "h"): p.access[(0, "h")], (1, "h"): 0.5, (1, "k"): 0.5, (2, "k"): 1.0},
        closed_rcs=p.closed_rcs | {r for r in (1, 2) if rng.random() < 0.2},
    )


def test_closed_form_1x1_is_bitwise_solve_on_fuzzed_junctions():
    # each draw alone, and as the one demanded pair of a larger junction
    # beside idle pairs, rcs and downstream groups, as an engine batches a
    # junction with one offered pair through an rc with one downstream
    # lane group
    from junction_fuzz import random_siso

    rng = np.random.default_rng(7)
    problems = [random_siso(rng) for _ in range(20000)]
    lone = [_lone_pair(p, rng) for p in problems]
    moved = 0
    for p, sol, among in zip(problems, solve_all(problems)[0], solve_all(lone)[0]):
        expected = sol.flow_gr[("g", 0)]
        assert _flow_1x1(p).hex() == expected.hex() == among.flow_gr[("g", 0)].hex(), p
        moved += expected > EPS
    assert moved > 10000  # most draws do move flow


@pytest.mark.parametrize("d, s, closed", [
    (10.0, 4.0, True),  # closed road connection
    (10.0, 0.0, False),  # zero supply
    (EPS, 5.0, False),  # demand at EPS
    (EPS / 2, 5.0, False),  # demand below EPS
    (3.7, 3.7, False),  # supply equal to demand
    (0.3, 1e6, False),  # supply far above demand
    (1e6, 0.3, False),  # demand far above supply
], ids=["closed", "zero-supply", "demand-eps", "demand-below-eps",
        "supply-eq-demand", "supply-gg-demand", "demand-gg-supply"])
def test_closed_form_1x1_hand_cases(d, s, closed):
    p = siso(d, s)
    p.closed_rcs = {0} if closed else set()
    expected = solve(p).flow_gr[("g", 0)]
    assert _flow_1x1(p).hex() == expected.hex()
    # 1 - s/d loses digits when d >> s, hence the relative tolerance
    assert expected == pytest.approx(0.0 if closed or d <= EPS else min(d, s),
                                     rel=1e-9, abs=0.0)


def test_closed_form_1x1_rejects_negative_demand_and_supply():
    with pytest.raises(NodeModelError, match="negative demand"):
        solve_1x1(-1.0, 5.0)
    with pytest.raises(NodeModelError, match="negative supply"):
        solve_1x1(5.0, -1.0)


def test_idle_pairs_leave_the_solution_bitwise_unchanged():
    # an engine compiles each junction once and poses every (g, r) pair of
    # it, idle ones without demand; flows must be those of the sub-problem
    # of the pairs that carry demand, bit for bit
    from junction_fuzz import random_junction_pair

    rng = np.random.default_rng(11)
    pairs = [p for p in (random_junction_pair(rng) for _ in range(3000)) if p is not None]
    actives, fulls = solve_all([a for a, _ in pairs])[0], solve_all([f for _, f in pairs])[0]
    for a, f in zip(actives, fulls):
        a, f = a.flow_gr, f.flow_gr
        assert {k: v.hex() for k, v in a.items()} == {k: f[k].hex() for k in a}
    # many draws had idle upstream groups
    assert sum(len(f.upstream) > len(a.upstream) for a, f in pairs) > 300


def _same_bits(problems):
    """Solved junction by junction, by the list solver, and all at once, by
    the batched solver, the problems get the dict oracle's flows, bit for
    bit: per (g, r) pair and per downstream lane group, with idle pairs at
    exactly 0.0. The list solver's iteration counts are the oracle's, and
    the batch's is their sum."""
    batch, iterations = solve_all(problems)
    for p, batched in zip(problems, batch):
        want = reference_solve(p)
        iterations -= want.iterations
        listed = solve(p, solve_list)
        assert listed.iterations == want.iterations
        for got in (listed, batched):
            assert {k: f.hex() for k, f in got.flow_gr.items()} == {
                k: want.flow_gr.get(k, 0.0).hex() for k in got.flow_gr}
            assert {h: f.hex() for h, f in got.flow_h.items()} == {
                h: f.hex() for h, f in want.flow_h.items()}
    assert iterations == 0


def eps_net_merge():
    # a huge demand beside a tiny one into a tiny supply: psi rounds to 1,
    # the first iteration advances nothing, and only the EPS net stops it
    return merge(1e9, 2e-9, 2e-9)


HAND_CASES = (siso(10.0, 4.0), siso(3.0, 10.0), closed_siso(), merge(6.0, 6.0, 6.0),
              merge(9.0, 3.0, 6.0), blocked_diverge(), eps_net_merge())


def test_compiled_solver_is_bitwise_the_oracle_on_hand_cases():
    for p in HAND_CASES:
        _same_bits([p])
    _same_bits(list(HAND_CASES))
    sol = solve(eps_net_merge())
    assert sol.iterations == 1 and sum(sol.flow_gr.values()) == 0.0


def test_compiled_solver_is_bitwise_the_oracle_on_fuzzed_junctions():
    from junction_fuzz import random_junction, random_junction_pair, random_siso

    rng = np.random.default_rng(3)
    problems = []
    while len(problems) < 20000:
        p = random_junction(rng)
        if p is not None:
            problems.append(p)
    assert sum(bool(p.closed_rcs) for p in problems) > 2000  # closed rcs well covered
    problems += [random_siso(rng) for _ in range(2000)]
    for _ in range(2000):
        pair = random_junction_pair(rng)
        if pair is not None:
            problems += pair
    for i in range(0, len(problems), 1000):  # unions of 1000 junctions
        _same_bits(problems[i:i + 1000])


def test_compiled_solver_rejects_negative_demand_and_supply():
    jset, demand, supply, closed = union([siso(), merge(1.0, 1.0, 1.0)])
    assert jset.ids == (0, 1)
    with pytest.raises(NodeModelError, match=r"junction 1: negative demand on \(b, 1\)"):
        nodemodel.solve(jset, demand[:2] + [-1.0], supply, closed)
    with pytest.raises(NodeModelError, match="junction 1: negative supply on h") as info:
        nodemodel.solve(jset, demand, supply[:1] + [-1.0], closed)
    assert info.value.junction == 1


def _fuzzed_problems(rng, size):
    """`size` junctions drawn by `random_junction`, `random_junction_pair`
    (both of a pair, idle pairs and all) and `random_siso`."""
    from junction_fuzz import random_junction, random_junction_pair, random_siso

    problems = []
    while len(problems) < size:
        pick = rng.random()
        if pick < 0.6:
            p = random_junction(rng)
            problems += [p] if p is not None else []
        elif pick < 0.8:
            pair = random_junction_pair(rng)
            problems += list(pair) if pair is not None else []
        else:
            problems.append(random_siso(rng))
    return problems[:size]


def _bits(flows):
    return ([x.hex() for x in flows.flow.tolist()],
            [x.hex() for x in flows.flow_h.tolist()], flows.iterations)


def test_batch_is_bitwise_the_list_oracle_on_unions_of_fuzzed_junctions():
    rng = np.random.default_rng(17)
    several = 0  # unions in which some junction needs more than one iteration
    for size in [1, 2, 5, 20, 200] * 40:
        problems = _fuzzed_problems(rng, size)
        jset, demand, supply, closed = union(problems)
        got = nodemodel.solve(jset, demand, supply, closed)
        assert isinstance(got.iterations, int)
        assert _bits(got) == _bits(solve_each(jset, demand, supply, closed))
        several += max(reference_solve(p).iterations for p in problems) > 1
    assert several > 50


def test_batch_keeps_the_eps_net_of_each_junction():
    # the net stops its own junction only: the others of the union iterate on
    jset, demand, supply, closed = union(
        [merge(9.0, 3.0, 6.0), eps_net_merge(), blocked_diverge(), siso(10.0, 4.0)])
    got = nodemodel.solve(jset, demand, supply, closed)
    assert _bits(got) == _bits(solve_each(jset, demand, supply, closed))
    assert got.flow.tolist()[2:4] == [0.0, 0.0]
    assert got.flow.tolist()[:2] == pytest.approx([4.5, 1.5], abs=1e-9)


def test_a_junction_over_its_iteration_bound_is_named():
    from junction_fuzz import random_junction

    rng = np.random.default_rng(5)
    while True:  # a junction that needs two iterations
        p = random_junction(rng)
        if p is not None and reference_solve(p).iterations == 2:
            break
    jset, demand, supply, closed = union([siso(), p, merge(6.0, 6.0, 6.0)])
    jset.max_iters[1] = 1
    with pytest.raises(NodeModelError, match="junction 1: node model failed to "
                       "terminate within 1 iterations") as info:
        nodemodel.solve(jset, demand, supply, closed)
    assert info.value.junction == 1


def test_junction_rejects_a_road_connection_without_lane_groups():
    with pytest.raises(NodeModelError, match="junction 4: road connection 0 needs"):
        nodemodel.Junction(4, {0: []}, {0: ["h"]}, {(0, "h"): 1.0})
    with pytest.raises(NodeModelError, match="junction 4: road connection 0 needs"):
        nodemodel.Junction(4, {0: ["g"]}, {0: []}, {})
