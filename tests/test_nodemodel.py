"""The compiled node model (`hybridtraffic.nodemodel`): hand cases and
fuzzed junctions through the adapter in `reference_nodemodel`, and bit-for-bit
agreement with the dict-based oracle kept there."""

import numpy as np
import pytest

from hybridtraffic import nodemodel
from hybridtraffic.nodemodel import EPS, NodeModelError, solve_1x1
from reference_nodemodel import NodeProblem, compile_problem
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


def test_closed_form_1x1_is_bitwise_solve_on_fuzzed_junctions():
    from junction_fuzz import random_siso

    rng = np.random.default_rng(7)
    moved = 0
    for _ in range(20000):
        p = random_siso(rng)
        expected = solve(p).flow_gr[("g", 0)]
        assert _flow_1x1(p).hex() == expected.hex(), p
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
    compared = 0
    for _ in range(3000):
        pair = random_junction_pair(rng)
        if pair is None:
            continue
        active, full = pair
        a, f = solve(active).flow_gr, solve(full).flow_gr
        assert {k: v.hex() for k, v in a.items()} == {k: f[k].hex() for k in a}
        compared += len(full.upstream) > len(active.upstream)
    assert compared > 300  # many draws had idle upstream groups


def _same_bits(problem):
    """The compiled solver's flows and iteration count are the oracle's, bit
    for bit: per (g, r) pair and per downstream lane group, with idle pairs
    at exactly 0.0."""
    want, got = reference_solve(problem), solve(problem)
    assert got.iterations == want.iterations
    assert {k: f.hex() for k, f in got.flow_gr.items()} == {
        k: want.flow_gr.get(k, 0.0).hex() for k in got.flow_gr}
    assert {h: f.hex() for h, f in got.flow_h.items()} == {
        h: f.hex() for h, f in want.flow_h.items()}


def test_compiled_solver_is_bitwise_the_oracle_on_hand_cases():
    for p in (siso(10.0, 4.0), siso(3.0, 10.0), closed_siso(), merge(6.0, 6.0, 6.0),
              merge(9.0, 3.0, 6.0), blocked_diverge()):
        _same_bits(p)


def test_compiled_solver_is_bitwise_the_oracle_on_fuzzed_junctions():
    from junction_fuzz import random_junction, random_junction_pair, random_siso

    rng = np.random.default_rng(3)
    drawn = closed = 0
    while drawn < 20000:
        p = random_junction(rng)
        if p is None:
            continue
        _same_bits(p)
        drawn += 1
        closed += bool(p.closed_rcs)
    assert closed > 2000  # closed road connections are well covered
    for _ in range(2000):
        _same_bits(random_siso(rng))
    for _ in range(2000):
        pair = random_junction_pair(rng)
        if pair is not None:
            _same_bits(pair[0])
            _same_bits(pair[1])


def test_compiled_solver_rejects_negative_demand_and_supply():
    junction = compile_problem(merge(1.0, 1.0, 1.0))
    with pytest.raises(NodeModelError, match=r"negative demand on \(b, 1\)"):
        nodemodel.solve(junction, [1.0, -1.0], [1.0], [False, False])
    with pytest.raises(NodeModelError, match="negative supply on h"):
        nodemodel.solve(junction, [1.0, 1.0], [-1.0], [False, False])


def test_junction_rejects_a_road_connection_without_lane_groups():
    with pytest.raises(NodeModelError, match="junction 4: road connection 0 needs"):
        nodemodel.Junction(4, {0: []}, {0: ["h"]}, {(0, "h"): 1.0})
    with pytest.raises(NodeModelError, match="junction 4: road connection 0 needs"):
        nodemodel.Junction(4, {0: ["g"]}, {0: []}, {})
