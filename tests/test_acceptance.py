"""End-to-end acceptance checks for the hybrid simulator.

Each test prints exactly one PASS/FAIL summary line for its criterion.
"""

import filecmp

import numpy as np
import pytest
import yaml

from hybridtraffic.cli import main as cli_main
from hybridtraffic.engine import Engine
from hybridtraffic.scenario import load_scenario, parse_scenario

SCEN = "src/hybridtraffic/scenarios/%s.yaml"


def _report(num, ok, detail):
    print("ACCEPTANCE %d: %s (%s)" % (num, "PASS" if ok else "FAIL", detail))
    assert ok, detail


def _run_counts(sc, links, speeds=False, audit=False):
    eng = Engine(sc, audit=audit)
    hist = {l: [] for l in links}

    def obs(e, t):
        for l in links:
            m = e.model_of_link[l]
            gs = e.net.link_groups[l]
            n = sum(m.total_vehicles(g) for g in gs)
            if speeds:
                v = float(np.mean([m.mean_speed_kmh(g) for g in gs]))
                hist[l].append((t, n, v))
            else:
                hist[l].append((t, n))

    eng.run(observer=obs)
    return eng, hist


def _first_time(series, threshold):
    return next((row[0] for row in series if row[1] >= threshold), None)


def test_criterion_1_bottleneck_onset_and_spillback_through_queue_region():
    sc = load_scenario(SCEN % "macro_meso")
    eng, hist = _run_counts(sc, [2, 5], speeds=True)
    t_onset = _first_time(hist[5], 50.0)
    t_spill = _first_time(hist[2], 40.0)
    window = [(n, v) for t, n, v in hist[2] if 2100.0 <= t <= 2500.0]
    n_cong = float(np.mean([n for n, _ in window]))
    v_cong = float(np.mean([v for _, v in window]))
    ok = (
        t_onset is not None and 360.0 <= t_onset <= 440.0
        and t_spill is not None and 1487.5 <= t_spill <= 2012.5
        and abs(n_cong - 55.0) <= 0.05 * 55.0
        and abs(v_cong - 9.09) <= 0.05 * 9.09
    )
    _report(
        1, ok,
        "bottleneck full at %s s, spillback crosses region boundary at %s s, "
        "congested link holds %.1f veh at %.2f km/h" % (t_onset, t_spill, n_cong, v_cong),
    )


def test_criterion_2_congestion_wave_through_car_following_region():
    t_boundary, waves, queues = [], [], []
    for seed in range(10):
        sc = load_scenario(SCEN % "macro_micro")
        sc.run.seed = seed
        sc.run.duration = 1200.0
        eng, hist = _run_counts(sc, [3, 4])
        t4 = _first_time(hist[4], 30.0)
        t3 = _first_time(hist[3], 30.0)
        assert t3 is not None and t4 is not None and t3 > t4
        t_boundary.append(t3)
        waves.append(0.5 / ((t3 - t4) / 3600.0))
        queues.append(max(n for t, n in hist[4] if t >= t3))
    tb, wv, qd = map(lambda x: float(np.mean(x)), (t_boundary, waves, queues))
    ok = (
        432.0 <= tb <= 648.0
        and abs(wv - 8.4) <= 0.15 * 8.4
        and abs(qd - 34.0) <= 0.20 * 34.0
    )
    _report(
        2, ok,
        "congestion reaches the region boundary at %.0f s, wave speed %.2f km/h, "
        "queue density %.1f veh/500 m over 10 seeds" % (tb, wv, qd),
    )


def test_criterion_3_conservation_on_reference_and_random_networks():
    import sys

    sys.path.insert(0, "tests")
    from random_networks import random_scenario_dict

    failures = []
    for name in ("macro_meso", "macro_micro", "meso_micro", "micro_macro"):
        eng = Engine(load_scenario(SCEN % name), audit=True)
        eng.run()
        if eng.audit_failures:
            failures.append("%s: %d step audits" % (name, len(eng.audit_failures)))
        bal = eng.total_injected() - eng.total_exited() - eng.total_in_network()
        if abs(bal) > 1e-6:
            failures.append("%s: end balance %.3e" % (name, bal))
    rng = np.random.default_rng(2024)
    for k in range(100):
        eng = Engine(parse_scenario(random_scenario_dict(rng)), audit=True)
        eng.run()
        if eng.audit_failures:
            failures.append("random %d: %d step audits" % (k, len(eng.audit_failures)))
        bal = eng.total_injected() - eng.total_exited() - eng.total_in_network()
        if abs(bal) > 1e-6:
            failures.append("random %d: end balance %.3e" % (k, bal))
    _report(
        3, not failures,
        "4 reference runs + 100 random networks conserve per state per step"
        if not failures else "; ".join(failures[:5]),
    )


def test_criterion_4_junction_solver_terminates_conserves_and_matches_hand_cases():
    import sys

    sys.path.insert(0, "tests")
    from junction_fuzz import random_junction
    from reference_nodemodel import NodeProblem
    from reference_nodemodel import solve_compiled as solve
    from test_nodemodel import siso

    bad = []
    rng = np.random.default_rng(7)
    solved = 0
    while solved < 10**4:
        p = random_junction(rng)
        if p is None:
            continue
        sol = solve(p)
        solved += 1
        if sol.iterations > max(1, len(p.upstream)):
            bad.append("iterations %d > |G|=%d" % (sol.iterations, len(p.upstream)))
        if abs(sum(sol.flow_h.values()) - sum(sol.flow_gr.values())) > 1e-9:
            bad.append("conservation")
    # hand-derived cases, exact
    if solve(siso(10.0, 4.0)).flow_gr[("g", 0)] != pytest.approx(4.0, abs=1e-12):
        bad.append("bottleneck")
    merge = NodeProblem(
        upstream=["a", "b"], rcs=[0, 1], downstream=["h"],
        down_of_g={"a": [0], "b": [1]}, up_of_r={0: ["a"], 1: ["b"]},
        down_of_r={0: ["h"], 1: ["h"]}, up_of_h={"h": [0, 1]},
        demand={("a", 0): 6.0, ("b", 1): 6.0}, supply={"h": 6.0},
        access={(0, "h"): 1.0, (1, "h"): 1.0},
    )
    ms = solve(merge)
    if not (ms.flow_gr[("a", 0)] == pytest.approx(3.0, abs=1e-9)
            and ms.flow_gr[("b", 1)] == pytest.approx(3.0, abs=1e-9)):
        bad.append("symmetric merge")
    diverge = NodeProblem(
        upstream=["g"], rcs=[0, 1], downstream=["h0", "h1"],
        down_of_g={"g": [0, 1]}, up_of_r={0: ["g"], 1: ["g"]},
        down_of_r={0: ["h0"], 1: ["h1"]}, up_of_h={"h0": [0], "h1": [1]},
        demand={("g", 0): 4.0, ("g", 1): 4.0}, supply={"h0": 10.0, "h1": 0.0},
        access={(0, "h0"): 1.0, (1, "h1"): 1.0},
    )
    ds = solve(diverge)
    if ds.flow_gr[("g", 0)] != 0.0 or ds.flow_gr[("g", 1)] != 0.0:
        bad.append("blocked diverge")
    _report(
        4, not bad,
        "10^4 fuzzed junctions terminate within |G| iterations and conserve; "
        "hand cases exact" if not bad else "; ".join(sorted(set(bad))[:5]),
    )


def test_criterion_5_cell_model_through_engine_matches_reference_trace():
    import sys

    sys.path.insert(0, "tests")
    from conftest import corridor_scenario_dict

    dt = 2.0
    d = corridor_scenario_dict([("ctm", [0])], n_links=1, duration=1998.0,
                               output_dt=dt)
    d["demands"][0]["profile"] = {"start": 0.0, "period": 1200.0,
                                  "values": [1300.0, 0.0]}
    eng = Engine(parse_scenario(d))
    m = eng.model_of_link[0]
    gc = m.groups["0:1"]
    v, w = m.link_v[0], m.link_w[0]
    n_max, f_cap = gc.n_max, gc.f_cap

    n = np.zeros(5)
    buf = 0.0
    worst = 0.0
    steps = 0

    def obs(e, t):
        nonlocal n, buf, worst, steps
        # reference update replicating one engine step at time t
        rate = 1300.0 / 3600.0 * dt if t < 1200.0 else 0.0
        buf += rate
        inflow = min(buf, max(0.0, w * (n_max - n[0])))
        buf -= inflow
        out = min(v * n[-1], f_cap)
        flux = [max(0.0, min(v * n[i], f_cap, w * (n_max - n[i + 1]))) for i in range(4)]
        n2 = n.copy()
        n2[0] += inflow - flux[0]
        for i in range(1, 4):
            n2[i] += flux[i - 1] - flux[i]
        n2[4] += flux[3] - out
        n = n2
        got = np.array([gc.cell_total(i) for i in range(5)])
        worst = max(worst, float(np.max(np.abs(got - n))))
        steps += 1

    eng.run(observer=obs)
    ok = steps >= 1000 and worst <= 1e-9
    _report(
        5, ok,
        "engine-driven 5-cell trace within %.2e of the reference over %d steps"
        % (worst, steps),
    )


def test_criterion_6_car_following_recovers_triangular_flow_density_relation():
    import sys

    sys.path.insert(0, "tests")
    from test_newell import ring_flow, triangular_flow

    worst = 0.0
    details = []
    for rho in (4.0, 10.0, 30.0, 60.0, 90.0):
        q = ring_flow(rho, steps=600)
        expect = triangular_flow(rho)
        rel = abs(q - expect) / expect
        worst = max(worst, rel)
        details.append("%.0f:%.1f%%" % (rho, rel * 100))
    _report(
        6, worst <= 0.02,
        "noise-free ring flow within %.2f%% of the triangular relation "
        "(per density %s)" % (worst * 100, " ".join(details)),
    )


def test_criterion_7_queue_service_rate_and_minimum_dwell():
    import sys

    sys.path.insert(0, "tests")
    from test_twoqueue import _model, _vehs

    rng = np.random.default_rng(31)
    m = _model(lanes=1, dt=2.0)
    gq = m.groups["0:1"]
    mean = gq.service_rate * m.dt
    draws = 10**5
    total = 0
    next_id = 0
    for _ in range(draws):
        while len(gq.waiting) < 40:
            gq.waiting.extend(_vehs(10, start=next_id))
            next_id += 10
        reqs = m.compute_demands(1e9, rng)
        got = sum(len(r.sent) for r in reqs)
        total += got
        for r in reqs:
            m.remove(r.group_id, None, r.sent)
    sigma = float(np.sqrt(draws * mean))
    rate_ok = abs(total - draws * mean) < 3 * sigma

    # minimum dwell: no vehicle may be offered before one free-flow traversal
    m2 = _model(lanes=1, dt=2.0)
    tau = m2.groups["0:1"].tau
    entry = {}
    min_dwell = float("inf")
    vid = 0
    for k in range(400):
        t = k * 2.0
        if k % 3 == 0 and len(entry) < 200:
            vs = _vehs(1, start=vid)
            m2.receive_vehicles(0, vs, now=t)
            entry[vid] = t
            vid += 1
        for req in m2.compute_demands(t, rng):
            for vh in req.sent:
                min_dwell = min(min_dwell, t - entry[vh.id])
            m2.remove(req.group_id, None, req.sent)
        m2.advance_state(t, rng)
    dwell_ok = min_dwell >= tau - 1e-9
    _report(
        7, rate_ok and dwell_ok,
        "saturated throughput %.0f vs %.0f +-3sigma(%.0f) over 10^5 draws; "
        "minimum dwell %.1f s >= %.1f s" % (total, draws * mean, 3 * sigma, min_dwell, tau),
    )


def test_criterion_8_seeded_runs_and_inert_controllers_are_byte_identical(tmp_path):
    data = yaml.safe_load(open(SCEN % "macro_micro"))
    data["run"]["duration"] = 600.0
    base = tmp_path / "base.yaml"
    base.write_text(yaml.safe_dump(data))
    with_noop = dict(data)
    with_noop["controllers"] = [{"id": 0, "type": "noop", "dt": 3.0}]
    noop = tmp_path / "noop.yaml"
    noop.write_text(yaml.safe_dump(with_noop))

    dirs = [tmp_path / x for x in ("a", "b", "c")]
    for scen, out in zip((base, base, noop), dirs):
        assert cli_main(["run", str(scen), "--out-dir", str(out), "--seed", "5"]) == 0
    files = sorted(p.name for p in dirs[0].iterdir())
    same_seed = all(filecmp.cmp(dirs[0] / f, dirs[1] / f, shallow=False) for f in files)
    inert = all(filecmp.cmp(dirs[0] / f, dirs[2] / f, shallow=False) for f in files)
    _report(
        8, same_seed and inert,
        "same seed reproduces %s byte-for-byte; adding a no-op controller "
        "changes nothing (identical=%s/%s)" % (", ".join(files), same_seed, inert),
    )
