import csv
import re

import numpy as np
import pytest

from conftest import by_state, corridor_scenario_dict
from hybridtraffic.demand import RoutingError
from hybridtraffic.engine import Engine, _Connection
from hybridtraffic.outputs import OutputWriter, _f
from hybridtraffic.packets import FluxPacket, StateIndex, Vehicle, by_slot, fluid_packet
from hybridtraffic.scenario import parse_scenario, validate_scenario

PAIRINGS = [
    [("ctm", [0, 1]), ("two_queue", [2, 3])],
    [("ctm", [0, 1]), ("newell", [2, 3])],
    [("two_queue", [0, 1]), ("newell", [2, 3])],
    [("newell", [0, 1]), ("ctm", [2, 3])],
    [("two_queue", [0, 1]), ("ctm", [2, 3])],
    [("newell", [0, 1]), ("two_queue", [2, 3])],
]


def _merge_dict(**kw):
    """A 3-link CTM corridor with a merge into link 2 from a new link 3: rc 1
    (1->2) and the new rc 5 share link 2's upstream end, so they form one
    junction."""
    d = corridor_scenario_dict([("ctm", [0, 1, 2])], n_links=3, **kw)
    d["links"].append({"id": 3, "length": 500.0, "lanes": 1, "capacity": 1000.0,
                       "speed": 100.0, "jam_density": 100.0})
    d["road_connections"].append(
        {"id": 5, "up_link": 3, "up_lanes": [1], "down_link": 2, "down_lanes": [1]}
    )
    d["models"][0]["links"] = [0, 1, 2, 3]
    return d


def _two_route_merge(**kw):
    """`_merge_dict` with route 1 (3 -> 2) beside route 0 (0 -> 1 -> 2),
    each with its own source; link 3 is as long as links 0 and 1 together,
    so both of the merge's rcs first send in the same step."""
    d = _merge_dict(**kw)
    d["routes"].append({"id": 1, "links": [3, 2]})
    d["demands"].append(dict(d["demands"][0], link=3, route=1))
    d["links"][3]["length"] = 1000.0
    return d


def _run(blocks, duration=400.0, audit=True, **kw):
    d = corridor_scenario_dict(blocks, n_links=4, duration=duration, **kw)
    eng = Engine(parse_scenario(d), audit=audit)
    eng.run()
    return eng


@pytest.mark.parametrize("blocks", PAIRINGS, ids=lambda b: "%s-%s" % (b[0][0], b[1][0]))
def test_hybrid_corridor_conserves_and_flows(blocks):
    eng = _run(blocks)
    assert eng.audit_failures == []
    inj, out, stored = eng.total_injected(), eng.total_exited(), eng.total_in_network()
    assert inj == pytest.approx(out + stored, abs=1e-6)
    assert out > 0  # vehicles made it through all four links


def test_vehicle_counts_are_integers_in_vehicle_models():
    eng = _run([("two_queue", [0, 1]), ("newell", [2, 3])])
    for l in eng.net.links:
        for n in eng.model_of_link[l].state_counts(l):
            assert n == int(n)
    assert eng.total_exited() == int(eng.total_exited())


def test_junction_grouping_unifies_shared_ends():
    d = _merge_dict()
    eng = Engine(parse_scenario(d))
    assert eng._rc[1].junction == eng._rc[5].junction
    assert eng._rc[0].junction != eng._rc[1].junction
    merge = eng._junctions[eng._rc[1].junction]
    assert merge.rcs == (1, 5) and merge.downstream == ("2:1",)
    assert merge.upstream == ("1:1", "3:1") and merge.pairs == (("1:1", 1), ("3:1", 5))
    # by index: each upstream group feeds its own rc, both rcs reach lane group 0
    assert merge.g_pairs == (((0, 0),), ((1, 1),))
    assert merge.r_edges == (((0, 0, 1.0),), ((1, 0, 1.0),))
    assert merge.h_edges == (((0, 0), (1, 1)),)
    assert eng._junctions[eng._rc[0].junction].rcs == (0,)


def test_access_fraction_outside_unit_interval_fails_at_build(monkeypatch):
    from hybridtraffic.network import Network
    from hybridtraffic.nodemodel import NodeModelError

    sc = parse_scenario(_merge_dict())
    fraction = Network.lane_access_fraction
    for lam in (0.0, 1.5):
        monkeypatch.setattr(Network, "lane_access_fraction", lambda net, r, h, lam=lam: (
            lam if r == 5 else fraction(net, r, h)))
        with pytest.raises(NodeModelError, match=r"junction 1: access fraction %r out "
                           r"of \(0,1\] on \(5, 2:1\)" % lam):
            Engine(sc)


def test_sensors_fire_in_id_order():
    d = corridor_scenario_dict([("ctm", [0, 1, 2, 3])], duration=1.0)
    d["sensors"] = [
        {"id": i, "kind": "lane_group", "dt": 10.0, "lane_group": "0:1"} for i in (2, 0, 1)
    ]
    eng = Engine(parse_scenario(d))
    fired = []
    for s in eng.sensors:
        s.read = lambda e, t, sid=s.id: fired.append(sid)
    eng.run()
    assert fired == [0, 1, 2]


def test_clocks_of_mixed_periods_fire_in_phase_order():
    d = corridor_scenario_dict([("ctm", [0, 1, 2, 3])], duration=30.0, output_dt=7.0)
    d["sensors"] = [{"id": 0, "kind": "lane_group", "dt": 3.0, "lane_group": "0:1"}]
    d["controllers"] = [{"id": 0, "type": "noop", "dt": 2.0}]
    d["actuators"] = [{"id": 0, "kind": "vsl", "dt": 5.0, "link": 0}]
    eng = Engine(parse_scenario(d))  # the model's dt is 2 s
    fired = []
    eng.sensors[0].read = lambda e, t: fired.append((t, "sensor"))
    eng.controllers[0].step = lambda e, t: fired.append((t, "controller"))
    eng.actuators[0].flush = lambda e, t: fired.append((t, "actuator"))
    model = eng.models[0]
    advance = model.advance_state
    model.advance_state = lambda t, rng: (fired.append((t, "model")), advance(t, rng))
    eng.run(observer=lambda e, t: fired.append((t, "output")))
    periods = [("sensor", 3), ("controller", 2), ("actuator", 5), ("model", 2), ("output", 7)]
    assert fired == [
        (float(t), phase) for t in range(31) for phase, p in periods if t % p == 0
    ]


def test_same_seed_reproduces_history():
    def trace(seed):
        d = corridor_scenario_dict(
            [("newell", [0, 1], {"sigma_v": 2.0, "sigma_f": 0.05}),
             ("ctm", [2, 3])],
            n_links=4, duration=300.0, seed=seed,
        )
        eng = Engine(parse_scenario(d))
        hist = []
        eng.run(observer=lambda e, t: hist.append(
            (t, e.total_in_network(), e.total_exited())
        ))
        return hist

    assert trace(11) == trace(11)
    assert trace(11) != trace(12)


def _probe_run(routing):
    """A probe on vehicle 0 of a Newell -> CTM corridor whose one vehicle type
    is `routing`: the sensor's history, and each active tracker's (vehicle,
    link, position) at every output time."""
    d = corridor_scenario_dict(
        [("newell", [0, 1]), ("ctm", [2, 3, 4])], n_links=5, duration=600.0,
        rate_vph=600.0,
    )
    if routing == "probabilistic":
        d["vehicle_types"] = [{"id": 0, "routing": "probabilistic"}]
        d["routes"] = []
        del d["demands"][0]["route"]
    d["sensors"] = [{"id": 0, "kind": "probe", "dt": 2.0, "vehicle": 0}]
    eng = Engine(parse_scenario(d))
    seen_on_fluid = []

    def obs(e, t):
        for tr in e.trackers:
            if tr.active:
                seen_on_fluid.append((tr.vehicle_id, tr.link, tr.position))

    eng.run(observer=obs)
    return eng.sensors[0].history, seen_on_fluid


def test_probe_tracker_crosses_into_fluid_link():
    # vehicles dissolve at the micro->macro boundary; a probe keeps reporting
    history, seen_on_fluid = _probe_run("routed")
    assert seen_on_fluid, "probe never tracked through the fluid region"
    links = {l for _, l, _ in seen_on_fluid}
    assert links <= {2, 3, 4}
    reported = [m["link"] for m in history if m["active"]]
    assert list(dict.fromkeys(reported)) == [0, 1, 2, 3, 4]
    # it leaves the network past link 4
    assert not history[-1]["active"]
    # position advances monotonically within a link
    per_link = {}
    for vid, l, x in seen_on_fluid:
        per_link.setdefault(l, []).append(x)
    for xs in per_link.values():
        assert all(b >= a for a, b in zip(xs, xs[1:]))


def test_a_probabilistic_probe_tracker_follows_the_routed_ones_path():
    # a probabilistic state is keyed by its next link, so a tracker that kept
    # its state on entering a fluid link "moved" into that link again for
    # ever, stuck on link 3; re-keyed as the fluid is, on a corridor with no
    # diverge it reports exactly what the routed probe does
    assert _probe_run("probabilistic") == _probe_run("routed")


def test_translator_residue_counted_in_link_states():
    # fluid crossing into a vehicle link leaves a fractional residue at the
    # boundary; link_state_counts must include it so the audit stays closed
    eng = _run([("ctm", [0, 1]), ("newell", [2, 3])], duration=200.0)
    assert eng.audit_failures == []
    res = sum(r for res in eng.translator.residues.values() for r in res)
    assert 0.0 <= res < 2.0  # strictly fractional per state


def test_audit_names_a_negative_occupancy_and_a_residue_outside_the_unit_interval():
    # an empty corridor stays audit-clean until a negative CTM occupancy and
    # a translator residue of 1.5 are injected after the step at t=10
    d = corridor_scenario_dict([("ctm", [0, 1]), ("newell", [2, 3])], n_links=4,
                               rate_vph=0.0, duration=20.0)
    eng = Engine(parse_scenario(d), audit=True)
    s = StateIndex(0, 0)

    def inject(e, t):
        if t == 10.0:
            e.model_of_link[1].set_occupancy("1:1", -1, {s: -0.5})
            res = e.translator.residues.setdefault(2, [0.0] * len(e.routing.tables[2]))
            res[e.routing.slots[2][s]] = 1.5

    # the CTM's demand step divides by the cell total floored at a tiny
    # positive value, which overflows for the negative cell
    with pytest.warns(RuntimeWarning, match="overflow encountered"):
        eng.run(observer=inject)
    assert eng.audit_failures[0].startswith("t=12.000")
    assert "t=12.000 lane group 1:1 cell 4 state %s: occupancy -0.5" % (s,) in eng.audit_failures
    assert ("t=12.000 link=2 state=%s residue=1.5 outside [0, 1)" % (s,)
            in eng.audit_failures)


def test_source_blocked_by_full_link():
    d = corridor_scenario_dict(
        [("two_queue", [0, 1])], n_links=2, duration=1200.0, rate_vph=3000.0,
        last_lanes=1,
    )
    # choke the exit by closing the boundary rc for the whole run
    d["actuators"] = [{"id": 0, "kind": "rc_block", "dt": 2.0, "rc": 0}]
    d["controllers"] = [{
        "id": 0, "type": "constant", "dt": 2.0, "actuators": [0],
        "params": {"at": 0.0, "commands": {0: {"open": False}}},
    }]
    eng = Engine(parse_scenario(d), audit=True)
    eng.run()
    assert eng.audit_failures == []
    n0 = sum(eng.link_state_counts(0))
    assert n0 == pytest.approx(50.0)  # storage cap of link 0
    # the source keeps the surplus buffered instead of overfilling
    assert eng.total_injected() == pytest.approx(50.0)


@pytest.mark.parametrize("seed", range(10))
def test_random_networks_conserve(seed):
    from random_networks import random_scenario_dict

    rng = np.random.default_rng(1000 + seed)
    d = random_scenario_dict(rng)
    sc = parse_scenario(d)
    assert validate_scenario(sc) == []
    eng = Engine(sc, audit=True)
    eng.run()
    assert eng.audit_failures == []
    bal = eng.total_injected() - eng.total_exited() - eng.total_in_network()
    assert abs(bal) < 1e-6


def _peak_jam_share(dt_up):
    """Densest cell of the downstream CTM, as a share of jam, sampled every
    second on a 2 -> 1-lane CTM corridor at 1900 veh/h whose upstream CTM
    (links 0-1) runs at `dt_up` and downstream CTM (links 2-3) at 2 s."""
    cells = {"max_cell_length": 100.0}
    d = corridor_scenario_dict(
        [("ctm", [0, 1], {"dt": dt_up, **cells}), ("ctm", [2, 3], {"dt": 2.0, **cells})],
        n_links=4, lanes=2, last_lanes=1, rate_vph=1900.0, duration=1200.0, output_dt=1.0,
    )
    eng = Engine(parse_scenario(d), audit=True)
    groups = eng.model_of_link[2].groups.values()
    peak = []
    eng.run(observer=lambda e, t: peak.append(max(
        g.cell_total(i) / g.n_max for g in groups for i in range(g.count))))
    assert eng.audit_failures == []
    return max(peak)


def test_a_faster_sender_fills_a_ctm_no_denser_than_equal_clocks():
    # the receiving CTM admits w (N - n) per cell once per its own step, not
    # once per sender step: the bottleneck queue is as dense as at equal clocks
    equal = _peak_jam_share(2.0)
    assert equal == pytest.approx(0.55, abs=1e-3)
    for dt_up in (1.0, 0.5):
        assert _peak_jam_share(dt_up) == pytest.approx(equal, rel=0.005)


def test_one_by_one_junctions_skip_the_general_solver(monkeypatch):
    from hybridtraffic import nodemodel

    calls = []
    solve = nodemodel.solve
    monkeypatch.setattr(nodemodel, "solve", lambda j, demand, supply, closed: (
        calls.append((j, demand)) or solve(j, demand, supply, closed)))
    eng = _run([("ctm", [0, 1]), ("two_queue", [2, 3])], duration=200.0)
    assert eng.total_exited() > 0 and calls == []
    d = _merge_dict(duration=200.0)
    d["routes"].append({"id": 1, "links": [3, 2]})
    d["demands"].append(dict(d["demands"][0], link=3, route=1))
    Engine(parse_scenario(d)).run()
    # the merge, whenever one of its inputs sends
    assert calls and all(j.rcs == (1, 5) and len(demand) == 2 for j, demand in calls)


def test_the_batch_holds_every_general_junction_and_no_1x1x1_one():
    d = _merge_dict()
    d["routes"].append({"id": 1, "links": [3, 2]})
    eng = Engine(parse_scenario(d))
    jset = eng._jset
    assert jset.ids == (1,) and jset.rcs == (1, 5) and jset.downstream == ("2:1",)
    assert jset.upstream == ("1:1", "3:1") and jset.pairs == (("1:1", 1), ("3:1", 5))
    assert all(len(j.pairs) == 1 for jid, j in eng._junctions.items() if jid != 1)


def _mixed_grid(seed: int) -> dict:
    # CTM, a two_queue column and two Newell columns, a signal at every merge
    import os
    import sys

    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench"))
    from gridgen import GridSpec, grid_scenario

    spec = GridSpec(rows=6, cols=6, blocks=(("ctm", 0, 5), ("two_queue", 2, 2),
                                            ("newell", 4, 5)),
                    signal_share=1.0, length_range=(60.0, 100.0), duration=300.0, dt=2.0)
    return grid_scenario(spec, seed)


def _outputs(d, out_dir):
    eng =Engine(parse_scenario(d), audit=True)
    with OutputWriter(str(out_dir)) as writer:
        eng.run(observer=lambda e, t: writer.write(e, t))
    return eng, {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


@pytest.mark.parametrize("seed", [1, 2])
def test_the_batch_gives_the_outputs_of_a_per_junction_oracle_loop(
        seed, tmp_path, monkeypatch):
    from hybridtraffic import nodemodel
    from reference_nodemodel import solve_each

    d = _mixed_grid(seed)
    batched, want = _outputs(d, tmp_path / "batched")
    monkeypatch.setattr(nodemodel, "solve", solve_each)
    each, got = _outputs(d, tmp_path / "each")
    assert batched.stats.junctions_batched > 100
    assert batched.stats.nodemodel_iterations > 0
    assert each.stats == batched.stats
    assert batched.audit_failures == each.audit_failures == []
    assert got == want


@pytest.mark.parametrize("reverse", [False, True], ids=["ascending", "reversed"])
@pytest.mark.parametrize("grid", ["mixed-1", "mixed-2", "macro"])
def test_a_supply_reads_the_same_until_its_lane_group_is_entered(grid, reverse):
    # what lets a junction pass read its supplies whenever it likes: within
    # one pass, no delivery elsewhere and no removal moves a lane group's
    # supply before something enters that group. With the junctions in
    # reverse order most lane groups send before their own junction
    # delivers; grid_macro's layout adds one-cell CTM lane groups, whose
    # removals change the cell their supply is read from
    from dataclasses import replace

    from test_junction_order import reverse_junction_order
    from gridgen import grid_scenario
    from harness import GRIDS

    d = (grid_scenario(replace(GRIDS["grid_macro"], rows=4), 1) if grid == "macro"
         else _mixed_grid(int(grid[-1])))
    eng = Engine(parse_scenario(reverse_junction_order(d) if reverse else d))
    seen, entered = {}, set()  # this pass: first supply read, groups entered
    rereads = []

    def check(h, value):
        if h in seen and h not in entered:
            assert float(value).hex() == float(seen[h]).hex(), (eng.now, h, seen[h], value)
            rereads.append(h)
        seen.setdefault(h, value)

    def reading(supply):
        def read(h):
            value = supply(h)
            check(h, value)
            return value
        return read

    # the array junctions read and fill their lane groups (model indices,
    # the one past the last standing for none) as array steps of their
    # model; a lane group is entered by a non-zero part
    def array_reading(supply, ids):
        def read(hs):
            values = supply(hs)
            for h, value in zip(np.ravel(hs).tolist(), np.ravel(values).tolist()):
                if h < len(ids):
                    check(ids[h], value)
            return values
        return read

    def array_entering(receive, ids):
        def fill(hs, part):
            rows = part.reshape(np.size(hs), -1)
            entered.update(ids[h] for h, row in zip(np.ravel(hs).tolist(), rows) if row.any())
            return receive(hs, part)
        return fill

    arrays = eng._arrays
    assert arrays
    for a in arrays:
        m = a.model
        m.receipt_supply = array_reading(m.receipt_supply, m.group_ids)
        m.receive_round = array_entering(m.receive_round, m.group_ids)

    def entering_fluid(receive):
        def enter(h, part, t):
            entered.add(h)
            return receive(h, part, t)
        return enter

    def entering_vehicles(receive):
        def enter(link, vehicles, t):
            entered.update(eng.net.link_groups[link])
            return receive(link, vehicles, t)
        return enter

    for m in eng.models:
        m.lane_group_supply = reading(m.lane_group_supply)
        m.receive_fluid = entering_fluid(m.receive_fluid)
        m.receive_vehicles = entering_vehicles(m.receive_vehicles)
    solve_junctions = eng._solve_junctions

    def one_pass(t, offers):
        seen.clear()
        entered.clear()
        solve_junctions(t, offers)

    eng._solve_junctions = one_pass
    eng.run()
    assert eng.stats.junctions_batched > 100 and eng.stats.array_deliveries > 0
    # a batched junction reads its supplies to plan and again to deliver
    assert len(rereads) > 1000


def test_cli_summary_reports_the_junction_steps_and_iterations(tmp_path, capsys, monkeypatch):
    from hybridtraffic import cli
    from hybridtraffic.scenario import save_scenario

    engines = []

    def kept(*args, **kwargs):
        engines.append(Engine(*args, **kwargs))
        return engines[-1]

    monkeypatch.setattr(cli, "Engine", kept)
    path = str(tmp_path / "grid.yaml")
    save_scenario(parse_scenario(_mixed_grid(1)), path)
    assert cli.main(["run", path, "--duration", "100", "--out-dir",
                     str(tmp_path / "out")]) == 0
    stats = engines[0].stats
    assert stats.junctions_1x1 > 0 and stats.junctions_batched > 0 and stats.deliveries > 0
    assert 0 < stats.array_deliveries < stats.deliveries
    line = capsys.readouterr().out.strip().splitlines()[-1]
    assert ("(junction steps: %d in closed form, %d in the node-model batch, %d "
            "node-model iterations, %d deliveries, %d of them as array steps): "
            % (stats.junctions_1x1, stats.junctions_batched, stats.nodemodel_iterations,
               stats.deliveries, stats.array_deliveries)) in line


def test_a_batch_failure_names_the_junction_the_solver_reports(monkeypatch):
    from hybridtraffic import nodemodel
    from hybridtraffic.engine import SimulationError

    def failing(jset, demand, supply, closed):
        raise nodemodel.NodeModelError("junction %s: no way through" % jset.ids[0],
                                       jset.ids[0])

    monkeypatch.setattr(nodemodel, "solve", failing)
    d = _merge_dict(duration=200.0)
    d["routes"].append({"id": 1, "links": [3, 2]})
    d["demands"].append(dict(d["demands"][0], link=3, route=1))
    with pytest.raises(SimulationError) as info:
        Engine(parse_scenario(d)).run()
    assert info.value.element == "junction 1" and "no way through" in str(info.value)


@pytest.mark.parametrize("fault", ["sizing", "closed_form_delivery", "batched_delivery",
                                   "closed_form_removal", "batched_removal"])
def test_junction_failure_names_junction_rc_and_lane_group(fault):
    # one wrapper names the element however the junction is solved, and a
    # cut taken out of its sender after the pass names where it was made.
    # The merge lies within one CTM model, so in the batch it is an array
    # junction, whose failing step names the pair
    from hybridtraffic.engine import SimulationError

    batched = fault.startswith("batched")
    if batched:
        d = _two_route_merge(duration=200.0)
    else:
        d = corridor_scenario_dict([("ctm", [0, 1]), ("newell", [2, 3])], n_links=4)
    eng = Engine(parse_scenario(d))
    assert (1 in eng._array_junctions) == batched
    array = eng._array_junctions.get(1)

    def both_offered():
        return array._size.all()

    receiver = eng.model_of_link[2]
    if fault == "sizing":
        # a stub receiver on link 2 whose packet size is negative
        receiver.get_packet_size = lambda packet, rc: -1.0
    elif fault == "closed_form_delivery":
        receiver.receive_vehicles = _fails
    elif fault == "closed_form_removal":
        # link 1's lane group fails to let go of what rc 1 took
        sender = eng.model_of_link[1]
        remove = sender.remove
        sender.remove = lambda g, rc, p: _fails() if rc == 1 else remove(g, rc, p)
    elif fault == "batched_removal":
        # once both rcs send, link 1's lane group has emptied its last cell
        # when the array step takes out what rc 1 took from it
        sender, remove_cuts = eng.model_of_link[1], eng._remove_cuts

        def overdrawn():
            if both_offered():
                sender._occ[sender._last_rows[sender.groups["1:1"].index]] = 0.0
            remove_cuts()

        eng._remove_cuts = overdrawn
    else:
        # only the merge enters link 2, and once both of its rcs send its
        # re-keying into link 2 fails
        row = eng.routing._row
        eng.routing._row = lambda s, link, now: (
            _fails() if link == 2 and both_offered() else row(s, link, now))
    with pytest.raises(SimulationError) as info:
        eng.run()
    err = info.value
    assert err.element == "junction 1, rc 1, lane group 1:1"
    assert err.time is not None and err.time > 0
    problem = {"sizing": "negative packet size",
               "batched_removal": "outflow exceeds occupancy"}.get(fault, "stub failure")
    assert problem in str(err) and "element=junction 1" in str(err)
    assert eng.stats.junctions_batched == batched


@pytest.mark.parametrize("step", ["delivery", "removal"])
def test_an_array_step_failure_tied_to_no_pair_names_the_model(step):
    from hybridtraffic.engine import SimulationError

    d = _merge_dict(duration=200.0)
    d["routes"].append({"id": 1, "links": [3, 2]})
    d["demands"].append(dict(d["demands"][0], link=3, route=1))
    eng = Engine(parse_scenario(d))
    array = eng._array_junctions[1]
    if step == "delivery":
        array.model.receive_round = _fails
    else:
        remove = array.remove
        array.remove = lambda: _fails() if eng.stats.array_deliveries else remove()
    with pytest.raises(SimulationError) as info:
        eng.run()
    assert info.value.element == "model 0 (ctm)" and "stub failure" in str(info.value)
    assert eng.stats.junctions_batched == 1


def test_a_second_request_for_one_lane_group_and_rc_names_the_pair():
    from hybridtraffic.engine import SimulationError

    d = corridor_scenario_dict([("ctm", [0, 1]), ("newell", [2, 3])], n_links=4)
    eng = Engine(parse_scenario(d))
    sender = eng.model_of_link[1]
    compute = sender.compute_demands

    def twice(now, rng):
        reqs = compute(now, rng)
        return reqs + [req for req in reqs if req.group_id == "1:1"]

    sender.compute_demands = twice
    with pytest.raises(SimulationError) as info:
        eng.run()
    err = info.value
    assert err.element == "junction 1, rc 1, lane group 1:1" and err.time > 0
    assert "more than one request per lane group and rc" in str(err)


def test_a_supply_read_failing_in_the_batch_plan_names_the_junction():
    # the merge into link 2 is batched, but link 2 has a model of its own,
    # so the merge is no array junction: the plan reads its supply
    d = _two_route_merge(duration=200.0)
    d["models"][0]["links"] = [0, 1, 3]
    d["models"].append(dict(d["models"][0], links=[2]))
    eng = Engine(parse_scenario(d))
    assert 1 in eng._jset.place and 1 not in eng._array_junctions
    eng.model_of_link[2].lane_group_supply = _fails
    err = _failure(eng)
    assert err.element == "junction 1" and err.time > 0
    assert eng.stats.junctions_batched == 1


# --- one fluid delivery --------------------------------------------------


def _recording_ends(caps=None):
    """A sender and a fluid receiver that record what they are handed (the
    sender each cut's non-zero amounts by state, the receiver each lane
    group's amounts over the link's table); the receiver reports the free
    space in `caps` as its lane groups' supply."""
    from types import SimpleNamespace

    sent, got = [], []
    sender = SimpleNamespace(remove=lambda g, rc, p: sent.append((g, rc, by_state(p))))
    receiver = SimpleNamespace(
        vehicle_based=False, receive_fluid=lambda h, part, t: got.append((h, part)),
        lane_group_supply=lambda h: caps[h])
    return sender, receiver, sent, got


S0, S1 = StateIndex(0, 0), StateIndex(0, 1)


def _two_route_engine(n_links=2, routes=((0, 1),)):
    """A CTM corridor whose routed type also has route 1 (on links 0 and 1
    by default), so every link it passes holds S0 and S1, in that order."""
    d = corridor_scenario_dict([("ctm", list(range(n_links)))], n_links=n_links)
    d["routes"] += [{"id": 1 + i, "links": list(r)} for i, r in enumerate(routes)]
    return Engine(parse_scenario(d))


def test_fluid_delivery_scales_the_accepted_share_in_state_order():
    # the engine cuts a fluid request as it delivers it: each amount times
    # min(1, delta / size), further limited by the free space, over the
    # sender's state table, zero shares carried as zeros, the offered packet
    # left as it was; the cut leaves the sender after the pass
    eng = _two_route_engine()
    assert eng.routing.tables[0] == eng.routing.tables[1] == (S0, S1)
    caps = {"1:1": 10.0}
    sender, receiver, sent, got = _recording_ends(caps)
    conn = _Connection(0, 0, 0, 1, receiver, ("1:1",))
    deliver = eng._deliver

    def _deliver(*args):
        deliver(*args)
        eng._remove_cuts()

    eng._deliver = _deliver
    p = fluid_packet(eng.routing.tables[0], {S1: 1.0, S0: 3.0})
    eng._deliver(0.0, sender, "0:1", conn, p, 4.0, 1.0, [caps["1:1"]])
    assert sent == [("0:1", 0, {S0: 0.75, S1: 0.25})]
    assert list(sent[0][2]) == [S0, S1]
    assert got == [("1:1", [0.75, 0.25])]
    assert eng.cum_out[0] == eng.cum_in[1] == {S0: 0.75, S1: 0.25}
    assert p.amounts == [3.0, 1.0]
    # the whole request is accepted and fits
    eng._deliver(0.0, sender, "0:1", conn, p, 4.0, 4.0, [caps["1:1"]])
    assert sent[-1][2] == by_state(p)
    # the whole request is accepted, but only half of it fits
    caps["1:1"] = 2.0
    eng._deliver(0.0, sender, "0:1", conn, p, 4.0, 4.0, [caps["1:1"]])
    assert sent[-1][2] == {S0: 1.5, S1: 0.5}
    # no free space: nothing is sent
    caps["1:1"] = 0.0
    eng._deliver(0.0, sender, "0:1", conn, p, 4.0, 4.0, [caps["1:1"]])
    assert len(sent) == 3
    # a share that scales to zero is not carried, booked or handed on
    caps["1:1"] = 10.0
    tiny = fluid_packet(eng.routing.tables[0], {S0: 4.0, S1: 5e-324})
    before = dict(eng.cum_in[1])
    eng._deliver(0.0, sender, "0:1", conn, tiny, tiny.size, 1.0, [caps["1:1"]])
    assert sent[-1][2] == {S0: 1.0}
    assert got[-1] == ("1:1", [1.0, 0.0])
    assert eng.cum_in[1] == {S0: before[S0] + 1.0, S1: before[S1]}


def test_fluid_entry_spreads_by_free_space_in_state_order():
    # what a lane group has received counts against its supply in the model
    # (test_ctm.py::test_supply_is_net_of_the_fluid_received_until_the_advance)
    eng = _two_route_engine()
    table = eng.routing.tables[1]
    _, receiver, _, got = _recording_ends()
    eng._enter(receiver, 1, fluid_packet(table, {S1: 1.0, S0: 3.0}), ("a", "b"),
               [9.0, 3.0], 0.0)
    assert got == [("a", [2.25, 0.75]), ("b", [0.75, 0.25])]
    assert eng.cum_in[1] == {S0: 3.0, S1: 1.0}
    # a lane group without free space gets nothing while another has some
    got.clear()
    eng._enter(receiver, 1, fluid_packet(table, {S0: 3.0}), ("a", "b"), [0.0, 5.0], 0.0)
    assert got == [("b", [3.0, 0.0])]
    # without any free space the amounts are split evenly
    got.clear()
    eng._enter(receiver, 1, fluid_packet(table, {S1: 1.0, S0: 3.0}), ("a", "b"),
               [0.0, 0.0], 0.0)
    assert got == [("a", [1.5, 0.5]), ("b", [1.5, 0.5])]


def _two_state_crossing(kind, rng):
    """Six vehicles of routes 0 and 1 (S0 and S1), interleaved, waiting on a
    two_queue link 0 to cross into link 1 of model `kind`, which has room for
    them, with their request, and the re-keyings recorded."""
    d = corridor_scenario_dict([("two_queue", [0]), (kind, [1])], n_links=2, rate_vph=0.0)
    d["routes"].append({"id": 1, "links": [0, 1]})
    d["links"][1].update(capacity=20000.0, jam_density=2000.0)
    eng = Engine(parse_scenario(d), audit=True)
    sender = eng.model_of_link[0]
    table, slots = eng.routing.tables[0], eng.routing.slots[0]
    assert table == eng.routing.tables[1] == (S0, S1)
    arrivals = [Vehicle(i, s) for i, s in enumerate([S1, S0, S1, S0, S0, S1])]
    sender.receive_vehicles(0, arrivals, 0.0)  # as a source enters them
    eng._book_cars(by_slot(arrivals, slots), 0, eng._cum_in)
    sender.advance_state(20.0, rng)  # past the free-flow travel time
    req, = sender.requests("0:1", {0: list(sender.groups["0:1"].waiting)})
    routed = []
    assign = eng.routing.assign_next_link
    eng.routing.assign_next_link = lambda *a: routed.append(assign(*a)) or routed[-1]
    eng._probed = {3}
    return eng, req, routed


@pytest.mark.parametrize("kind", ["ctm", "two_queue", "newell"])
def test_a_two_state_vehicle_packet_crosses_a_junction_slot_by_slot(kind, rng):
    # all six cross into link 1, which has room for them
    eng, req, routed = _two_state_crossing(kind, rng)
    sender, receiver = eng.model_of_link[0], eng.model_of_link[1]
    cars = req.sent
    # the request is the waiting queue's FIFO list; by slot, one FIFO list
    # per slot and its count
    slots = by_slot(cars, eng.routing.slots[0])
    assert [[v.id for v in vs] for _, vs in slots] == [[1, 3, 4], [0, 2, 5]]
    assert [len(vs) for _, vs in slots] == [3, 3]

    conn = eng._rc[0]
    caps = [receiver.lane_group_supply(h) for h in conn.groups]
    assert sum(caps) >= 6
    eng._deliver(20.0, sender, "0:1", conn, cars, 6.0, 6.0, caps)
    eng._remove_cuts()  # as the pass ends
    # re-keyed into link 1's table slot by slot, FIFO within a slot
    assert [eng.routing.tables[1][k] for k, _ in routed[0]] == [S0, S1]
    assert [[v.id for v in vs] for _, vs in routed[0]] == [[1, 3, 4], [0, 2, 5]]
    assert eng.cum_out[0] == eng.cum_in[1] == {S0: 3.0, S1: 3.0}
    assert eng.link_state_counts(0) == [0.0, 0.0]
    assert eng.link_state_counts(1) == [3.0, 3.0]
    if receiver.vehicle_based:
        assert [v.id for v in receiver.groups["1:1"].vehicles()] == [1, 3, 4, 0, 2, 5]
        assert eng.trackers == []
    else:
        # the vehicles dissolve into their counts; the probed one is tracked
        assert [(tr.vehicle_id, tr.state, tr.link) for tr in eng.trackers] == [(3, S0, 1)]
    eng._audit(20.0)
    assert eng.audit_failures == []

    # a partial take: the junction accepts 4 of the 6, the first
    # floor(4/6 * 3) = 2 of each slot, and the supply read before the cut
    # caps it at 3, so slot 0 sends two and slot 1 the one left; the unsent
    # entitlement is banked as entry credit, up to one vehicle
    eng, req, routed = _two_state_crossing(kind, rng)
    sender, receiver = eng.model_of_link[0], eng.model_of_link[1]
    conn = eng._rc[0]
    assert receiver.lane_group_supply(conn.groups[0]) >= 3
    eng._deliver(20.0, sender, "0:1", conn, req.sent, 6.0, 4.0, [3.0])
    eng._remove_cuts()
    assert eng.stats.deliveries == 1
    assert eng._entry_credit[conn.id] == 1.0
    assert [[v.id for v in vs] for _, vs in routed[0]] == [[1, 3], [0]]
    assert eng.cum_out[0] == eng.cum_in[1] == {S0: 2.0, S1: 1.0}
    assert eng.link_state_counts(0) == [1.0, 2.0]
    assert eng.link_state_counts(1) == [2.0, 1.0]
    assert [v.id for v in sender.groups["0:1"].vehicles()] == [2, 4, 5]
    if receiver.vehicle_based:
        assert [v.id for v in receiver.groups["1:1"].vehicles()] == [1, 3, 0]
        assert eng.trackers == []
    else:
        assert [(tr.vehicle_id, tr.state, tr.link) for tr in eng.trackers] == [(3, S0, 1)]
    eng._audit(20.0)
    assert eng.audit_failures == []


def test_a_ledger_reads_as_a_fresh_dict_over_the_links_table(tmp_path):
    # `cum_in`/`cum_out` are read-only views of per-place arrays: each read
    # is a new {state: veh} dict over the link's whole state table, in table
    # order from t = 0 on, and its sum is what boundaries.csv writes
    d = _merge_dict(duration=200.0)
    d["routes"] = [{"id": 0, "links": [3, 2]}, {"id": 1, "links": [0, 1, 2]}]
    d["demands"] = [dict(d["demands"][0], link=0, route=1),
                    dict(d["demands"][0], link=3, route=0)]
    eng = Engine(parse_scenario(d))
    assert len(eng.routing.tables[2]) == 2
    sums = {}

    def observe(e, t):
        for ledger in (e.cum_in, e.cum_out):
            for l in e.net.links:
                assert list(ledger[l]) == list(e.routing.tables[l])
        for l in e.net.links:
            sums[_f(t), str(l)] = [_f(sum(e.cum_in[l].values())),
                                   _f(sum(e.cum_out[l].values()))]

    observe(eng, 0.0)
    with OutputWriter(str(tmp_path)) as writer:
        eng.run(observer=lambda e, t: (observe(e, t), writer.write(e, t)))
    with open(tmp_path / "boundaries.csv", newline="") as f:
        rows = list(csv.reader(f))[1:]
    assert len(rows) == len(sums) and rows[-1][3] != "0"
    assert all(sums[t, l] == [cum_in, cum_out] for t, l, cum_in, cum_out in rows)
    for ledger in (eng.cum_in, eng.cum_out):
        read = ledger[2]
        want = dict(read)
        read[StateIndex(0, 0)] += 1.0
        read[StateIndex(9, 9)] = 1.0
        assert ledger[2] == want and ledger[2] is not ledger[2]
        with pytest.raises(TypeError):
            ledger[2] = want


def test_a_state_the_entered_link_cannot_hold_is_refused_naming_it_and_the_link():
    # route 1 runs on link 2 only, so link 1's table has no slot for its
    # state: the delivery into link 1 refuses it as it re-keys the fluid,
    # before anything enters the link
    eng = _two_route_engine(n_links=3, routes=((2,),))
    assert S1 not in eng.routing.tables[1] and S1 in eng.routing.tables[2]
    sender, _, sent, _ = _recording_ends()
    ctm = eng.model_of_link[1]
    stray = FluxPacket((S1,), [1.0])
    message = "state %s has no slot on link 1" % (S1,)
    with pytest.raises(RoutingError, match=re.escape(message)):
        eng._deliver(0.0, sender, "0:1", eng._rc[0], stray, 1.0, 1.0,
                     [ctm.lane_group_supply("1:1")])
    assert ctm.total_vehicles("1:1") == 0.0
    assert list(eng.cum_in[1].values()) == [0.0] * len(eng.routing.tables[1])


# --- run-time failures name the element ------------------------------------


def _fails(*args, **kwargs):
    raise RuntimeError("stub failure")


def _failure(eng):
    from hybridtraffic.engine import SimulationError

    with pytest.raises(SimulationError) as info:
        eng.run()
    err = info.value
    assert "stub failure" in str(err) and "element=%s" % err.element in str(err)
    assert err.time is not None
    return err


def test_source_failure_names_the_source_and_link():
    eng = Engine(parse_scenario(corridor_scenario_dict([("ctm", [0, 1])], n_links=2)))
    eng.sources[0].accrue = _fails
    err = _failure(eng)
    assert err.element == "source 0, link 0" and err.time == 0.0


def test_exit_failure_names_the_exiting_lane_group():
    eng = Engine(parse_scenario(
        corridor_scenario_dict([("ctm", [0]), ("ctm", [1])], n_links=2)))
    exit_model = eng.model_of_link[1]
    remove = exit_model.remove
    exit_model.remove = lambda g, rc, p: _fails() if rc is None else remove(g, rc, p)
    err = _failure(eng)
    assert err.element == "lane group 1:1 (exit)" and err.time > 0


def test_model_advance_failure_names_the_model():
    d = corridor_scenario_dict([("ctm", [0, 1]), ("newell", [2, 3])], n_links=4)
    eng = Engine(parse_scenario(d))
    eng.model_of_link[2].advance_state = _fails
    err = _failure(eng)
    assert err.element == "model 1 (newell)" and err.time == 0.0


@pytest.mark.parametrize("kind", ["sensor", "controller", "actuator"])
def test_control_failure_names_the_element(kind):
    d = corridor_scenario_dict([("ctm", [0, 1])], n_links=2)
    d["sensors"] = [{"id": 3, "kind": "lane_group", "dt": 2.0, "lane_group": "0:1"}]
    d["controllers"] = [{"id": 4, "type": "noop", "dt": 2.0}]
    d["actuators"] = [{"id": 5, "kind": "vsl", "dt": 2.0, "link": 0}]
    eng = Engine(parse_scenario(d))
    element = {"sensor": eng.sensors, "controller": eng.controllers,
               "actuator": eng.actuators}[kind][0]
    setattr(element, {"sensor": "read", "controller": "step", "actuator": "flush"}[kind],
            _fails)
    err = _failure(eng)
    assert err.element == "%s %d" % (kind, element.id) and err.time == 0.0
