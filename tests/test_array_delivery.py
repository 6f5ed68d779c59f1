"""The array junctions (batched junctions within one CTM model) against the
pair-by-pair path as an oracle: emptying a built engine's array-junction set
sends every junction pair by pair, and the outputs must be the same bytes,
the ledgers the same states in the same order with the same floats."""

import os
import sys
from dataclasses import replace

import pytest

from conftest import supplies_around_the_pass
from hybridtraffic import Engine
from hybridtraffic.demand import Route
from hybridtraffic.engine import SimulationError
from hybridtraffic.outputs import OutputWriter
from hybridtraffic.packets import StateIndex
from hybridtraffic.scenario import parse_scenario
from test_engine import _merge_dict

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench"))
from gridgen import grid_scenario  # noqa: E402
from harness import GRIDS  # noqa: E402


def _run(d, out_dir, arrays: bool):
    """The engine after a run, its CSVs, and each CTM model's per-step
    lists as every flow phase ended, the inflow in each lane group's arrival
    order (across lane groups the order is the path's and changes nothing)."""
    eng = Engine(parse_scenario(d), audit=True)
    if not arrays:
        eng._array_junctions.clear()
    ctms, states = [m for m in eng.models if m.kind == "ctm"], []
    remove_cuts = eng._remove_cuts

    def removing():
        remove_cuts()
        states.append([(list(m._tot), m._last and list(m._last), list(m._outflow),
                        list(m._cum_out), list(m._received),
                        sorted(m._inflow.items(), key=lambda kv: kv[0] // m._n_slots))
                       for m in ctms])

    eng._remove_cuts = removing
    with OutputWriter(str(out_dir)) as writer:
        eng.run(observer=lambda e, t: writer.write(e, t))
    eng.phase_states = states
    return eng, {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def _same_as_pair_by_pair(d, tmp_path):
    array, want = _run(d, tmp_path / "arrays", arrays=True)
    pairs, got = _run(d, tmp_path / "pairs", arrays=False)
    assert array.stats.array_deliveries > 0 and pairs.stats.array_deliveries == 0
    assert replace(array.stats, array_deliveries=0) == pairs.stats
    assert array.audit_failures == pairs.audit_failures == []
    for ledger in ("cum_in", "cum_out"):
        for link, by_state in getattr(pairs, ledger).items():
            assert list(getattr(array, ledger)[link].items()) == list(by_state.items())
    assert list(array.exits.items()) == list(pairs.exits.items())
    assert array.phase_states == pairs.phase_states
    assert got == want
    return array


def _grid(rows, seed, **spec):
    return grid_scenario(replace(GRIDS["grid_macro"], rows=rows, **spec), seed)


@pytest.mark.parametrize("seed", [1, 2])
def test_grid_macros_layout_writes_the_pair_by_pair_bytes(seed, tmp_path):
    eng = _same_as_pair_by_pair(_grid(20, seed), tmp_path)
    assert eng.stats.array_deliveries > eng.stats.deliveries / 2


def test_split_profiles_that_change_piece_mid_run(tmp_path):
    # the routing map recompiles an entry once its profile moves on
    d = _grid(6, 1, blocks=(("ctm", 0, 9),), duration=120.0)
    assert d["splits"]
    for i, sp in enumerate(d["splits"]):
        for k, (nl, profile) in enumerate(sorted(sp["ratios"].items())):
            v = profile["values"][0]
            profile.update(period=20.0 + 10.0 * (i % 3), values=[v, 1.0 - v, v, 0.5])
    eng = _same_as_pair_by_pair(d, tmp_path)
    assert any(a._timed for a in eng._arrays)


def test_split_overrides_that_drop_the_routing_rows(tmp_path):
    # each override clears the routing rows, and the map is recompiled
    d = _grid(6, 2, blocks=(("ctm", 0, 9),), duration=120.0)
    aid = 1 + max([a["id"] for a in d["actuators"]], default=-1)
    cid = 1 + max([c["id"] for c in d["controllers"]], default=-1)
    for n, sp in enumerate(d["splits"][:3]):
        through, turn = sorted(sp["ratios"])
        d["actuators"].append({"id": aid + n, "kind": "split", "dt": 2.0,
                               "link": sp["link"], "vtype": 0})
        for k, (at, cmd) in enumerate([(30.0, {"ratios": {through: 0.4, turn: 0.6}}),
                                       (70.0, {})]):
            d["controllers"].append({"id": cid + 2 * n + k, "type": "constant", "dt": 2.0,
                                     "actuators": [aid + n],
                                     "params": {"at": at + 2.0 * n,
                                                "commands": {aid + n: cmd}}})
    eng = _same_as_pair_by_pair(d, tmp_path)
    assert eng.routing.version == 6


def test_ledgers_keep_their_states_in_the_order_they_first_arrived(tmp_path):
    # both routes first reach the merge into link 2 in one step: route 1's
    # pair comes first there but its state takes link 2's second slot
    d = _merge_dict(duration=200.0)
    d["routes"] = [{"id": 0, "links": [3, 2]}, {"id": 1, "links": [0, 1, 2]}]
    d["links"][3]["length"] = 1000.0
    d["demands"] = [dict(d["demands"][0], link=0, route=1),
                    dict(d["demands"][0], link=3, route=0)]
    eng = _same_as_pair_by_pair(d, tmp_path)
    assert list(eng.cum_in[2]) == [StateIndex(0, 1), StateIndex(0, 0)]
    assert eng.routing.tables[2] == (StateIndex(0, 0), StateIndex(0, 1))


def test_a_sender_through_an_array_junction_reads_one_supply_through_the_pass():
    # what `supplies_around_the_pass` checks for a pair-by-pair sender
    # holds for one whose cuts the array step takes out
    eng = Engine(parse_scenario(_grid(4, 1)))
    array = eng._arrays[0]
    gid = array.name(0)[2]
    reads = supplies_around_the_pass(eng, gid)
    assert len(reads) > 10 and eng.stats.array_deliveries > 0
    assert all(end == start <= after for start, end, after in reads)
    assert any(end < after for _, end, after in reads)


def test_the_array_path_refuses_a_state_with_no_slot_naming_the_pair():
    # route 1 jumps from link 2 to link 0, which no road connection from
    # link 2 reaches: its state has no lane plan on link 2 and is refused
    # as the merge into link 2, an array junction, delivers it
    d = _merge_dict(duration=300.0)
    d["routes"].append({"id": 1, "links": [3, 2]})
    d["demands"].append(dict(d["demands"][0], link=3, route=1, profile={
        "start": 0.0, "period": 100.0, "values": [0.0, 1000.0]}))
    eng = Engine(parse_scenario(d))
    assert 1 in eng._array_junctions
    eng.routing.routes[1] = Route(1, (3, 2, 0))
    ctm = eng.model_of_link[2]
    ctm.set_routing(eng.routing)
    with pytest.raises(SimulationError) as info:
        eng.run()
    err = info.value
    assert err.element == "junction 1, rc 5, lane group 3:1"
    assert "state StateIndex(vtype=0, key=1) has no slot on link 2" in str(err)
    assert eng.stats.junctions_batched > 0 and err.time > 100.0


@pytest.mark.parametrize("workload", ["grid_micro", "corridor"])
def test_no_array_state_without_a_junction_inside_one_ctm_model(workload):
    from conftest import corridor_scenario_dict

    d = (grid_scenario(GRIDS["grid_micro"], 1) if workload == "grid_micro"
         else corridor_scenario_dict([("ctm", [0, 1, 2])], n_links=3))
    assert Engine(parse_scenario(d))._array_junctions == {}
