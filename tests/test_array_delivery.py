"""The array junctions (batched junctions within one CTM model) against the
pair-by-pair path as an oracle: an engine built with no array junction
offers every pair as a packet and sends every junction pair by pair, and
the outputs must be the same bytes, the ledgers the same floats place by
place."""

import os
import sys
from contextlib import nullcontext
from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest

from conftest import supplies_around_the_pass
from hybridtraffic import Engine
from hybridtraffic.arraydelivery import ArrayJunctions
from hybridtraffic.demand import Route
from hybridtraffic.engine import SimulationError
from hybridtraffic.models.ctm import CtmModel
from hybridtraffic.outputs import OutputWriter
from hybridtraffic.packets import FluxPacket, StateIndex
from hybridtraffic.scenario import parse_scenario
from test_engine import _fails, _merge_dict, _two_route_merge

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench"))
from gridgen import grid_scenario  # noqa: E402
from harness import GRIDS  # noqa: E402


def _run(d, out_dir, arrays: bool):
    """The engine after a run, its CSVs, and each CTM model's cell totals,
    last cells, outflows, received totals and first-cell inflow as every
    flow phase ended."""
    # the oracle builds no array junction, so its models offer every pair
    # as a packet
    no_arrays = patch.object(Engine, "_compile_arrays", return_value={})
    with nullcontext() if arrays else no_arrays:
        eng = Engine(parse_scenario(d), audit=True)
    ctms, states = [m for m in eng.models if m.kind == "ctm"], []
    remove_cuts = eng._remove_cuts

    def removing():
        remove_cuts()
        states.append([(list(m._tot), m._occ[m._last_rows].tolist(), m._outflow.tolist(),
                        m._cum_out.tolist(), list(m._received),
                        m._inflow.tolist())
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
    assert all(m._to_packets is None for m in pairs.models if m.kind == "ctm")
    # a pair-by-pair re-read of a supply is a read the array steps make
    # from their model's arrays instead
    assert (replace(array.stats, array_deliveries=0, supply_rereads=0)
            == replace(pairs.stats, supply_rereads=0))
    assert array.audit_failures == pairs.audit_failures == []
    for ledger in ("cum_in", "cum_out"):
        for link, by_state in getattr(pairs, ledger).items():
            assert list(getattr(array, ledger)[link].items()) == list(by_state.items())
        assert getattr(array, "_" + ledger).tolist() == getattr(pairs, "_" + ledger).tolist()
    assert array.total_exited() == pairs.total_exited()
    assert array.phase_states == pairs.phase_states
    assert got == want
    return array


def _grid(rows, seed, **spec):
    return grid_scenario(replace(GRIDS["grid_macro"], rows=rows, **spec), seed)


@pytest.mark.parametrize("seed, ctm_dt", [
    pytest.param(1, 2.0, id="1"), pytest.param(2, 2.0, id="2"),
    # the CTM steps every 1 s against the two_queue block's and the
    # signals' 2 s, so on every other flow phase the CTM alone is due
    pytest.param(1, 1.0, id="1-mixed"), pytest.param(2, 1.0, id="2-mixed"),
])
def test_grid_macros_layout_writes_the_pair_by_pair_bytes(seed, ctm_dt, tmp_path):
    d = _grid(20, seed)
    for m in d["models"]:
        if m["kind"] == "ctm":
            m["dt"] = ctm_dt
    eng = _same_as_pair_by_pair(d, tmp_path)
    assert sorted(m.dt for m in eng.models) == sorted([ctm_dt, 2.0])
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


def test_ledgers_keep_their_states_in_table_order(tmp_path):
    # both routes first reach the merge into link 2 in one step: route 1's
    # pair comes first there but its state takes link 2's second slot, and
    # the ledger reads in table order all the same
    d = _merge_dict(duration=200.0)
    d["routes"] = [{"id": 0, "links": [3, 2]}, {"id": 1, "links": [0, 1, 2]}]
    d["links"][3]["length"] = 1000.0
    d["demands"] = [dict(d["demands"][0], link=0, route=1),
                    dict(d["demands"][0], link=3, route=0)]
    eng = _same_as_pair_by_pair(d, tmp_path)
    assert list(eng.cum_in[2]) == list(eng.routing.tables[2])
    assert eng.routing.tables[2] == (StateIndex(0, 0), StateIndex(0, 1))
    assert all(v > 0 for v in eng.cum_in[2].values())


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


# --- failures name their pair, as pair by pair ----------------------------


def _failure(d, fault, arrays: bool):
    """The engine built from `d`, with or without array junctions, and the
    error its run stops with once `fault(engine)` has been applied."""
    no_arrays = patch.object(Engine, "_compile_arrays", return_value={})
    with nullcontext() if arrays else no_arrays:
        eng = Engine(parse_scenario(d))
    fault(eng)
    with pytest.raises(SimulationError) as info:
        eng.run()
    return eng, info.value


def _sending(eng, *gids):
    """Whether each of lane groups `gids` of link 1's model has demand."""
    m = eng.model_of_link[1]
    return bool((m._demand[[m.groups[g].index for g in gids]] > 0).any(axis=1).all())


def _unroutable(routed):
    """Fail the routing rows of (state key, entered link) in `routed`."""
    def fault(eng):
        row = eng.routing._row
        eng.routing._row = lambda s, link, now: (
            _fails() if (s.key, link) in routed else row(s, link, now))
    return fault


def test_a_routing_row_failure_in_round_one_names_the_rank_one_pair():
    # both of the merge's rcs first send in one step: rc 1's pair is rank
    # 0, rc 5's rank 1, and only the state rc 5 carries cannot be routed
    # into link 2
    fault = _unroutable({(1, 2)})
    eng, err = _failure(_two_route_merge(duration=200.0), fault, arrays=True)
    assert err.element == "junction 1, rc 5, lane group 3:1"
    assert "stub failure" in str(err)
    assert eng._array_junctions[1]._rank.tolist() == [0, 1]
    _, oracle = _failure(_two_route_merge(duration=200.0), fault, arrays=False)
    assert (oracle.element, oracle.time) == (err.element, err.time)


def test_a_cut_above_its_senders_last_cell_names_its_pair():
    # once both rcs send, link 3's lane group has emptied its last cell
    # when what rc 5 took from it is taken out: round 1 of the removal
    def fault(eng):
        sender, remove_cuts = eng.model_of_link[3], eng._remove_cuts

        def overdrawn():
            if _sending(eng, "1:1", "3:1"):
                sender._occ[sender._last_rows[sender.groups["3:1"].index]] = 0.0
            remove_cuts()

        eng._remove_cuts = overdrawn

    eng, err = _failure(_two_route_merge(duration=200.0), fault, arrays=True)
    assert err.element == "junction 1, rc 5, lane group 3:1"
    assert ("lane group 3:1: outflow exceeds occupancy for state StateIndex(vtype=0, key=1)"
            in str(err))
    assert eng.stats.array_deliveries == 2
    _, oracle = _failure(_two_route_merge(duration=200.0), fault, arrays=False)
    assert (oracle.element, str(oracle)) == (err.element, str(err))


def _two_merges():
    """Two copies of `_two_route_merge` in one CTM model, the second's
    link, rc and route ids 10 higher."""
    d = _two_route_merge(duration=200.0)

    def moved(x, *keys):
        return dict(x, **{k: x[k] + 10 for k in keys})

    d["links"] += [moved(x, "id") for x in d["links"]]
    d["road_connections"] += [moved(x, "id", "up_link", "down_link")
                              for x in d["road_connections"]]
    d["routes"] += [{"id": x["id"] + 10, "links": [l + 10 for l in x["links"]]}
                    for x in d["routes"]]
    d["demands"] += [moved(x, "link", "route") for x in d["demands"]]
    d["models"][0]["links"] += [l + 10 for l in d["models"][0]["links"]]
    return d


@pytest.mark.parametrize("routed, named", [
    # both merges' rank-0 pairs fail: the lower pair index, the first merge's
    ({(0, 2), (10, 12)}, (0, 1, "1:1")),
    # the first merge's rank-1 pair and the second's rank-0 pair fail: the
    # first failing round names the second merge, where pair by pair the
    # first merge's pair fails first
    ({(1, 2), (10, 12)}, (1, 11, "11:1")),
], ids=["same-round", "earlier-round"])
def test_two_array_junctions_failing_in_one_phase_name_the_first_failing_round(routed, named):
    d = _two_merges()
    eng, err = _failure(d, _unroutable(routed), arrays=True)
    merges = [eng._rc[r].junction for r in (1, 11)]
    assert merges[0] < merges[1] and eng._array_junctions[merges[0]] is eng._arrays[0]
    k, r, g = named
    assert err.element == "junction %s, rc %s, lane group %s" % (merges[k], r, g)
    _, oracle = _failure(d, _unroutable(routed), arrays=False)
    assert oracle.time == err.time
    assert oracle.element == "junction %s, rc %s, lane group %s" % (
        (merges[0], 1, "1:1") if k == 0 else (merges[0], 5, "3:1"))


def test_a_refusal_before_an_unroutable_pair_in_one_round_is_named_first():
    # in round 0 of the first step both merges send, the first merge's
    # pair (row 0) is refused in link 2, whose lane plan for route 0 is
    # dropped, and the second's (row 1) cannot be routed into link 12:
    # pair by pair the refusal comes first, though routing is compiled for
    # the whole round before any receipt
    def fault(eng):
        eng.routing.routes[0] = Route(0, (0, 1, 2, 3))
        eng.model_of_link[2].set_routing(eng.routing)
        _unroutable({(10, 12)})(eng)

    eng, err = _failure(_two_merges(), fault, arrays=True)
    assert err.element == "junction %s, rc 1, lane group 1:1" % eng._rc[1].junction
    assert "state StateIndex(vtype=0, key=0) has no slot on link 2" in str(err)
    _, oracle = _failure(_two_merges(), fault, arrays=False)
    assert (oracle.element, str(oracle)) == (err.element, str(err))


@pytest.mark.parametrize("workload", ["grid_micro", "corridor"])
def test_no_array_state_without_a_junction_inside_one_ctm_model(workload):
    from conftest import corridor_scenario_dict

    d = (grid_scenario(GRIDS["grid_micro"], 1) if workload == "grid_micro"
         else corridor_scenario_dict([("ctm", [0, 1, 2])], n_links=3))
    eng = Engine(parse_scenario(d))
    assert eng._array_junctions == {}
    # nor a demand map: every place of the CTM's demand becomes a packet
    ctms = [m for m in eng.models if m.kind == "ctm"]
    assert ctms and all(m._to_packets is None for m in ctms)


# --- the hand-over from the CTM's demand array ---------------------------


def _routes_into_the_merge(d, rates, exiting=()):
    """`d` (`_merge_dict`) with one route 0 -> 1 -> 2 per rate of `rates`,
    each with its own source on link 0, a route 3 -> 2 into the merge,
    and one route 0 -> 1, exiting at link 1, per rate of `exiting`."""
    base = d["demands"][0]
    d["routes"], d["demands"] = [], []
    for links, rate in ([([0, 1, 2], r) for r in rates] + [([3, 2], 400.0)]
                        + [([0, 1], r) for r in exiting]):
        rid = len(d["routes"])
        d["routes"].append({"id": rid, "links": links})
        d["demands"].append(dict(base, link=links[0], route=rid, profile=dict(
            base["profile"], values=[rate])))
    return d


def test_a_pair_of_three_states_is_sized_as_its_packet(tmp_path, monkeypatch):
    # link 1 carries three routes into the merge, so the array pair (1:1,
    # rc 1) sums three amounts, where (a + b) + c is not always a + (b + c)
    d = _routes_into_the_merge(_merge_dict(duration=200.0), [317.0, 211.0, 143.0])
    sized = []
    offer = ArrayJunctions.offer

    def recording(self):
        offer(self)
        for q in np.flatnonzero(self._rank >= 0).tolist():
            table = self.model._group_list[self._pair_g[q]].table
            sized.append((table, self._offered[q, :len(table)].tolist(), self._size[q]))

    monkeypatch.setattr(ArrayJunctions, "offer", recording)
    _same_as_pair_by_pair(d, tmp_path)
    assert all(FluxPacket(table, amounts).size == size for table, amounts, size in sized)
    three = [a for _, a, _ in sized if len(a) == 3 and all(a)]
    assert any((a + b) + c != a + (b + c) for a, b, c in three)


def test_exits_beside_an_array_pair_keep_their_request_order(tmp_path, monkeypatch):
    # on link 1's one lane group route 3 exits while routes 0 and 1 send
    # into the merge: the array run's requests are the pair-by-pair run's
    # less those into the merge, in the same order
    d = _routes_into_the_merge(_merge_dict(duration=200.0), [300.0, 200.0], [250.0])
    requests = {True: [], False: []}  # by whether the model has array junctions
    compute_demands = CtmModel.compute_demands

    def recording(self, now, rng):
        reqs = compute_demands(self, now, rng)
        requests[self._to_packets is not None].append(
            [(r.group_id, r.rc, r.sent.amounts) for r in reqs])
        return reqs

    monkeypatch.setattr(CtmModel, "compute_demands", recording)
    eng = _same_as_pair_by_pair(d, tmp_path)
    merge = set(eng._junctions[1].rcs)
    assert requests[True] == [[r for r in phase if r[1] not in merge]
                              for phase in requests[False]]
    # in one phase, link 1 both exits and sends into the merge
    assert any(("1:1", None) in {r[:2] for r in phase} and ("1:1", 1) in {r[:2] for r in phase}
               for phase in requests[False])
    p = eng.place_of[1]
    assert any(eng._cum_out[p + k] > 0 for k, s in enumerate(eng.routing.tables[1])
               if eng.routing.next_link_of(s, 1) is None)
