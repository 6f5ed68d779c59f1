"""The flow phase is order-free: renumbering the road connections so that the
junctions are solved and delivered in reverse order, each keeping the order
of its own road connections, leaves the outputs as they were. The engine
takes every cut out of its sender only after the last junction has
delivered, so no junction sees what another removed before it: a supply,
and a vehicle's entry into a lane group, read the state at the start of the
step plus what has entered since.

On a CTM-only grid no random draw is made, so the CSVs must be the same
bytes. Where two_queue or Newell links are present, the routing draws are
made in delivery order, so the random stream moves with the order; there the
totals are compared within tolerances of about three standard deviations of
their spread over run seeds (grid_micro exited 1151-1197 veh over run seeds
1-6, injected 1803-1816; grid_macro's layout at 20 rows exited 2168-2179,
injected 3675-3679). With every split sent to one successor no such draw is
made, and those grids must write the same bytes too, but for the ids of
vehicles condensed from fluid, which are handed out in delivery order."""

import copy
import os
import sys
from dataclasses import replace

import pytest

from hybridtraffic import Engine
from hybridtraffic.network import Network
from hybridtraffic.outputs import OutputWriter
from hybridtraffic.scenario import parse_scenario

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench"))
from gridgen import grid_scenario  # noqa: E402
from harness import GRIDS  # noqa: E402


def _junctions(d: dict) -> dict[int, list[int]]:
    """Each junction of scenario dict `d` by id: its road connections,
    ascending."""
    sc = parse_scenario(d)
    members: dict[int, list[int]] = {}
    for r, jid in sorted(Network.build(sc.links, sc.road_connections).junction_of.items()):
        members.setdefault(jid, []).append(r)
    return members


def reverse_junction_order(d: dict) -> dict:
    """A copy of scenario dict `d` whose road connections are renumbered so
    that its junctions come in reverse order while each keeps the order of
    its own road connections; rc_block actuators and signal plans follow."""
    members = _junctions(d)
    new = {}
    for jid in sorted(members, reverse=True):
        for r in members[jid]:
            new[r] = len(new)
    out = copy.deepcopy(d)
    for rc in out["road_connections"]:
        rc["id"] = new[rc["id"]]
    for a in out["actuators"]:
        if a["kind"] == "rc_block":
            a["rc"] = new[a["rc"]]
    for c in out["controllers"]:
        params = c["params"]
        for stage in params["stages"]:
            stage["open_rcs"] = [new[r] for r in stage["open_rcs"]]
        params["rc_actuators"] = {new[int(r)]: a for r, a in params["rc_actuators"].items()}
    return out


def _run(d: dict, out_dir):
    eng = Engine(parse_scenario(d))
    with OutputWriter(str(out_dir)) as writer:
        eng.run(observer=lambda e, t: writer.write(e, t))
    return eng, {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def _grid(name: str, seed: int = 1, **over) -> dict:
    d = grid_scenario(replace(GRIDS[name], duration=300.0, **over), seed)
    d["run"]["output_dt"] = 10.0
    return d


def _without_routing_draws(d: dict) -> dict:
    """Scenario dict `d` with every split sending all its traffic to its
    first successor, so no routing draw is made."""
    for sp in d["splits"]:
        first = min(sp["ratios"])
        for nxt, profile in sp["ratios"].items():
            profile["values"] = [1.0 if nxt == first else 0.0]
    return d


def _without_vehicle_ids(csv_bytes: bytes) -> bytes:
    # ids are handed out as fluid condenses into vehicles, in delivery order
    return b"\n".join(b",".join(row.split(b",")[:1] + row.split(b",")[2:])
                      for row in csv_bytes.split(b"\n"))


def test_reversing_the_junction_order_reverses_it():
    d = _grid("grid_macro")
    rev = reverse_junction_order(d)
    new_of = {a["id"]: b["id"]
              for a, b in zip(d["road_connections"], rev["road_connections"])}
    before, after = _junctions(d), _junctions(rev)
    assert len(before) > 500
    assert [[new_of[r] for r in rcs] for _, rcs in sorted(before.items(), reverse=True)] == [
        rcs for _, rcs in sorted(after.items())]


def test_a_ctm_grid_writes_the_same_bytes_in_either_junction_order(tmp_path):
    # fails where a supply sees an earlier removal: injected 10,953.3 against
    # 11,049.8 veh when a one-cell lane group's removals showed within the pass
    d = _grid("grid_macro", blocks=(("ctm", 0, 9),))
    eng, ascending = _run(d, tmp_path / "ascending")
    rev, descending = _run(reverse_junction_order(d), tmp_path / "descending")
    assert (rev.total_injected(), rev.total_exited()) == (
        eng.total_injected(), eng.total_exited())
    assert descending == ascending


@pytest.mark.parametrize("name, over, tol_injected, tol_exited", [
    ("grid_micro", {}, 0.015, 0.06),
    ("grid_macro", {"rows": 20}, 0.01, 0.01),
], ids=["grid_micro", "grid_macro_20_rows"])
def test_vehicle_grids_keep_their_totals_in_either_junction_order(
        tmp_path, name, over, tol_injected, tol_exited):
    d = _grid(name, **over)
    eng, _ = _run(d, tmp_path / "ascending")
    rev, _ = _run(reverse_junction_order(d), tmp_path / "descending")
    assert rev.total_injected() == pytest.approx(eng.total_injected(), rel=tol_injected)
    assert rev.total_exited() == pytest.approx(eng.total_exited(), rel=tol_exited)
    for e in (eng, rev):
        assert e.total_injected() == pytest.approx(
            e.total_exited() + e.total_in_network(), abs=1e-6)


@pytest.mark.parametrize("name, over, seed", [
    ("grid_macro", {"rows": 20}, 1),
    ("grid_macro", {"rows": 20}, 2),
    ("grid_micro", {}, 1),
], ids=["grid_macro_20_rows-1", "grid_macro_20_rows-2", "grid_micro-1"])
def test_vehicle_entry_is_the_same_in_either_junction_order(tmp_path, name, over, seed):
    # without routing draws, a grid with two_queue or Newell links writes the
    # same bytes in either order: a vehicle enters (`has_room`, `_pick`) on
    # its lane group's state at the start of the step plus what has entered
    # it since, never on what its lane group let go earlier in the pass
    d = _without_routing_draws(_grid(name, seed, **over))
    _, ascending = _run(d, tmp_path / "ascending")
    _, descending = _run(reverse_junction_order(d), tmp_path / "descending")
    if name == "grid_micro":
        for out in (ascending, descending):
            out["trajectories.csv"] = _without_vehicle_ids(out["trajectories.csv"])
    assert descending == ascending
