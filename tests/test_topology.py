"""The topology tables `Network.build` derives, checked against the scans
they replace, and the routing lookups the models make on them."""

import numpy as np
import pytest

from conftest import corridor_network
from hybridtraffic.demand import Route, RoutingContext, RoutingError, VehicleType
from hybridtraffic.models.ctm import CtmModel
from hybridtraffic.models.newell import NewellModel
from hybridtraffic.models.twoqueue import TwoQueueModel
from hybridtraffic.network import Network, RoadConnection
from hybridtraffic.packets import StateIndex, Vehicle
from hybridtraffic.scenario import parse_scenario
from random_networks import random_scenario_dict

# --- reference definitions: full scans over the network ----------------


def scan_outgoing(net, link_id):
    return sorted(
        (r for r in net.road_connections.values() if r.up_link == link_id),
        key=lambda r: r.id,
    )


def scan_rc_toward(net, group_id, nxt):
    """First exiting road connection of the group that leads to `nxt`."""
    for rc_id in net.lane_groups[group_id].exiting_rcs:
        if net.road_connections[rc_id].down_link == nxt:
            return rc_id
    return None


def scan_down_groups(net, rc):
    return sorted(
        g.id
        for g in net.lane_groups.values()
        if g.link == rc.down_link and set(g.lanes) & rc.down_lanes
    )


def scan_up_groups(net, rc):
    return sorted(
        g.id
        for g in net.lane_groups.values()
        if g.link == rc.up_link and rc.id in g.exiting_rcs
    )


def union_find_junctions(net):
    """Road connection -> lowest rc id of its junction, by union-find over
    road connections and link ends."""
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for rc in net.road_connections.values():
        parent[find(("rc", rc.id))] = find(("dn-end", rc.up_link))
        parent[find(("rc", rc.id))] = find(("up-end", rc.down_link))
    lowest = {}
    for rc_id in sorted(net.road_connections):
        lowest.setdefault(find(("rc", rc_id)), rc_id)
    return {r: lowest[find(("rc", r))] for r in net.road_connections}


def _window(rng, lanes):
    """A random contiguous lane window reaching one lane past either end."""
    lo = int(rng.integers(lanes[0] - 1, lanes[-1] + 1))
    hi = int(rng.integers(lo, lanes[-1] + 2))
    return frozenset(range(lo, hi + 1))


def _random_network(seed):
    """A seeded random network with partial lanes and extra road connections
    that share lanes, duplicate turns, leave lane ranges or name a missing
    downstream link."""
    rng = np.random.default_rng(seed)
    d = random_scenario_dict(rng)
    for link in d["links"]:
        if rng.random() < 0.4:
            position = ("inner-downstream", "outer-downstream")[int(rng.integers(0, 2))]
            link["partials"] = [
                {"position": position, "lanes": 1, "length": link["length"] / 2}
            ]
    sc = parse_scenario(d)
    rcs = list(sc.road_connections)
    ids = [l.id for l in sc.links]
    for _ in range(int(rng.integers(0, 5))):
        up = sc.links[int(rng.integers(0, len(ids)))]
        dn_id = ids[int(rng.integers(0, len(ids)))] if rng.random() < 0.9 else 99
        dn_lanes = next((l.lanes for l in sc.links if l.id == dn_id), [1, 2])
        rcs.append(
            RoadConnection(
                id=len(rcs) + 100,
                up_link=up.id,
                up_lanes=_window(rng, up.lanes),
                down_link=dn_id,
                down_lanes=_window(rng, dn_lanes),
            )
        )
    rng.shuffle(rcs)  # the tables must not depend on the input order
    return Network.build(sc.links, rcs)


@pytest.mark.parametrize("seed", range(40))
def test_tables_equal_the_scans(seed):
    net = _random_network(seed)
    link_ids = list(net.links) + [99]
    for l in net.links:
        out = scan_outgoing(net, l)
        assert net.is_terminal(l) == (not out)
        assert net.next_links(l) == sorted({r.down_link for r in out})
        for m in link_ids:
            ref = next((r for r in out if r.down_link == m), None)
            assert net.rc_between(l, m) == ref
    expected = {}
    for gid in net.lane_groups:
        for m in link_ids:
            rc = scan_rc_toward(net, gid, m)
            if rc is not None:
                expected[(gid, m)] = rc
    assert net.rc_toward == expected
    for rc in net.road_connections.values():
        assert net.rc_down_groups[rc.id] == scan_down_groups(net, rc)
        assert net.rc_up_groups[rc.id] == scan_up_groups(net, rc)
    assert net.junction_of == union_find_junctions(net)


def test_first_road_connection_wins_on_ambiguous_turns():
    net, links, rcs = corridor_network(2)
    twin = RoadConnection(7, 0, frozenset(links[0].lanes), 1, frozenset([1]))
    net = Network.build(links, [twin] + rcs)
    assert net.rc_toward[("0:1", 1)] == 0


# --- routing lookups on the three models ------------------------------

MODELS = {
    "ctm": lambda: CtmModel(dt=2.0, max_cell_length=100.0),
    "two_queue": lambda: TwoQueueModel(dt=2.0),
    "newell": lambda: NewellModel(dt=2.0),
}


@pytest.mark.parametrize("kind", sorted(MODELS))
def test_routing_error_from_rc_toward_and_groups_toward(kind, rng):
    net, _, _ = corridor_network(3)
    m = MODELS[kind]()
    m.build(net, [0, 1, 2])
    m.set_routing(
        RoutingContext(
            net,
            vehicle_types={0: VehicleType(0, "routed")},
            routes={0: Route(0, (0, 1, 2)), 1: Route(1, (0, 2))},
            splits={},
        )
    )
    through, skipping = StateIndex(0, 0), StateIndex(0, 1)
    assert m.rc_toward("0:1", 0, through) == 0
    assert m.rc_toward("2:1", 2, through) is None
    assert m.groups_toward(2, through) == ["2:1"]
    # route 1 jumps from link 0 to link 2, which no road connection joins
    with pytest.raises(RoutingError, match="lane group 0:1 .* toward link 2"):
        m.rc_toward("0:1", 0, skipping)
    with pytest.raises(RoutingError, match="no lane group of link 0 leads to link 2"):
        m.groups_toward(0, skipping)
    # and the models' own entry points surface it
    with pytest.raises(RoutingError):
        if m.vehicle_based:
            m.receive_vehicles(0, [Vehicle(id=0, state=skipping)], 0.0)
        else:
            m.receive_fluid("0:1", [0.0, 1.0], 0.0)  # link 0's table: through, skipping
            m.compute_demands(0.0, rng)
