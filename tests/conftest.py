import numpy as np
import pytest

from hybridtraffic.network import Link, Network, RoadConnection, RoadParams
from hybridtraffic.packets import vehicle_packet
from reference_routing import state_sort_key

STD = dict(capacity_per_lane=1000.0, speed_limit=100.0, jam_density_per_lane=100.0)


def std_params(**over):
    d = dict(STD)
    d.update(over)
    return RoadParams(**d)


def corridor_network(n_links=3, lanes=2, length=500.0, last_lanes=None):
    """Serial corridor 0 -> 1 -> ... -> n-1; optional lane drop on the last."""
    links = []
    for i in range(n_links):
        nl = lanes if (last_lanes is None or i < n_links - 1) else last_lanes
        links.append(Link(id=i, length=length, full_lanes=nl, params=std_params()))
    rcs = []
    for i in range(n_links - 1):
        up = links[i]
        dn = links[i + 1]
        rcs.append(
            RoadConnection(
                id=i,
                up_link=i,
                up_lanes=frozenset(up.lanes),
                down_link=i + 1,
                down_lanes=frozenset(dn.lanes),
            )
        )
    return Network.build(links, rcs), links, rcs


def successor_network(nexts):
    """One single-lane link per key of `nexts` (link -> its next links) and
    one road connection per (link, next link)."""
    links = [Link(id=l, length=500.0, full_lanes=1, params=std_params()) for l in nexts]
    pairs = [(a, b) for a in nexts for b in nexts[a]]
    rcs = [
        RoadConnection(i, a, frozenset([1]), b, frozenset([1]))
        for i, (a, b) in enumerate(pairs)
    ]
    return Network.build(links, rcs)


def by_state(packet) -> dict:
    """A packet's non-zero amounts by state, in table order."""
    return {s: a for s, a in zip(packet.table, packet.amounts) if a > 0}


def vehicles_by_state(packet) -> dict:
    """A vehicle packet's non-empty slots by state, in table order."""
    return {s: vs for s, vs in zip(packet.table, packet.vehicles) if vs}


def packet_of(vehicles, table=None):
    """A vehicle packet over `table`, by default a table of the vehicles'
    own states in state order."""
    if table is None:
        table = tuple(sorted({v.state for v in vehicles}, key=state_sort_key))
    return vehicle_packet(table, {s: k for k, s in enumerate(table)}, vehicles)


def corridor_scenario_dict(
    model_blocks,
    n_links=4,
    lanes=1,
    length=500.0,
    last_lanes=None,
    rate_vph=1000.0,
    duration=600.0,
    seed=7,
    output_dt=10.0,
):
    """Serial-corridor scenario mapping: one routed type, one route, one source.

    model_blocks: list of (kind, links, extra_params) or (kind, links).
    """
    links = []
    for i in range(n_links):
        nl = lanes if (last_lanes is None or i < n_links - 1) else last_lanes
        links.append(
            {"id": i, "length": length, "lanes": nl,
             "capacity": STD["capacity_per_lane"], "speed": STD["speed_limit"],
             "jam_density": STD["jam_density_per_lane"]}
        )
    rcs = [
        {"id": i, "up_link": i, "up_lanes": list(range(1, links[i]["lanes"] + 1)),
         "down_link": i + 1,
         "down_lanes": list(range(1, links[i + 1]["lanes"] + 1))}
        for i in range(n_links - 1)
    ]
    models = []
    for blk in model_blocks:
        kind, blk_links = blk[0], blk[1]
        extra = blk[2] if len(blk) > 2 else {}
        models.append({"kind": kind, "links": list(blk_links), "dt": 2.0, **extra})
    return {
        "name": "corridor",
        "links": links,
        "road_connections": rcs,
        "models": models,
        "vehicle_types": [{"id": 0, "routing": "routed"}],
        "routes": [{"id": 0, "links": list(range(n_links))}],
        "demands": [
            {"link": 0, "vtype": 0, "route": 0,
             "profile": {"start": 0.0, "period": duration, "values": [rate_vph]}}
        ],
        "splits": [],
        "run": {"duration": duration, "output_dt": output_dt, "seed": seed},
    }


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
