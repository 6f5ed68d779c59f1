"""Seeded grid-network scenario generator for the benchmark.

A grid has `rows` west-to-east arterials of `cols` links each. Node (i, j)
is the boundary between column j-1 and column j of row i. Arterial links run
(i, j) -> (i, j+1); one-lane connectors run (i, j) -> (i+1, j) at inner
nodes, so each connector leaves a diverge on row i and joins a merge on row
i+1. Connectors leave and join through the outermost arterial lane, which
gives the upstream arterial two lane groups and the junction a general
multi-input/multi-output node problem. The last column of every row is a
one-lane bottleneck. A share of the merges carries a fixed-time signal that
alternates the through and the connector road connection.

Every link belongs to a column (a connector to the column of its node), and
the model-block pattern assigns model kinds by column: later blocks override
earlier ones.

The seed places connectors and signals and shuffles lane counts and demand
rates over the rows; it draws link lengths. How many links,
lanes, signals and vehicles per hour a grid has does not depend on the seed,
so seeds change a grid's layout but not its size.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import yaml

CAPACITY = 1800.0  # veh/hr/lane
SPEED = 50.0  # km/hr
JAM_DENSITY = 150.0  # veh/km/lane
DEMAND_VPH = (1800.0, 2800.0)  # per-row source intensity range, near capacity
CONNECTOR_SHARE = 0.7  # fraction of inner nodes with a connector
TURN_SHARE = 0.2  # of a diverge's flow, toward its connector
MODEL_PARAMS = {
    "ctm": {"max_cell_length": 60.0},
    "two_queue": {},
    "newell": {"sigma_v": 1.0, "sigma_w": 0.5, "sigma_f": 0.02},
}


@dataclass(frozen=True)
class GridSpec:
    rows: int
    cols: int
    blocks: tuple[tuple[str, int, int], ...]  # (kind, first col, last col)
    signal_share: float  # fraction of merges with a fixed-time signal
    length_range: tuple[float, float]  # m, uniform per link
    duration: float  # s
    dt: float  # s, shared by every model

    def kind_of_column(self, col: int) -> str:
        kind = None
        for k, lo, hi in self.blocks:
            if lo <= col <= hi:
                kind = k
        if kind is None:
            raise ValueError("column %d is in no model block" % col)
        return kind


def grid_scenario(spec: GridSpec, seed: int) -> dict:
    """Scenario mapping (the YAML schema) for one seeded grid."""
    rnd = random.Random(seed)
    lo, hi = spec.length_range
    links: list[dict] = []
    column: dict[int, int] = {}

    def add_link(col: int, lanes: int) -> int:
        lid = len(links)
        links.append({
            "id": lid,
            "length": round(rnd.uniform(lo, hi), 1),
            "lanes": lanes,
            "capacity": CAPACITY,
            "speed": SPEED,
            "jam_density": JAM_DENSITY,
        })
        column[lid] = col
        return lid

    art = {}  # (row, col) -> link id
    for i, lanes in enumerate(_shuffled(rnd, [2 + i % 2 for i in range(spec.rows)])):
        for j in range(spec.cols):
            art[i, j] = add_link(j, 1 if j == spec.cols - 1 else lanes)
    inner = [(i, j) for i in range(spec.rows - 1) for j in range(1, spec.cols)]
    conn = {}  # (row, node col) -> connector link id, row -> row + 1
    for node in sorted(rnd.sample(inner, round(CONNECTOR_SHARE * len(inner)))):
        conn[node] = add_link(node[1], 1)

    rcs: list[dict] = []

    def add_rc(up: int, up_lanes, down: int, down_lanes) -> int:
        rcs.append({
            "id": len(rcs),
            "up_link": up,
            "up_lanes": list(up_lanes),
            "down_link": down,
            "down_lanes": list(down_lanes),
        })
        return len(rcs) - 1

    def all_lanes(lid: int):
        return range(1, links[lid]["lanes"] + 1)

    def outer_lane(lid: int):
        return [links[lid]["lanes"]]

    splits = []
    through_rc = {}  # (row, node col) -> rc id entering arterial (row, col)
    for i in range(spec.rows):
        for j in range(1, spec.cols):
            up, down = art[i, j - 1], art[i, j]
            through_rc[i, j] = add_rc(up, all_lanes(up), down, all_lanes(down))
            if (i, j) in conn:
                c = conn[i, j]
                add_rc(up, outer_lane(up), c, [1])
                splits.append({
                    "link": up,
                    "vtype": 0,
                    "ratios": {
                        down: _constant(1.0 - TURN_SHARE, spec.duration),
                        c: _constant(TURN_SHARE, spec.duration),
                    },
                })

    merge_rc = {}
    for (i, j), c in sorted(conn.items()):
        down = art[i + 1, j]
        merge_rc[i, j] = add_rc(c, [1], down, outer_lane(down))
    actuators, controllers = [], []
    signals = rnd.sample(sorted(conn), round(spec.signal_share * len(conn)))
    for i, j in sorted(signals):
        through, merge = through_rc[i + 1, j], merge_rc[i, j]
        a_through, a_merge = len(actuators), len(actuators) + 1
        for aid, rc in ((a_through, through), (a_merge, merge)):
            actuators.append({"id": aid, "kind": "rc_block", "dt": spec.dt, "rc": rc})
        green = spec.dt * rnd.randint(8, 14)
        controllers.append({
            "id": len(controllers),
            "type": "fixed_time_signal",
            "dt": spec.dt,
            "actuators": [a_through, a_merge],
            "params": {
                "stages": [
                    {"duration": green, "open_rcs": [through]},
                    {"duration": spec.dt * 6, "open_rcs": [merge]},
                ],
                "rc_actuators": {through: a_through, merge: a_merge},
                "offset": spec.dt * rnd.randint(0, 9),
            },
        })

    by_kind: dict[str, list[int]] = {}
    for lid in range(len(links)):
        by_kind.setdefault(spec.kind_of_column(column[lid]), []).append(lid)
    models = [
        {"kind": k, "links": by_kind[k], "dt": spec.dt, **MODEL_PARAMS[k]}
        for k in sorted(by_kind)
    ]

    d_lo, d_hi = DEMAND_VPH
    rates = [round(d_lo + (d_hi - d_lo) * (i + 0.5) / spec.rows, 1) for i in range(spec.rows)]
    demands = [
        {"link": art[i, 0], "vtype": 0, "profile": _constant(rate, spec.duration)}
        for i, rate in enumerate(_shuffled(rnd, rates))
    ]

    return {
        "name": "grid_%dx%d_seed%d" % (spec.rows, spec.cols, seed),
        "links": links,
        "road_connections": rcs,
        "models": models,
        "vehicle_types": [{"id": 0, "routing": "probabilistic"}],
        "routes": [],
        "demands": demands,
        "splits": splits,
        "sensors": [],
        "actuators": actuators,
        "controllers": controllers,
        "run": {
            "duration": spec.duration,
            "output_dt": spec.dt,
            "seed": seed,
            "distribution": "equalizing",
        },
    }


def _shuffled(rnd: random.Random, values: list) -> list:
    rnd.shuffle(values)
    return values


def _constant(value: float, duration: float) -> dict:
    return {"start": 0.0, "period": duration, "values": [value]}


def write_grid(spec: GridSpec, seed: int, path: str):
    with open(path, "w") as f:
        yaml.safe_dump(grid_scenario(spec, seed), f, sort_keys=False)
