"""CSV outputs written on the output clock.

Four files per run:
  lane_groups.csv   per lane group: count, mean speed, remaining space
  link_states.csv   per link and state index: vehicle count, one row per
                    state of the link's table that holds any
  boundaries.csv    per link: cumulative boundary counts (in/out)
  trajectories.csv  per tracked vehicle: position and speed
"""

from __future__ import annotations

import csv
import os


def _f(x: float) -> str:
    return "%.9g" % x


class OutputWriter:
    def __init__(self, out_dir: str):
        os.makedirs(out_dir, exist_ok=True)
        self.out_dir = out_dir
        self._files = {}
        self._writers = {}
        self._open("lane_groups", ["time", "link", "lane_group", "model",
                                   "count_veh", "speed_kmh", "space_veh"])
        self._open("link_states", ["time", "link", "vtype", "state_key", "count_veh"])
        self._open("boundaries", ["time", "link", "cum_in_veh", "cum_out_veh"])
        self._open("trajectories", ["time", "vehicle", "link", "lane_group",
                                    "position_m", "speed_kmh"])

    def _open(self, name: str, header: list[str]):
        f = open(os.path.join(self.out_dir, name + ".csv"), "w", newline="")
        w = csv.writer(f)
        w.writerow(header)
        self._files[name] = f
        self._writers[name] = w

    def write(self, engine, now: float):
        t = _f(now)
        w = self._writers["lane_groups"]
        for gid in sorted(engine.net.lane_groups):
            m = engine.model_of_group[gid]
            link = engine.net.lane_groups[gid].link
            w.writerow([
                t, link, gid, m.kind,
                _f(m.total_vehicles(gid)),
                _f(m.mean_speed_kmh(gid)),
                _f(m.lane_group_supply(gid)),
            ])
        w = self._writers["link_states"]
        for link in sorted(engine.net.links):
            for s, n in zip(engine.routing.tables[link], engine.link_state_counts(link)):
                if n > 0:
                    key = "" if s.key is None else s.key
                    w.writerow([t, link, s.vtype, key, _f(n)])
        w = self._writers["boundaries"]
        for link in sorted(engine.net.links):
            # the link's places of the ledger arrays, summed in table order
            p = engine.place_of[link]
            q = p + len(engine.routing.tables[link])
            w.writerow([
                t, link,
                _f(sum(engine._cum_in[p:q].tolist())),
                _f(sum(engine._cum_out[p:q].tolist())),
            ])
        w = self._writers["trajectories"]
        for model in engine.models:
            if not hasattr(model, "vehicle_positions"):
                continue
            for link in model.links:
                for veh, gid, pos, speed in model.vehicle_positions(link):
                    w.writerow([t, veh.id, link, gid, _f(pos), _f(speed)])

    def close(self):
        for f in self._files.values():
            f.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
