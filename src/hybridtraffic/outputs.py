"""CSV outputs written on the output clock.

Four files per run:
  lane_groups.csv   per lane group: count, mean speed, remaining space
  link_states.csv   per link and state index: vehicle count, one row per
                    state of the link's table that holds any
  boundaries.csv    per link: cumulative boundary counts (in/out)
  trajectories.csv  per tracked vehicle: position and speed

Numbers are written as `%.9g`, fields are separated by commas and rows end
in CRLF, as Python's `csv` module writes them; no field holds a comma, a
quote or a line break, so none is quoted. Each file is written once per
output time.
"""

from __future__ import annotations

import os


def _f(x: float) -> str:
    return "%.9g" % x


HEADERS = {
    "lane_groups": "time,link,lane_group,model,count_veh,speed_kmh,space_veh",
    "link_states": "time,link,vtype,state_key,count_veh",
    "boundaries": "time,link,cum_in_veh,cum_out_veh",
    "trajectories": "time,vehicle,link,lane_group,position_m,speed_kmh",
}


class OutputWriter:
    def __init__(self, out_dir: str):
        os.makedirs(out_dir, exist_ok=True)
        self.out_dir = out_dir
        self._files = {}
        for name, header in HEADERS.items():
            f = self._files[name] = open(os.path.join(out_dir, name + ".csv"), "w", newline="")
            f.write(header + "\r\n")

    def write(self, engine, now: float):
        t = _f(now)
        net = engine.net
        rows = []
        for gid in sorted(net.lane_groups):
            m = engine.model_of_group[gid]
            rows.append("%s,%s,%s,%s,%.9g,%.9g,%.9g\r\n" % (
                t, net.lane_groups[gid].link, gid, m.kind, m.total_vehicles(gid),
                m.mean_speed_kmh(gid), m.lane_group_supply(gid)))
        self._files["lane_groups"].write("".join(rows))
        rows = []
        for link in sorted(net.links):
            for s, n in zip(engine.routing.tables[link], engine.link_state_counts(link)):
                if n > 0:
                    rows.append("%s,%s,%s,%s,%.9g\r\n" % (
                        t, link, s.vtype, "" if s.key is None else s.key, n))
        self._files["link_states"].write("".join(rows))
        rows = []
        for link in sorted(net.links):
            # the link's places of the ledger arrays, summed in table order
            p = engine.place_of[link]
            q = p + len(engine.routing.tables[link])
            rows.append("%s,%s,%.9g,%.9g\r\n" % (
                t, link, sum(engine._cum_in[p:q].tolist()), sum(engine._cum_out[p:q].tolist())))
        self._files["boundaries"].write("".join(rows))
        rows = []
        for model in engine.models:
            if not hasattr(model, "vehicle_positions"):
                continue
            for link in model.links:
                rows += ["%s,%s,%s,%s,%.9g,%.9g\r\n" % (t, veh.id, link, gid, pos, speed)
                         for veh, gid, pos, speed in model.vehicle_positions(link)]
        self._files["trajectories"].write("".join(rows))

    def close(self):
        for f in self._files.values():
            f.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
