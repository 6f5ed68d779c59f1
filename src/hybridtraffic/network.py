"""Road network: links, road parameters, road connections, lane groups.

Lanes are numbered with integers, lane 1 being the innermost full lane.
Inner partial lanes (turn pockets on the median side) take numbers <= 0,
outer partial lanes take numbers above the full-lane count, so that road
connections can address every lane uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass, field


# partial lanes end where the link ends: every lane group is aligned at the
# downstream end (turn pockets, exit lanes)
PARTIAL_POSITIONS = ("inner-downstream", "outer-downstream")


class NetworkError(ValueError):
    """Structural problem in the network description."""


@dataclass(frozen=True)
class RoadParams:
    """Per-lane triangular fundamental diagram parameters."""

    capacity_per_lane: float  # veh/hr/lane
    speed_limit: float  # km/hr
    jam_density_per_lane: float  # veh/km/lane

    def __post_init__(self):
        if self.capacity_per_lane <= 0:
            raise NetworkError("capacity_per_lane must be positive")
        if self.speed_limit <= 0:
            raise NetworkError("speed_limit must be positive")
        if self.jam_density_per_lane <= 0:
            raise NetworkError("jam_density_per_lane must be positive")
        if self.critical_density >= self.jam_density_per_lane:
            raise NetworkError(
                "critical density %.3f >= jam density %.3f: triangular FD ill-formed"
                % (self.critical_density, self.jam_density_per_lane)
            )

    @property
    def critical_density(self) -> float:
        return self.capacity_per_lane / self.speed_limit

    @property
    def congestion_wave_speed(self) -> float:
        """Backward wave speed (km/hr) of the triangular FD."""
        return self.capacity_per_lane / (self.jam_density_per_lane - self.critical_density)


@dataclass(frozen=True)
class PartialLaneStructure:
    position: str  # one of PARTIAL_POSITIONS
    lanes: int
    length: float  # meters

    def __post_init__(self):
        if self.position not in PARTIAL_POSITIONS:
            raise NetworkError("unknown partial-lane position %r" % (self.position,))
        if self.lanes < 1:
            raise NetworkError("partial-lane structure needs >=1 lane")
        if self.length <= 0:
            raise NetworkError("partial-lane length must be positive")


@dataclass
class Link:
    id: int
    length: float  # meters
    full_lanes: int
    params: RoadParams
    partials: tuple[PartialLaneStructure, ...] = ()

    def __post_init__(self):
        if self.length <= 0:
            raise NetworkError("link %s: length must be positive" % self.id)
        if self.full_lanes < 1:
            raise NetworkError("link %s: needs >=1 full lane" % self.id)
        seen = set()
        for p in self.partials:
            if p.position in seen:
                raise NetworkError(
                    "link %s: duplicate partial-lane position %s" % (self.id, p.position)
                )
            seen.add(p.position)
            if p.length > self.length:
                raise NetworkError(
                    "link %s: partial lane longer than link" % self.id
                )

    @property
    def lanes(self) -> list[int]:
        """All lane numbers of the link, inner to outer."""
        inner = sum(p.lanes for p in self.partials if p.position.startswith("inner"))
        outer = sum(p.lanes for p in self.partials if p.position.startswith("outer"))
        lo = 1 - inner
        hi = self.full_lanes + outer
        return list(range(lo, hi + 1))

    def lane_length(self, lane: int) -> float:
        """Length of an individual lane (partial lanes are shorter)."""
        if 1 <= lane <= self.full_lanes:
            return self.length
        if lane not in self.lanes:
            raise NetworkError("link %s has no lane %s" % (self.id, lane))
        side = "inner" if lane < 1 else "outer"
        return next(p.length for p in self.partials if p.position.startswith(side))


@dataclass(frozen=True)
class RoadConnection:
    id: int
    up_link: int
    up_lanes: frozenset[int]
    down_link: int
    down_lanes: frozenset[int]

    def __post_init__(self):
        if not self.up_lanes or not self.down_lanes:
            raise NetworkError("road connection %s: lane sets must be non-empty" % self.id)
        for name, lanes in (("upstream", self.up_lanes), ("downstream", self.down_lanes)):
            s = sorted(lanes)
            if s != list(range(s[0], s[-1] + 1)):
                raise NetworkError(
                    "road connection %s: %s lane set not contiguous" % (self.id, name)
                )


@dataclass
class LaneGroup:
    id: str
    link: int
    lanes: tuple[int, ...]  # sorted inner to outer
    exiting_rcs: tuple[int, ...]  # sorted rc ids
    length: float  # meters

    @property
    def num_lanes(self) -> int:
        return len(self.lanes)


def lane_group_id(link_id: int, lowest_lane: int) -> str:
    return "%s:%s" % (link_id, lowest_lane)


def derive_lane_groups(link: Link, exiting: list[RoadConnection]) -> list[LaneGroup]:
    """Partition the link's lanes into maximal contiguous runs sharing the
    same set of exiting road connections (`exiting` are the link's own).
    Lanes out of range and ambiguous turning options are left for
    validate_network to report."""

    def exit_set(lane: int) -> frozenset[int]:
        return frozenset(rc.id for rc in exiting if lane in rc.up_lanes)

    groups: list[LaneGroup] = []
    run: list[int] = []
    run_exits: frozenset[int] = frozenset()

    def close_run():
        if not run:
            return
        lengths = {link.lane_length(l) for l in run}
        length = min(lengths) if len(lengths) > 1 else lengths.pop()
        groups.append(
            LaneGroup(
                id=lane_group_id(link.id, run[0]),
                link=link.id,
                lanes=tuple(run),
                exiting_rcs=tuple(sorted(run_exits)),
                length=length,
            )
        )

    for lane in link.lanes:
        es = exit_set(lane)
        if run and es == run_exits:
            run.append(lane)
        else:
            close_run()
            run = [lane]
            run_exits = es
    close_run()
    return groups


@dataclass
class Network:
    """Links and road connections plus the topology tables `build` derives
    from them once; every model and check reads these tables."""

    links: dict[int, Link]
    road_connections: dict[int, RoadConnection]
    lane_groups: dict[str, LaneGroup] = field(default_factory=dict)
    # adjacency, filled by build()
    link_groups: dict[int, list[str]] = field(default_factory=dict)  # inner->outer
    out_rcs: dict[int, list[RoadConnection]] = field(default_factory=dict)  # by id
    successors: dict[int, list[int]] = field(default_factory=dict)  # ascending
    rc_down_groups: dict[int, list[str]] = field(default_factory=dict)  # D_r
    rc_up_groups: dict[int, list[str]] = field(default_factory=dict)  # U_r
    # (lane group, next link) -> the lowest-id road connection between them
    rc_toward: dict[tuple[str, int], int] = field(default_factory=dict)
    # road connection -> lowest rc id of its junction: road connections that
    # share an upstream link's downstream end or a downstream link's upstream
    # end interact, and so do the ones those share an end with
    junction_of: dict[int, int] = field(default_factory=dict)

    @classmethod
    def build(cls, links: list[Link], road_connections: list[RoadConnection]) -> "Network":
        net = cls(
            links={l.id: l for l in links},
            road_connections={r.id: r for r in road_connections},
        )
        if len(net.links) != len(links):
            raise NetworkError("duplicate link ids")
        if len(net.road_connections) != len(road_connections):
            raise NetworkError("duplicate road connection ids")
        net.out_rcs = {l.id: [] for l in links}
        in_rcs: dict[int, list[RoadConnection]] = {}
        ordered = sorted(road_connections, key=lambda r: r.id)
        for rc in ordered:
            net.out_rcs.setdefault(rc.up_link, []).append(rc)
            in_rcs.setdefault(rc.down_link, []).append(rc)
        net.successors = {
            l: sorted({r.down_link for r in rcs}) for l, rcs in net.out_rcs.items()
        }
        out_rcs = dict(net.out_rcs)  # both bucket maps are used up below
        for rc in ordered:
            if rc.id in net.junction_of:
                continue
            todo = [rc]
            while todo:
                r = todo.pop()
                net.junction_of[r.id] = rc.id
                todo += out_rcs.pop(r.up_link, []) + in_rcs.pop(r.down_link, [])
        for link in links:
            groups = derive_lane_groups(link, net.out_rcs[link.id])
            net.link_groups[link.id] = [g.id for g in groups]
            for g in groups:
                net.lane_groups[g.id] = g
                for rc_id in g.exiting_rcs:  # ascending: the first one wins
                    down = net.road_connections[rc_id].down_link
                    net.rc_toward.setdefault((g.id, down), rc_id)
        for rc in road_connections:
            net.rc_down_groups[rc.id] = sorted(
                gid
                for gid in net.link_groups.get(rc.down_link, ())
                if rc.down_lanes.intersection(net.lane_groups[gid].lanes)
            )
            net.rc_up_groups[rc.id] = sorted(
                gid
                for gid in net.link_groups.get(rc.up_link, ())
                if rc.id in net.lane_groups[gid].exiting_rcs
            )
        return net

    # --- queries -----------------------------------------------------

    def is_terminal(self, link_id: int) -> bool:
        return not self.out_rcs.get(link_id)

    def next_links(self, link_id: int) -> list[int]:
        return self.successors.get(link_id, [])

    def rc_between(self, up_link: int, down_link: int) -> RoadConnection | None:
        return next(
            (r for r in self.out_rcs.get(up_link, ()) if r.down_link == down_link), None
        )

    def lane_access_fraction(self, rc_id: int, group_id: str) -> float:
        """Portion of lane group `group_id` reachable through road connection
        `rc_id` (number of shared lanes over lanes in the group)."""
        if group_id not in self.rc_down_groups.get(rc_id, []):
            raise NetworkError(
                "lane group %s is not downstream of road connection %s" % (group_id, rc_id)
            )
        rc = self.road_connections[rc_id]
        g = self.lane_groups[group_id]
        return len(rc.down_lanes & set(g.lanes)) / g.num_lanes


def validate_network(net: Network) -> list[str]:
    """Return a list of human-readable diagnostics; empty means valid."""
    diags: list[str] = []
    for rc in net.road_connections.values():
        for side, link_id, lanes in (
            ("upstream", rc.up_link, rc.up_lanes),
            ("downstream", rc.down_link, rc.down_lanes),
        ):
            if link_id not in net.links:
                diags.append(
                    "road connection %s: %s link %s does not exist" % (rc.id, side, link_id)
                )
                continue
            missing = lanes - set(net.links[link_id].lanes)
            if missing:
                diags.append(
                    "road connection %s: lane out of range %s on %s link %s"
                    % (rc.id, sorted(missing), side, link_id)
                )
    for g in net.lane_groups.values():
        down = {}
        for rc_id in g.exiting_rcs:
            rc = net.road_connections[rc_id]
            if rc.down_link in down:
                diags.append(
                    "lane group %s: ambiguous turning options, road connections %s and %s "
                    "both lead to link %s" % (g.id, down[rc.down_link], rc_id, rc.down_link)
                )
            down[rc.down_link] = rc_id
    return diags
