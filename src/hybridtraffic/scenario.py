"""Scenario files: YAML schema, parsing, validation, serialization, and
construction of the runtime objects the engine needs.

A file is read by PyYAML's safe rules (YAML 1.1, libyaml's parser when
present) and built straight from the parser's events, with no node tree
(`_EagerBuild`), each distinct scalar resolved and built once. Anchors,
aliases and `<<` merges work as in PyYAML's safe loader; a document that
contains itself is an error."""

from __future__ import annotations

import contextlib
import math
from collections.abc import Hashable
from dataclasses import dataclass, field
from operator import attrgetter

import yaml
from yaml.composer import ComposerError
from yaml.constructor import ConstructorError
from yaml.events import (
    AliasEvent,
    MappingEndEvent,
    MappingStartEvent,
    ScalarEvent,
    SequenceEndEvent,
    SequenceStartEvent,
    StreamEndEvent,
)
from yaml.nodes import MappingNode, Node, ScalarNode, SequenceNode

from . import control
from .demand import (
    DemandProfile,
    Profile,
    Route,
    RoutingContext,
    Source,
    SplitProfile,
    VehicleType,
)
from .models.ctm import CtmModel
from .models.newell import NewellModel
from .models.twoqueue import TwoQueueModel
from .network import (
    Link,
    Network,
    PartialLaneStructure,
    RoadConnection,
    RoadParams,
    validate_network,
)

# each model kind's class and its parameters, with their defaults
MODELS = {
    "ctm": (CtmModel, {"max_cell_length": 100.0, "lc_supply_factor": 1.0}),
    "two_queue": (TwoQueueModel, {}),
    "newell": (NewellModel, {"sigma_v": 0.0, "sigma_w": 0.0, "sigma_f": 0.0}),
}


class ScenarioError(ValueError):
    pass


@dataclass
class ModelSpec:
    kind: str
    links: list[int]
    dt: float
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in MODELS:
            raise ScenarioError("unknown model kind %r" % self.kind)
        if not 0 < self.dt < math.inf:
            raise ScenarioError("model dt must be positive and finite")
        if not self.links:
            raise ScenarioError("model spec with no links")


@dataclass
class RunSettings:
    duration: float
    output_dt: float = 10.0
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.duration < math.inf:
            raise ScenarioError("run duration must be positive and finite")
        if not 0 < self.output_dt < math.inf:
            raise ScenarioError("output period must be positive and finite")


@dataclass
class Scenario:
    name: str
    links: list[Link]
    road_connections: list[RoadConnection]
    models: list[ModelSpec]
    vehicle_types: list[VehicleType]
    routes: list[Route]
    demands: list[DemandProfile]
    splits: list[SplitProfile]
    sensors: list[dict] = field(default_factory=list)
    actuators: list[dict] = field(default_factory=list)
    controllers: list[dict] = field(default_factory=list)
    run: RunSettings = field(default_factory=lambda: RunSettings(duration=3600.0))


# --- parsing -----------------------------------------------------------


@contextlib.contextmanager
def _entry(owner: str):
    """Report a constructor's or a number conversion's error as a
    `ScenarioError` naming the entry."""
    try:
        yield
    except (ValueError, TypeError) as exc:
        msg = str(exc)
        named = msg.startswith((owner + ":", owner + " "))
        raise ScenarioError(msg if named else "%s: %s" % (owner, msg)) from exc


def _profile(d: dict) -> Profile:
    return Profile(
        start_time=float(d.get("start", 0.0)),
        period=float(d["period"]),
        values=tuple(float(v) for v in d["values"]),
    )


def _profile_dict(p: Profile) -> dict:
    return {"start": p.start_time, "period": p.period, "values": list(p.values)}


def _partial(link_id, d: dict) -> PartialLaneStructure:
    if "gates" in d:
        raise ScenarioError(
            "link %s: partial-lane gates are not supported (the simulator has no "
            "gate model); remove the 'gates' entry" % link_id
        )
    if d.get("position") in ("inner-upstream", "outer-upstream"):
        raise ScenarioError(
            "link %s: partial lanes at the upstream end are not supported (every "
            "lane group is aligned at the downstream end); got %r" % (link_id, d["position"])
        )
    return PartialLaneStructure(
        position=d["position"], lanes=int(d["lanes"]), length=float(d["length"])
    )


def parse_scenario(data: dict) -> Scenario:
    try:
        links = []
        for d in data["links"]:
            with _entry("link %s" % d.get("id")):
                partials = tuple(_partial(d.get("id"), p) for p in d.get("partials", []))
                links.append(Link(
                    id=int(d["id"]),
                    length=float(d["length"]),
                    full_lanes=int(d["lanes"]),
                    params=RoadParams(
                        capacity_per_lane=float(d["capacity"]),
                        speed_limit=float(d["speed"]),
                        jam_density_per_lane=float(d["jam_density"]),
                    ),
                    partials=partials,
                ))
        rcs = []
        for d in data.get("road_connections", []):
            with _entry("road connection %s" % d.get("id")):
                rcs.append(RoadConnection(
                    id=int(d["id"]),
                    up_link=int(d["up_link"]),
                    up_lanes=frozenset(int(l) for l in d["up_lanes"]),
                    down_link=int(d["down_link"]),
                    down_lanes=frozenset(int(l) for l in d["down_lanes"]),
                ))
        models = []
        for i, d in enumerate(data["models"]):
            with _entry("model %d (%s)" % (i, d.get("kind"))):
                models.append(ModelSpec(
                    kind=d["kind"],
                    links=[int(l) for l in d["links"]],
                    dt=float(d["dt"]),
                    params={k: v for k, v in d.items() if k not in ("kind", "links", "dt")},
                ))
        vtypes, routes = [], []
        for d in data["vehicle_types"]:
            with _entry("vehicle type %s" % d.get("id")):
                vtypes.append(VehicleType(id=int(d["id"]), routing=d["routing"]))
        for d in data.get("routes", []):
            with _entry("route %s" % d.get("id")):
                routes.append(Route(id=int(d["id"]), links=tuple(int(l) for l in d["links"])))
        demands = []
        for i, d in enumerate(data.get("demands", [])):
            with _entry("demand %d" % i):
                demands.append(DemandProfile(
                    link=int(d["link"]),
                    vtype=int(d["vtype"]),
                    profile=_profile(d["profile"]),
                    route=int(d["route"]) if d.get("route") is not None else None,
                ))
        splits = []
        for d in data.get("splits", []):
            with _entry("split at link %(link)s, type %(vtype)s" % d):
                splits.append(SplitProfile(
                    link=int(d["link"]),
                    vtype=int(d["vtype"]),
                    ratios={int(nl): _profile(p) for nl, p in d["ratios"].items()},
                ))
        run_d = data["run"]
        if run_d.get("distribution", "equalizing") != "equalizing":
            raise ScenarioError(
                "run: distribution %r is not supported (fluid is spread over lane "
                "groups in proportion to their free space); remove the "
                "'distribution' entry" % run_d["distribution"]
            )
        with _entry("run"):
            run = RunSettings(
                duration=float(run_d["duration"]),
                output_dt=float(run_d.get("output_dt", 10.0)),
                seed=int(run_d.get("seed", 0)),
            )
    except KeyError as exc:
        raise ScenarioError("missing required field %s" % exc) from exc
    return Scenario(
        name=str(data.get("name", "unnamed")),
        links=links,
        road_connections=rcs,
        models=models,
        vehicle_types=vtypes,
        routes=routes,
        demands=demands,
        splits=splits,
        sensors=list(data.get("sensors", [])),
        actuators=list(data.get("actuators", [])),
        controllers=list(data.get("controllers", [])),
        run=run,
    )


def scenario_to_dict(sc: Scenario) -> dict:
    return {
        "name": sc.name,
        "links": [
            {
                "id": l.id,
                "length": l.length,
                "lanes": l.full_lanes,
                "capacity": l.params.capacity_per_lane,
                "speed": l.params.speed_limit,
                "jam_density": l.params.jam_density_per_lane,
                **(
                    {
                        "partials": [
                            {
                                "position": p.position,
                                "lanes": p.lanes,
                                "length": p.length,
                            }
                            for p in l.partials
                        ]
                    }
                    if l.partials
                    else {}
                ),
            }
            for l in sc.links
        ],
        "road_connections": [
            {
                "id": r.id,
                "up_link": r.up_link,
                "up_lanes": sorted(r.up_lanes),
                "down_link": r.down_link,
                "down_lanes": sorted(r.down_lanes),
            }
            for r in sc.road_connections
        ],
        "models": [
            {"kind": m.kind, "links": m.links, "dt": m.dt, **m.params}
            for m in sc.models
        ],
        "vehicle_types": [
            {"id": v.id, "routing": v.routing} for v in sc.vehicle_types
        ],
        "routes": [{"id": r.id, "links": list(r.links)} for r in sc.routes],
        "demands": [
            {
                "link": d.link,
                "vtype": d.vtype,
                "profile": _profile_dict(d.profile),
                **({"route": d.route} if d.route is not None else {}),
            }
            for d in sc.demands
        ],
        "splits": [
            {
                "link": s.link,
                "vtype": s.vtype,
                "ratios": {nl: _profile_dict(p) for nl, p in s.ratios.items()},
            }
            for s in sc.splits
        ],
        "sensors": sc.sensors,
        "actuators": sc.actuators,
        "controllers": sc.controllers,
        "run": {
            "duration": sc.run.duration,
            "output_dt": sc.run.output_dt,
            "seed": sc.run.seed,
        },
    }


_MAP = "tag:yaml.org,2002:map"
_SEQ = "tag:yaml.org,2002:seq"
_STR = "tag:yaml.org,2002:str"
_MERGE = "tag:yaml.org,2002:merge"
_VALUE = "tag:yaml.org,2002:value"
_MISS = object()


class _EagerBuild:
    """Safe-loader overrides that build the document straight from the
    parser's events, to the data the safe loader alone gives.

    A scalar is resolved once per (value, implicit) and built once per
    (tag, value). Plain maps and lists are built here as their events
    arrive; no node is made for them. A collection with any other tag is
    composed into nodes, with all it holds, and built by the safe
    constructor; so is the value of a `<<` key, whose pairs the safe
    constructor's `flatten_mapping` merges ahead of the map's own. An alias
    is its anchor's object: where nodes are read, a built object stands in
    as a node that the constructor reads back as that object. A map or list
    that contains itself is an error. Every memo belongs to one loader, so
    to one document."""

    def __init__(self, stream):
        super().__init__(stream)
        self._plain = {}  # (value, implicit) -> data of an untagged scalar
        self._scalars = {}  # (tag, value) -> data
        self._anchors = {}  # anchor -> its data, or its node if composed
        self._marks = {}  # anchor -> its start mark
        self._open = {}  # anchor -> kind of a map or list still being built
        self._nodes = {}  # id(data) -> the node the constructor reads as data

    def get_single_data(self):
        get = self.get_event
        get()  # stream start
        if type(get()) is StreamEndEvent:
            return None
        root = get()
        data = self._build(root)
        get()  # document end
        event = get()
        if type(event) is not StreamEndEvent:
            raise ComposerError("expected a single document in the stream", root.start_mark,
                                "but found another document", event.start_mark)
        return data

    def _build(self, event):
        """The data of the node that starts with `event`, read to its end."""
        cls = type(event)
        if cls is AliasEvent:
            return self._data(self._anchored(event))
        tag = event.tag
        if cls is not ScalarEvent and tag not in (
                None, "!", _SEQ if cls is SequenceStartEvent else _MAP):
            return self._data(self._compose(event))
        anchor = event.anchor
        if anchor is not None:
            self._name(event)
        if cls is ScalarEvent:
            if tag is None:
                key = event.value, event.implicit
                try:
                    data = self._plain[key]
                except KeyError:
                    data = self._plain[key] = self._scalar(
                        event, self.resolve(ScalarNode, *key))
            else:
                data = self._scalar(event, self._tag(event))
        else:
            if anchor is not None:
                self._open[anchor] = "sequence" if cls is SequenceStartEvent else "mapping"
            data = self._list() if cls is SequenceStartEvent else self._dict(event.start_mark)
            if anchor is not None:
                del self._open[anchor]
        if anchor is not None:
            self._anchors[anchor] = data
        return data

    def _list(self):
        get, build = self.get_event, self._build
        data = []
        while type(event := get()) is not SequenceEndEvent:
            data.append(build(event))
        return data

    def _dict(self, mark):
        get, build, plain = self.get_event, self._build, self._plain
        data, merges = {}, []
        while type(event := get()) is not MappingEndEvent:
            key = _MISS
            if type(event) is ScalarEvent and event.anchor is None and event.tag is None:
                key = plain.get((event.value, event.implicit), _MISS)
            if key is _MISS:
                key = self._key(event, mark)
                if type(key) is ScalarNode:  # the key of a `<<` merge
                    source = MappingNode(_MAP, [(key, self._compose(get()))], mark, mark)
                    self.flatten_mapping(source)
                    merges += source.value
                    continue
            data[key] = build(get())
        if merges:
            merged = self.construct_mapping(MappingNode(_MAP, merges, mark, mark), deep=True)
            merged.update(data)
            data = merged
        return data

    def _key(self, event, mark):
        """A map key from its first event: its data, or its node if it is
        the key of a `<<` merge."""
        if type(event) is not ScalarEvent:
            if type(event) is AliasEvent:
                obj = self._anchored(event)
                if type(obj) is ScalarNode and obj.tag == _MERGE:
                    return obj
                data, key_mark = self._data(obj), self._marks[event.anchor]
            else:
                data, key_mark = self._build(event), event.start_mark
            if not isinstance(data, Hashable):
                raise ConstructorError("while constructing a mapping", mark,
                                       "found unhashable key", key_mark)
            return data
        if event.anchor is not None:
            self._name(event)
        tag = self._tag(event)
        if tag == _MERGE:
            data = ScalarNode(tag, event.value, event.start_mark, event.end_mark, event.style)
        elif tag == _VALUE:  # `=` is a string key
            data = self._scalar(event, _STR)
        else:
            data = self._scalar(event, tag)
            if event.tag is None:
                self._plain[event.value, event.implicit] = data
        if event.anchor is not None:
            self._anchors[event.anchor] = data
        return data

    def _tag(self, event):
        tag = event.tag
        if tag is None or tag == "!":
            return self.resolve(ScalarNode, event.value, event.implicit)
        return tag

    def _scalar(self, event, tag):
        """A scalar's data under `tag`, built once per (tag, value)."""
        key = tag, event.value
        try:
            return self._scalars[key]
        except KeyError:
            node = ScalarNode(tag, event.value, event.start_mark, event.end_mark, event.style)
            data = self._scalars[key] = self.construct_object(node, deep=True)
            return data

    def _name(self, event):
        anchor = event.anchor
        if anchor in self._marks:
            raise ComposerError("found duplicate anchor %r; first occurrence" % anchor,
                                self._marks[anchor], "second occurrence", event.start_mark)
        self._marks[anchor] = event.start_mark

    def _anchored(self, alias):
        """What an alias names: built data, or a node."""
        anchor = alias.anchor
        if anchor in self._open:
            raise ConstructorError(None, None, "found a %s that contains itself"
                                   % self._open[anchor], self._marks[anchor])
        try:
            return self._anchors[anchor]
        except KeyError:
            raise ComposerError(None, None, "found undefined alias %r" % anchor,
                                alias.start_mark) from None

    def _data(self, obj):
        """Built data as it is; a node built by the safe constructor."""
        if not isinstance(obj, Node):
            return obj
        data = self.construct_object(obj, deep=True)
        self._nodes[id(data)] = obj
        return data

    def _compose(self, event):
        """The node that starts with `event`, with every node under it, for
        the safe constructor."""
        cls = type(event)
        if cls is AliasEvent:
            anchor = event.anchor
            obj = self._anchored(event)
            return obj if isinstance(obj, Node) else self._stand_in(obj, self._marks[anchor])
        anchor, tag = event.anchor, event.tag
        if anchor is not None:
            self._name(event)
        if cls is ScalarEvent:
            node = ScalarNode(self._tag(event), event.value, event.start_mark, event.end_mark,
                              event.style)
        else:
            kind = SequenceNode if cls is SequenceStartEvent else MappingNode
            if tag is None or tag == "!":
                tag = self.resolve(kind, None, event.implicit)
            node = kind(tag, [], event.start_mark, None, event.flow_style)
        if anchor is not None:
            self._anchors[anchor] = node
        get = self.get_event
        if cls is SequenceStartEvent:
            while type(event := get()) is not SequenceEndEvent:
                node.value.append(self._compose(event))
            node.end_mark = event.end_mark
        elif cls is MappingStartEvent:
            while type(event := get()) is not MappingEndEvent:
                node.value.append((self._compose(event), self._compose(get())))
            node.end_mark = event.end_mark
        return node

    def _stand_in(self, data, mark):
        """A node the safe constructor reads as the built `data`, with nodes
        under it for what `data` holds."""
        node = self._nodes.get(id(data))
        if node is None:
            if type(data) is dict:
                node = MappingNode(_MAP, [(self._stand_in(k, None), self._stand_in(v, None))
                                          for k, v in data.items()], mark, mark)
            elif type(data) is list:
                node = SequenceNode(_SEQ, [self._stand_in(x, None) for x in data], mark, mark)
            else:
                node = ScalarNode(None, None, mark, mark)
            self._nodes[id(data)] = node
            self.constructed_objects[node] = data
        return node


class _Loader(_EagerBuild, getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    pass


def load_scenario(path: str) -> Scenario:
    with open(path) as f:
        data = yaml.load(f, Loader=_Loader)
    if not isinstance(data, dict):
        raise ScenarioError("scenario file must contain a mapping")
    return parse_scenario(data)


def save_scenario(sc: Scenario, path: str):
    with open(path, "w") as f:
        yaml.safe_dump(scenario_to_dict(sc), f, sort_keys=False)


# --- validation --------------------------------------------------------


def validate_scenario(sc: Scenario) -> list[str]:
    """Structural and referential checks; returns diagnostics (empty = ok)."""
    return _checked(sc)[1]


def _checked(sc: Scenario) -> tuple[dict, list[str]]:
    """Build every runtime object once (network, models, routing context,
    control elements) and run every scenario check against what was built;
    a construction error becomes a diagnostic naming the element."""
    diags: list[str] = []
    try:
        net = Network.build(sc.links, sc.road_connections)
    except Exception as exc:
        return {}, ["network: %s" % exc]
    diags += validate_network(net)

    link_ids = set(net.links)
    assigned: dict[int, int] = {}
    models, model_of_link = [], {}
    for i, spec in enumerate(sc.models):
        for l in spec.links:
            if l not in link_ids:
                diags.append("model %d references unknown link %s" % (i, l))
            elif l in assigned:
                diags.append(
                    "link %s assigned to models %d and %d" % (l, assigned[l], i)
                )
            else:
                assigned[l] = i
        if not link_ids.issuperset(spec.links):
            continue
        try:
            m = _make_model(spec)
            m.build(net, spec.links)
        except (ValueError, TypeError) as exc:
            diags.append("model %d (%s): %s" % (i, spec.kind, exc))
            continue
        models.append(m)
        model_of_link.update(dict.fromkeys(spec.links, m))
    for l in sorted(link_ids - set(assigned)):
        diags.append("link %s has no model assigned" % l)

    vtype_of = _keyed(sc.vehicle_types, attrgetter("id"), "vehicle type id %s", diags)
    route_of = _keyed(sc.routes, attrgetter("id"), "route id %s", diags)
    split_of = _keyed(sc.splits, attrgetter("link", "vtype"),
                      "split profile for link %s, type %s", diags)
    for r in sc.routes:
        for a, b in zip(r.links, r.links[1:]):
            if a not in link_ids or b not in link_ids:
                diags.append("route %s references unknown links" % r.id)
            elif net.rc_between(a, b) is None:
                diags.append(
                    "route %s: no road connection from link %s to link %s"
                    % (r.id, a, b)
                )
    for d in sc.demands:
        if d.link not in link_ids:
            diags.append("demand references unknown link %s" % d.link)
        if d.vtype not in vtype_of:
            diags.append("demand references unknown vehicle type %s" % d.vtype)
        vt = vtype_of.get(d.vtype)
        if vt is not None and vt.is_routed:
            if d.route is None:
                diags.append(
                    "demand for routed type %s at link %s has no route" % (d.vtype, d.link)
                )
            elif d.route not in route_of:
                diags.append("demand references unknown route %s" % d.route)
            else:
                route = route_of[d.route]
                if route.links[0] != d.link:
                    diags.append(
                        "demand at link %s uses route %s which starts at link %s"
                        % (d.link, d.route, route.links[0])
                    )
    for s in sc.splits:
        if s.link not in link_ids:
            diags.append("split references unknown link %s" % s.link)
            continue
        if s.vtype not in vtype_of:
            diags.append("split references unknown vehicle type %s" % s.vtype)
        bad = set(s.ratios) - set(net.next_links(s.link))
        if bad:
            diags.append(
                "split at link %s names non-successor links %s" % (s.link, sorted(bad))
            )
        t = _zero_split_time(s, sc.run.duration)
        if t is not None:
            diags.append("split at link %s, type %s: ratios sum to zero at t=%g"
                         % (s.link, s.vtype, t))
    # probabilistic types need splits at true diverges they can reach; checked
    # lazily at run time, but flag diverges with no split at all
    prob_types = [v.id for v in vtype_of.values() if not v.is_routed]
    if prob_types and any(d.vtype in prob_types for d in sc.demands):
        for l in sorted(link_ids):
            nexts = net.next_links(l)
            if len(nexts) > 1:
                for vt in prob_types:
                    if (l, vt) not in split_of:
                        diags.append(
                            "diverge link %s has no split profile for type %s" % (l, vt)
                        )

    elements = {
        key: _built(key[:-1], make, getattr(sc, key), diags)
        for key, make in (("sensors", _make_sensor), ("actuators", _make_actuator),
                          ("controllers", _make_controller))
    }
    # field of a control element -> (what it names, the ids it may take)
    names = {
        "group_id": ("lane group", net.lane_groups),
        "link": ("link", link_ids),
        "rc": ("road connection", net.road_connections),
        "vtype": ("vehicle type", vtype_of),
        "source": ("source", range(len(sc.demands))),
    }
    by_id = {}
    for key, built in elements.items():
        label = key[:-1]
        by_id[key] = _keyed(built, attrgetter("id"), label + " id %s", diags)
        for e in built:
            if not 0 < e.dt < math.inf:
                diags.append("%s %s: period dt must be positive and finite, got %r"
                             % (label, e.id, e.dt))
            for f, v in vars(e).items():
                if f in names and v not in names[f][1]:
                    diags.append("%s %s: unknown %s %r" % (label, e.id, names[f][0], v))
    actuator_of = by_id["actuators"]
    for c in elements["controllers"]:
        for sid in c.sensor_ids:
            if sid not in by_id["sensors"]:
                diags.append("controller %s references unknown sensor %s" % (c.id, sid))
        for aid in c.actuator_ids:
            if aid not in actuator_of:
                diags.append("controller %s references unknown actuator %s" % (c.id, aid))
        alg = c.algorithm
        if isinstance(alg, control.FixedTimeSignal):
            plan, named = "signal plan", set(alg.rc_actuators.values())
        elif isinstance(alg, control.ConstantCommand):
            plan, named = "constant command", set(alg.commands)
        else:
            continue
        for aid in sorted(named - set(c.actuator_ids)):
            diags.append("controller %s: %s names actuator %s it does not own"
                         % (c.id, plan, aid))
        if plan == "signal plan":
            # each road connection of the plan opens and closes through the
            # rc_block actuator of that road connection
            for rc, aid in sorted(alg.rc_actuators.items()):
                act = actuator_of.get(aid)
                if act is None or isinstance(act, control.RcBlockActuator) and act.rc == rc:
                    continue
                what = ("blocks road connection %s" % act.rc
                        if isinstance(act, control.RcBlockActuator)
                        else "is not an rc_block actuator")
                diags.append("controller %s: signal plan drives road connection %s through "
                             "actuator %s, which %s" % (c.id, rc, aid, what))
        if plan == "constant command":
            # by the rule the actuator applies at run time
            for aid, cmd in sorted(alg.commands.items()):
                act = actuator_of.get(aid)
                try:
                    if (isinstance(act, control.SplitActuator) and act.link in link_ids
                            and isinstance(cmd, dict)):
                        act.ratios(net, cmd)
                    elif isinstance(act, control.VslActuator) and act.link in link_ids:
                        act.speed(net, cmd)
                    elif isinstance(act, control.DemandActuator):
                        act.intensity(cmd)
                    elif isinstance(act, control.RcBlockActuator):
                        act.is_open(cmd)
                    elif isinstance(act, control.RouterActuator):
                        act.route(route_of, cmd)
                    # every actuator takes its command as a map
                    if not isinstance(cmd, dict):
                        raise control.ControlError("command %r is not a map" % (cmd,))
                except control.ControlError as exc:
                    diags.append("controller %s: constant command to actuator %s: %s"
                                 % (c.id, aid, exc))
    runtime = {
        "network": net,
        "models": models,
        "model_of_link": model_of_link,
        "routing": RoutingContext(net, vtype_of, route_of, split_of),
        **elements,
    }
    return runtime, diags


def _zero_split_time(sp: SplitProfile, duration: float) -> float | None:
    """The first time within the run at which the split's ratios sum to
    zero, or None: checked at each breakpoint of its profiles (where a later
    value takes over) and halfway between each two."""
    marks = sorted({0.0, duration} | {
        t for p in sp.ratios.values() for k in range(1, len(p.values))
        if 0.0 < (t := p.start_time + k * p.period) < duration})
    for t in sorted(marks + [(a + b) / 2 for a, b in zip(marks, marks[1:])]):
        if sum(p.value_at(t) for p in sp.ratios.values()) <= 0:
            return t
    return None


def _keyed(items: list, key, duplicate: str, diags: list[str]) -> dict:
    """Items by key; the first of a duplicate key is kept and each later one
    reported as `duplicate` formatted with the key."""
    out = {}
    for x in items:
        k = key(x)
        if k in out:
            diags.append("duplicate " + duplicate % k)
        else:
            out[k] = x
    return out


def _built(label: str, make, entries: list[dict], diags: list[str]) -> list:
    """Each entry built by `make`; a construction error becomes a diagnostic
    naming the entry, which is then left out."""
    built = []
    for i, d in enumerate(entries):
        try:
            built.append(make(d))
        except KeyError as exc:
            diags.append("%s %s: missing field %s" % (label, d.get("id", "#%d" % i), exc))
        except (ValueError, TypeError) as exc:
            diags.append("%s %s: %s" % (label, d.get("id", "#%d" % i), exc))
    return built


# --- runtime construction ---------------------------------------------


def _make_model(spec: ModelSpec):
    cls, defaults = MODELS[spec.kind]
    for k in spec.params:
        if k not in defaults:
            raise ValueError("unknown parameter %r" % k)
    return cls(dt=spec.dt, **{k: float(spec.params.get(k, d)) for k, d in defaults.items()})


def _make_sensor(d: dict):
    kind = d["kind"]
    if kind == "lane_group":
        return control.LaneGroupSensor(
            id=int(d["id"]), dt=float(d["dt"]), group_id=str(d["lane_group"])
        )
    if kind == "local":
        return control.LocalSensor(
            id=int(d["id"]), dt=float(d["dt"]),
            link=int(d["link"]), offset_m=float(d.get("offset", 0.0)),
        )
    if kind == "probe":
        return control.ProbeSensor(
            id=int(d["id"]), dt=float(d["dt"]), vehicle_id=int(d["vehicle"])
        )
    raise ScenarioError("unknown kind %r" % kind)


def _make_actuator(d: dict):
    kind = d["kind"]
    aid, dt = int(d["id"]), float(d["dt"])
    if kind == "rc_block":
        return control.RcBlockActuator(id=aid, dt=dt, rc=int(d["rc"]))
    if kind == "vsl":
        return control.VslActuator(id=aid, dt=dt, link=int(d["link"]))
    if kind == "router":
        return control.RouterActuator(id=aid, dt=dt, vtype=int(d["vtype"]))
    if kind == "demand":
        return control.DemandActuator(id=aid, dt=dt, source=int(d["source"]))
    if kind == "split":
        return control.SplitActuator(
            id=aid, dt=dt, link=int(d["link"]), vtype=int(d["vtype"])
        )
    raise ScenarioError("unknown kind %r" % kind)


def _make_controller(d: dict):
    ctype = d["type"]
    params = d.get("params", {})
    if ctype == "fixed_time_signal":
        algo = control.FixedTimeSignal(
            stages=params["stages"],
            rc_actuators={int(k): int(v) for k, v in params["rc_actuators"].items()},
            offset=float(params.get("offset", 0.0)),
        )
    elif ctype == "constant":
        algo = control.ConstantCommand(
            at_time=float(params.get("at", 0.0)),
            commands={int(k): v for k, v in params.get("commands", {}).items()},
        )
    elif ctype == "noop":
        algo = None
    else:
        raise ScenarioError("unknown type %r" % ctype)
    return control.Controller(
        id=int(d["id"]),
        dt=float(d["dt"]),
        sensor_ids=[int(s) for s in d.get("sensors", [])],
        actuator_ids=[int(a) for a in d.get("actuators", [])],
        algorithm=algo,
    )


def build_runtime(sc: Scenario) -> dict:
    """The runtime objects `_checked` built, plus the demand sources; raises
    on any diagnostic."""
    runtime, diags = _checked(sc)
    if diags:
        raise ScenarioError("invalid scenario:\n  " + "\n  ".join(diags))
    runtime["sources"] = [Source(id=i, demand=d) for i, d in enumerate(sc.demands)]
    return runtime
