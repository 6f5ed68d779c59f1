"""Scenario files: the schema of their entries, parsing, validation,
serialization, and construction of the runtime objects the engine needs.

A file is read by PyYAML's safe rules (YAML 1.1, libyaml's parser when
present) and built straight from the parser's events into plain maps, lists
and scalars (`_EagerBuild`), each distinct scalar resolved and built once.
Anchors, aliases and `<<` merges work as in PyYAML's safe loader. A document
that contains itself is an error, and so is a collection tagged `!!set`,
`!!omap`, `!!pairs` or the like. `SCHEMA` declares every key of every kind of
entry, and each entry is read through it (`_fields`), so an entry that is
not a map, an unknown or missing key and a value of another type are
errors that name the entry."""

from __future__ import annotations

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
    ScalarEvent,
    SequenceEndEvent,
    SequenceStartEvent,
    StreamEndEvent,
)
from yaml.nodes import ScalarNode

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


# --- the schema --------------------------------------------------------

_R = object()  # the default of a key an entry must give

# The types of values: what an error calls each, its test, and what a value
# that passes becomes (None: itself). An integer is an int and not a bool; a
# number is an int or a float, and becomes a float. Nothing is truncated.
_INT_T, _NUMBER_T = frozenset([int]), frozenset([int, float])
_INT = ("an integer", lambda v: type(v) is int, None)
_NUMBER = ("a number", lambda v: type(v) in _NUMBER_T, float)
_TEXT = ("a string", lambda v: type(v) is str, None)
_NUMBERS = ("a list of numbers", lambda v: type(v) is list and {*map(type, v)} <= _NUMBER_T,
            lambda v: tuple(map(float, v)))
_LIST = ("a list", lambda v: type(v) is list, None)
_ENTRY = ("a map", lambda v: type(v) is dict, None)
_BY_ID = ("a map with integer keys", lambda v: type(v) is dict and {*map(type, v)} <= _INT_T,
          dict)
_ID_TO_ID = ("a map of integers to integers",
             lambda v: type(v) is dict and {*map(type, v), *map(type, v.values())} <= _INT_T,
             dict)
_ANY = ("anything", lambda v: True, None)


def _ints(make):
    """The type of a list of integers, made into `make`."""
    return "a list of integers", lambda v: type(v) is list and {*map(type, v)} <= _INT_T, make


_CONTROL = {"id": (_INT, _R), "kind": (_TEXT, _R), "dt": (_NUMBER, _R)}
_CONTROLLER = {"id": (_INT, _R), "type": (_TEXT, _R), "dt": (_NUMBER, _R),
               "sensors": (_ints(list), ()), "actuators": (_ints(list), ())}

# Every kind of entry a scenario file holds: each key it may have, the type
# of its value, and its default (_R: the entry must give it). The
# entries a list or map holds (`links`, `partials`, `profile`, `ratios`,
# `params`, `stages`, ...) are read as their own kinds where they are built.
# A sensor, actuator or controller takes the keys of the kind or type its
# `kind` or `type` names (`_PICKS`); a model's other keys are its
# parameters, which MODELS declares and `_make_model` reads at validate time.
SCHEMA = {
    "scenario": {
        "name": (_TEXT, "unnamed"),
        "links": (_LIST, _R),
        "road_connections": (_LIST, ()),
        "models": (_LIST, _R),
        "vehicle_types": (_LIST, _R),
        "routes": (_LIST, ()),
        "demands": (_LIST, ()),
        "splits": (_LIST, ()),
        "sensors": (_LIST, ()),
        "actuators": (_LIST, ()),
        "controllers": (_LIST, ()),
        "run": (_ENTRY, _R),
    },
    "link": {"id": (_INT, _R), "length": (_NUMBER, _R), "lanes": (_INT, _R),
             "capacity": (_NUMBER, _R), "speed": (_NUMBER, _R), "jam_density": (_NUMBER, _R),
             "partials": (_LIST, ())},
    "partial": {"position": (_TEXT, _R), "lanes": (_INT, _R), "length": (_NUMBER, _R)},
    "road connection": {"id": (_INT, _R), "up_link": (_INT, _R),
                        "up_lanes": (_ints(frozenset), _R), "down_link": (_INT, _R),
                        "down_lanes": (_ints(frozenset), _R)},
    "model": {"kind": (_TEXT, _R), "links": (_ints(list), _R), "dt": (_NUMBER, _R)},
    "vehicle type": {"id": (_INT, _R), "routing": (_TEXT, _R)},
    "route": {"id": (_INT, _R), "links": (_ints(tuple), _R)},
    "demand": {"link": (_INT, _R), "vtype": (_INT, _R), "profile": (_ENTRY, _R),
               "route": (_INT, None)},
    "profile": {"start": (_NUMBER, 0.0), "period": (_NUMBER, _R), "values": (_NUMBERS, _R)},
    "split": {"link": (_INT, _R), "vtype": (_INT, _R), "ratios": (_BY_ID, _R)},  # of profiles
    "run": {"duration": (_NUMBER, _R), "output_dt": (_NUMBER, 10.0), "seed": (_INT, 0),
            "distribution": (_TEXT, "equalizing")},
    "sensor": _CONTROL,
    "lane_group sensor": {**_CONTROL, "lane_group": (_TEXT, _R)},
    "local sensor": {**_CONTROL, "link": (_INT, _R), "offset": (_NUMBER, 0.0)},
    "probe sensor": {**_CONTROL, "vehicle": (_INT, _R)},
    "actuator": _CONTROL,
    "rc_block actuator": {**_CONTROL, "rc": (_INT, _R)},
    "vsl actuator": {**_CONTROL, "link": (_INT, _R)},
    "router actuator": {**_CONTROL, "vtype": (_INT, _R)},
    "demand actuator": {**_CONTROL, "source": (_INT, _R)},
    "split actuator": {**_CONTROL, "link": (_INT, _R), "vtype": (_INT, _R)},
    "controller": _CONTROLLER,
    "fixed_time_signal controller": {**_CONTROLLER, "params": (_ENTRY, _R)},
    "fixed_time_signal params": {"stages": (_LIST, _R), "rc_actuators": (_ID_TO_ID, _R),
                                 "offset": (_NUMBER, 0.0)},
    "stage": {"duration": (_NUMBER, _R), "open_rcs": (_ANY, None)},  # the signal checks it
    "constant controller": {**_CONTROLLER, "params": (_ENTRY, {})},
    "constant params": {"at": (_NUMBER, 0.0), "commands": (_BY_ID, {})},  # of any command
    "noop controller": _CONTROLLER,
}
_PICKS = {"sensor": "kind", "actuator": "kind", "controller": "type"}


def _typed(key, want: tuple, v):
    what, ok, make = want
    if not ok(v):
        raise ScenarioError("%r must be %s, got %r" % (key, what, v))
    return v if make is None else make(v)


def _fields(d, kind: str) -> dict:
    """Entry `d` read by SCHEMA[kind]: the value of each key it gives, of
    its type, and the default of each it leaves out; a model's other keys
    are its `params`. An entry that is not a map, an unknown kind or type, a
    missing required key, an unknown key or a value of another type is a
    ScenarioError."""
    if type(d) is not dict:
        raise ScenarioError("must be a map, got %r" % (d,))
    keys = SCHEMA[kind]
    pick = _PICKS.get(kind)
    if pick is not None and pick in d:
        keys = SCHEMA.get("%s %s" % (d[pick], kind))
        if keys is None:
            raise ScenarioError("unknown %s %r" % (pick, d[pick]))
    f = {}
    for k, (want, default) in keys.items():
        v = d.get(k, default)
        if v is _R:
            raise ScenarioError("missing required key %r" % k)
        f[k] = v if v is default else _typed(k, want, v)
    if kind == "model":
        f["params"] = {k: v for k, v in d.items() if k not in keys}
    elif not keys.keys() >= d.keys():
        raise ScenarioError("unknown key %r" % next(k for k in d if k not in keys))
    return f


def _owner(kind: str, d, i: int) -> str:
    """How an error names entry `i` of a list of `kind`s: by its id where it
    has one, else by its place."""
    get = d.get if type(d) is dict else {}.get
    if kind in ("scenario", "run"):
        return kind
    if kind == "model":
        return "model %d (%s)" % (i, get("kind"))
    if kind == "demand":
        return "demand %d" % i
    if kind == "split":
        return "split at link %s, type %s" % (get("link"), get("vtype"))
    return "%s %s" % (kind, get("id", "#%d" % i))


def _entries(kind: str, entries, make, diags: list[str] | None = None) -> list:
    """Each of `entries` read as a `kind` and built by `make`. An error names
    its entry: it is raised as a ScenarioError, or, given `diags`, reported
    there and the entry left out."""
    built = []
    for i, d in enumerate(entries):
        try:
            built.append(make(_fields(d, kind)))
        except (ValueError, TypeError) as exc:
            owner, msg = _owner(kind, d, i), str(exc)
            if not msg.startswith((owner + ":", owner + " ")):
                msg = "%s: %s" % (owner, msg)
            if diags is None:
                raise ScenarioError(msg) from exc
            diags.append(msg)
    return built


# --- parsing -----------------------------------------------------------


def _profile(d) -> Profile:
    f = _fields(d, "profile")
    return Profile(start_time=f["start"], period=f["period"], values=f["values"])


def _partial(d) -> PartialLaneStructure:
    if type(d) is dict and "gates" in d:
        raise ScenarioError("partial-lane gates are not supported (the simulator has no gate "
                            "model); remove the 'gates' entry")
    f = _fields(d, "partial")
    if f["position"] in ("inner-upstream", "outer-upstream"):
        raise ScenarioError("partial lanes at the upstream end are not supported (every lane "
                            "group is aligned at the downstream end); got %r" % f["position"])
    return PartialLaneStructure(**f)


def _link(f: dict) -> Link:
    return Link(id=f["id"], length=f["length"], full_lanes=f["lanes"],
                params=RoadParams(f["capacity"], f["speed"], f["jam_density"]),
                partials=tuple(map(_partial, f["partials"])))


def _run(f: dict) -> RunSettings:
    distribution = f.pop("distribution")
    if distribution != "equalizing":
        raise ScenarioError(
            "distribution %r is not supported (fluid is spread over lane groups in proportion "
            "to their free space); remove the 'distribution' entry" % distribution)
    return RunSettings(**f)


def parse_scenario(data: dict) -> Scenario:
    (top,) = _entries("scenario", [data], dict)
    return Scenario(
        name=top["name"],
        links=_entries("link", top["links"], _link),
        road_connections=_entries("road connection", top["road_connections"],
                                  lambda f: RoadConnection(**f)),
        models=_entries("model", top["models"], lambda f: ModelSpec(**f)),
        vehicle_types=_entries("vehicle type", top["vehicle_types"], lambda f: VehicleType(**f)),
        routes=_entries("route", top["routes"], lambda f: Route(**f)),
        demands=_entries("demand", top["demands"], lambda f: DemandProfile(
            link=f["link"], vtype=f["vtype"], profile=_profile(f["profile"]), route=f["route"])),
        splits=_entries("split", top["splits"], lambda f: SplitProfile(
            link=f["link"], vtype=f["vtype"],
            ratios={nl: _profile(p) for nl, p in f["ratios"].items()})),
        # read when they are built, at validate time
        sensors=list(top["sensors"]),
        actuators=list(top["actuators"]),
        controllers=list(top["controllers"]),
        run=_entries("run", [top["run"]], _run)[0],
    )


def scenario_to_dict(sc: Scenario) -> dict:
    """The data of a file that parses to `sc`, with only the keys SCHEMA
    declares."""
    def profile(p: Profile) -> dict:
        return {"start": p.start_time, "period": p.period, "values": list(p.values)}

    return {
        "name": sc.name,
        "links": [{
            "id": l.id, "length": l.length, "lanes": l.full_lanes,
            "capacity": l.params.capacity_per_lane, "speed": l.params.speed_limit,
            "jam_density": l.params.jam_density_per_lane,
            **({"partials": [dict(vars(p)) for p in l.partials]} if l.partials else {}),
        } for l in sc.links],
        "road_connections": [{**vars(r), "up_lanes": sorted(r.up_lanes),
                              "down_lanes": sorted(r.down_lanes)} for r in sc.road_connections],
        "models": [{"kind": m.kind, "links": m.links, "dt": m.dt, **m.params} for m in sc.models],
        "vehicle_types": [dict(vars(v)) for v in sc.vehicle_types],
        "routes": [{"id": r.id, "links": list(r.links)} for r in sc.routes],
        "demands": [{
            "link": d.link, "vtype": d.vtype, "profile": profile(d.profile),
            **({"route": d.route} if d.route is not None else {}),
        } for d in sc.demands],
        "splits": [{"link": s.link, "vtype": s.vtype,
                    "ratios": {nl: profile(p) for nl, p in s.ratios.items()}}
                   for s in sc.splits],
        "sensors": sc.sensors,
        "actuators": sc.actuators,
        "controllers": sc.controllers,
        "run": dict(vars(sc.run)),
    }


_MAP = "tag:yaml.org,2002:map"
_SEQ = "tag:yaml.org,2002:seq"
_STR = "tag:yaml.org,2002:str"
_MERGE = "tag:yaml.org,2002:merge"
_VALUE = "tag:yaml.org,2002:value"
_MISS = object()
_MERGE_KEY = object()  # a `<<` key: its value is merged into its map
# what the safe loader calls the node of each kind of data, or of an unread
# list's first event; anything else is a "scalar"
_NODE_ID = {dict: "mapping", list: "sequence", SequenceStartEvent: "sequence"}


def _mergeable(item, mark, where):
    """Refuse an item of a `<<` list that is not a map, as the safe
    constructor does."""
    if type(item) is not dict:
        raise ConstructorError("while constructing a mapping", mark, "expected a mapping for "
                               "merging, but found %s" % _NODE_ID.get(type(item), "scalar"),
                               where)


class _EagerBuild:
    """Safe-loader overrides that build the document straight from the
    parser's events: plain maps, lists and scalars, to the data the safe
    loader gives.

    A scalar is resolved once per (value, implicit) and built by the safe
    constructor once per (tag, value). A map or list is built as its events
    arrive; one with a tag other than `!!map`, `!!seq` or `!` (`!!set`,
    `!!omap`, `!!pairs`, ...) is refused at its line, since no scenario key
    holds one. An alias is its anchor's object, and a map or list that
    contains itself is an error. The maps a `<<` key names are merged into
    its map in the safe constructor's order: the map's own keys win, and of
    a list of maps the earlier win; a merge of anything else is its error,
    at its place. Every memo belongs to one loader, so to one document."""

    def __init__(self, stream):
        super().__init__(stream)
        self._plain = {}  # (value, implicit) -> data of an untagged scalar
        self._scalars = {}  # (tag, value) -> data
        self._anchors = {}  # anchor -> its data
        self._marks = {}  # anchor -> its start mark
        self._items = {}  # anchor of a list -> the start mark of each item
        self._open = {}  # anchor -> kind of a map or list still being built

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
            data = self._anchored(event)
            if data is _MERGE_KEY:
                raise ConstructorError(None, None, "could not determine a constructor for "
                                       "the tag %r" % _MERGE, self._marks[event.anchor])
            return data
        tag = event.tag
        if cls is not ScalarEvent and tag not in (
                None, "!", _SEQ if cls is SequenceStartEvent else _MAP):
            kind = "sequence" if cls is SequenceStartEvent else "mapping"
            tag = tag.replace("tag:yaml.org,2002:", "!!")
            raise ConstructorError(None, None, "found a %s tagged %s, which no scenario key "
                                   "can hold" % (kind, tag), event.start_mark)
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
            if cls is not SequenceStartEvent:
                data = self._dict(event.start_mark)
            elif anchor is None:
                data = self._list()
            else:  # with its items' marks, for a merge that reaches it by an alias
                data = self._marked_list(self._items.setdefault(anchor, []))
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

    def _marked_list(self, marks):
        get, build = self.get_event, self._build
        data = []
        while type(event := get()) is not SequenceEndEvent:
            data.append(build(event))
            marks.append(event.start_mark if type(event) is not AliasEvent
                         else self._marks[event.anchor])
        return data

    def _dict(self, mark):
        get, build, plain = self.get_event, self._build, self._plain
        data, merged = {}, None
        while type(event := get()) is not MappingEndEvent:
            key = _MISS
            if type(event) is ScalarEvent and event.anchor is None and event.tag is None:
                key = plain.get((event.value, event.implicit), _MISS)
            if key is _MISS:
                key = self._key(event, mark)
                if key is _MERGE_KEY:
                    merged = self._merge(get(), mark, merged or {})
                    continue
            data[key] = build(get())
        if merged:
            merged.update(data)
            return merged
        return data

    def _merge(self, event, mark, into: dict) -> dict:
        """`into` updated with what the `<<` value that starts with `event`
        merges into the map at `mark`, in the order and with the errors of
        the safe constructor's merge: a list's items are checked in turn, and
        its earlier maps win."""
        if (type(event) is SequenceStartEvent and event.anchor is None
                and event.tag in (None, "!", _SEQ)):
            maps, get = [], self.get_event
            while type(item := get()) is not SequenceEndEvent:
                if type(item) is AliasEvent:
                    value, where = self._anchored(item), self._marks[item.anchor]
                elif type(item) is ScalarEvent or type(item) is SequenceStartEvent:
                    value, where = item, item.start_mark  # refused unread
                else:
                    value, where = self._build(item), item.start_mark
                _mergeable(value, mark, where)
                maps.append(value)
        else:
            value = self._build(event)
            if type(value) is dict:
                maps = [value]
            elif type(value) is list:  # an anchored list, built with its items' marks
                maps = value
                for item, where in zip(value, self._items[event.anchor]):
                    _mergeable(item, mark, where)
            else:
                raise ConstructorError(
                    "while constructing a mapping", mark, "expected a mapping or list of "
                    "mappings for merging, but found %s" % _NODE_ID.get(type(value), "scalar"),
                    event.start_mark if event.anchor is None else self._marks[event.anchor])
        for m in reversed(maps):
            into.update(m)
        return into

    def _key(self, event, mark):
        """A map key from its first event: its data, or _MERGE_KEY."""
        if type(event) is not ScalarEvent:
            if type(event) is AliasEvent:
                data = self._anchored(event)
                if data is _MERGE_KEY:
                    return data
                key_mark = self._marks[event.anchor]
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
            data = _MERGE_KEY
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
        """The data an alias names."""
        anchor = alias.anchor
        if anchor in self._open:
            raise ConstructorError(None, None, "found a %s that contains itself"
                                   % self._open[anchor], self._marks[anchor])
        try:
            return self._anchors[anchor]
        except KeyError:
            raise ComposerError(None, None, "found undefined alias %r" % anchor,
                                alias.start_mark) from None


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
        key: _entries(key[:-1], getattr(sc, key), make, diags)
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


# --- runtime construction ---------------------------------------------


def _make_model(spec: ModelSpec):
    cls, defaults = MODELS[spec.kind]
    params = dict(defaults)
    for k, v in spec.params.items():
        if k not in defaults:
            raise ValueError("unknown parameter %r" % k)
        params[k] = _typed(k, _NUMBER, v)
    return cls(dt=spec.dt, **params)


def _make_sensor(f: dict):
    kind, common = f["kind"], {"id": f["id"], "dt": f["dt"]}
    if kind == "lane_group":
        return control.LaneGroupSensor(**common, group_id=f["lane_group"])
    if kind == "local":
        return control.LocalSensor(**common, link=f["link"], offset_m=f["offset"])
    return control.ProbeSensor(**common, vehicle_id=f["vehicle"])


# each actuator kind's class, whose fields are its keys
_ACTUATORS = {"rc_block": control.RcBlockActuator, "vsl": control.VslActuator,
              "router": control.RouterActuator, "demand": control.DemandActuator,
              "split": control.SplitActuator}


def _make_actuator(f: dict):
    return _ACTUATORS[f.pop("kind")](**f)


def _make_controller(f: dict):
    ctype = f["type"]
    if ctype == "fixed_time_signal":
        p = _fields(f["params"], "fixed_time_signal params")
        algo = control.FixedTimeSignal(stages=[_fields(s, "stage") for s in p["stages"]],
                                       rc_actuators=p["rc_actuators"], offset=p["offset"])
    elif ctype == "constant":
        p = _fields(f["params"], "constant params")
        algo = control.ConstantCommand(at_time=p["at"], commands=p["commands"])
    else:
        algo = None
    return control.Controller(id=f["id"], dt=f["dt"], sensor_ids=f["sensors"],
                              actuator_ids=f["actuators"], algorithm=algo)


def build_runtime(sc: Scenario) -> dict:
    """The runtime objects `_checked` built, plus the demand sources; raises
    on any diagnostic."""
    runtime, diags = _checked(sc)
    if diags:
        raise ScenarioError("invalid scenario:\n  " + "\n  ".join(diags))
    runtime["sources"] = [Source(id=i, demand=d) for i, d in enumerate(sc.demands)]
    return runtime
