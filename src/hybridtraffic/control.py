"""Control layer: sensors, actuators, and controllers.

Sensors sample the running simulation, controllers map measurements to
commands on their own clock, and actuators apply pending commands on
theirs. All three fire at fixed periods managed by the engine.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

log = logging.getLogger(__name__)


class ControlError(ValueError):
    pass


# --- sensors -----------------------------------------------------------


@dataclass
class Sensor:
    id: int
    dt: float
    last: dict = field(default_factory=dict)
    history: list = field(default_factory=list)

    def read(self, engine, now: float):
        m = self.measure(engine, now)
        m["time"] = now
        self.last = m
        self.history.append(m)

    def measure(self, engine, now: float) -> dict:
        raise NotImplementedError


@dataclass
class LaneGroupSensor(Sensor):
    """Aggregate count and mean speed over one lane group."""

    group_id: str = ""

    def measure(self, engine, now):
        model = engine.model_of_group[self.group_id]
        return {
            "count_veh": model.total_vehicles(self.group_id),
            "speed_kmh": model.mean_speed_kmh(self.group_id),
        }


@dataclass
class LocalSensor(Sensor):
    """Point detector at a fixed offset along a link: flow over the sensor
    period, local density, and the derived space-mean speed."""

    link: int = 0
    offset_m: float = 0.0
    _prev_cum: float | None = None

    def measure(self, engine, now):
        model = engine.model_of_link[self.link]
        cum = model.local_cumulative_count(self.link, self.offset_m)
        density_per_m = model.local_density_per_m(self.link, self.offset_m)
        if self._prev_cum is None:
            flow_vph = 0.0
        else:
            flow_vph = (cum - self._prev_cum) / self.dt * 3600.0
        self._prev_cum = cum
        if density_per_m > 1e-12:
            speed_kmh = (flow_vph / 3600.0) / density_per_m * 3.6
        else:
            speed_kmh = model.speed_limit_eff[self.link]
        return {
            "flow_vph": flow_vph,
            "density_vpkm": density_per_m * 1000.0,
            "speed_kmh": speed_kmh,
        }


@dataclass
class ProbeSensor(Sensor):
    """Tracks one vehicle; keeps reporting a virtual position if the vehicle
    dissolves into a fluid link."""

    vehicle_id: int = -1

    def measure(self, engine, now):
        hit = engine.find_vehicle(self.vehicle_id)
        if hit is None:
            return {"active": False}
        link, group_id, pos, speed = hit
        return {
            "active": True,
            "link": link,
            "group": group_id,
            "position_m": pos,
            "speed_kmh": speed,
        }


# --- actuators ---------------------------------------------------------


@dataclass
class Actuator:
    id: int
    dt: float
    pending: dict | None = None

    def command(self, cmd: dict):
        self.pending = dict(cmd)

    def flush(self, engine, now: float):
        if self.pending is None:
            return
        self.apply(engine, now, self.pending)
        self.pending = None

    def apply(self, engine, now: float, cmd: dict):
        raise NotImplementedError


@dataclass
class RcBlockActuator(Actuator):
    """Opens or closes one road connection."""

    rc: int = -1

    @staticmethod
    def is_open(cmd) -> bool:
        """The command's `open`, True when it has none; raises ControlError
        unless the command is a map and its `open` a bool."""
        is_open = cmd.get("open", True) if isinstance(cmd, dict) else None
        if not isinstance(is_open, bool):
            raise ControlError("rc_block command %r: 'open' must be true or false" % (cmd,))
        return is_open

    def apply(self, engine, now, cmd):
        if self.is_open(cmd):
            engine.closed_rcs.discard(self.rc)
        else:
            engine.closed_rcs.add(self.rc)


@dataclass
class VslActuator(Actuator):
    """Variable speed limit on one link, clamped at the structural limit."""

    link: int = -1

    def speed(self, net, cmd) -> float:
        """The command's `speed_kmh` as a finite positive float, clamped at
        the link's structural limit; raises ControlError otherwise."""
        if not isinstance(cmd, dict) or "speed_kmh" not in cmd:
            raise ControlError("speed limit command %r has no 'speed_kmh'" % (cmd,))
        try:
            v = float(cmd["speed_kmh"])
        except (TypeError, ValueError):
            raise ControlError("speed limit %r is not a number" % (cmd["speed_kmh"],)) from None
        if not 0 < v < math.inf:
            raise ControlError("speed limit %r km/h must be positive and finite" % v)
        return min(v, net.links[self.link].params.speed_limit)

    def apply(self, engine, now, cmd):
        v = self.speed(engine.net, cmd)
        if v < float(cmd["speed_kmh"]):
            log.warning("actuator %s: %s km/h exceeds the structural limit %.1f, clamping",
                        self.id, cmd["speed_kmh"], v)
        engine.model_of_link[self.link].set_speed_limit(self.link, v)


@dataclass
class RouterActuator(Actuator):
    """Reassigns a routed vehicle type to another route; applies to vehicles
    not yet departed and, where the new route passes, at the next link entry."""

    vtype: int = -1

    @staticmethod
    def route(routes, cmd) -> int | None:
        """The command's `route` as an id in `routes`, or None (no route) to
        clear the override; raises ControlError otherwise."""
        if not isinstance(cmd, dict):
            raise ControlError("router command %r is not a map" % (cmd,))
        route = cmd.get("route")
        if route is not None and (not isinstance(route, int) or route not in routes):
            raise ControlError("unknown route %r" % (route,))
        return route

    def apply(self, engine, now, cmd):
        engine.routing.override_route(self.vtype, self.route(engine.routing.routes, cmd))


@dataclass
class DemandActuator(Actuator):
    """Overrides a source's future demand intensity (veh/hr)."""

    source: int = -1

    @staticmethod
    def intensity(cmd) -> float | None:
        """The command's `intensity_vph` as a finite float >= 0, or None
        (no intensity) to return to the profile; raises ControlError
        otherwise."""
        if not isinstance(cmd, dict):
            raise ControlError("demand command %r is not a map" % (cmd,))
        rate = cmd.get("intensity_vph")
        if rate is None:
            return None
        try:
            vph = float(rate)
        except (TypeError, ValueError):
            raise ControlError("demand intensity %r is not a number" % (rate,)) from None
        if not 0 <= vph < math.inf:
            raise ControlError("demand intensity %r veh/h must be >= 0 and finite" % vph)
        return vph

    def apply(self, engine, now, cmd):
        # source ids are their indices
        engine.sources[self.source].override_rate = self.intensity(cmd)


@dataclass
class SplitActuator(Actuator):
    """Overrides the turn ratios of one (link, vehicle type) pair; a command
    without ratios returns it to its split profile. Commands whose ratios are
    negative, do not sum to one or name a link that does not follow this one
    are rejected with a warning."""

    link: int = -1
    vtype: int = -1

    def ratios(self, net, cmd: dict) -> dict[int, float] | None:
        """The command's ratios by next link, or None when it has none;
        raises ControlError when they cannot be applied."""
        if cmd.get("ratios") is None:
            return None
        try:
            ratios = {int(k): float(v) for k, v in cmd["ratios"].items()}
        except (AttributeError, TypeError, ValueError):
            raise ControlError("split ratios %r are not a map of link to ratio"
                               % (cmd["ratios"],)) from None
        if abs(sum(ratios.values()) - 1.0) > 1e-6 or any(v < 0 for v in ratios.values()):
            raise ControlError("split ratios %s must be >= 0 and sum to one" % ratios)
        bad = set(ratios) - set(net.next_links(self.link))
        if bad:
            raise ControlError("split ratios name non-successor links %s" % sorted(bad))
        return ratios

    def apply(self, engine, now, cmd):
        try:
            ratios = self.ratios(engine.net, cmd)
        except ControlError as exc:
            log.warning("actuator %s: rejected split command: %s", self.id, exc)
            return
        engine.routing.override_split(self.link, self.vtype, ratios)


# --- controllers -------------------------------------------------------


@dataclass
class Controller:
    """Periodically maps its sensors' latest measurements to actuator
    commands via a pluggable algorithm."""

    id: int
    dt: float
    sensor_ids: list[int] = field(default_factory=list)
    actuator_ids: list[int] = field(default_factory=list)
    algorithm: object | None = None

    def step(self, engine, now: float):
        if self.algorithm is None:
            return
        measurements = {sid: engine.sensor_of[sid].last for sid in self.sensor_ids}
        commands = self.algorithm.update(now, measurements) or {}
        for aid, cmd in sorted(commands.items()):
            if aid not in self.actuator_ids:
                raise ControlError(
                    "controller %s commanded unowned actuator %s" % (self.id, aid)
                )
            engine.actuator_of[aid].command(cmd)


class FixedTimeSignal:
    """Cyclic stage plan; each stage names the road connections held open.
    Emits open/close commands to rc-block actuators keyed "rc:<id>"."""

    def __init__(self, stages: list[dict], rc_actuators: dict[int, int], offset: float = 0.0):
        # stages: [{"duration": s, "open_rcs": [..]}]; rc_actuators: rc -> actuator id
        if not stages:
            raise ControlError("signal plan needs at least one stage")
        if not math.isfinite(offset):
            raise ControlError("signal offset %r s must be finite" % offset)
        self.stages = stages
        self.rc_actuators = rc_actuators
        self.offset = offset
        self.durations = durations = [float(s["duration"]) for s in stages]
        if not all(0 < d < math.inf for d in durations):
            raise ControlError("signal stage durations %s must be positive and finite" % durations)
        for k, st in enumerate(stages):
            open_rcs = st.get("open_rcs")
            if not isinstance(open_rcs, list) or not all(r in rc_actuators for r in open_rcs):
                raise ControlError(
                    "signal stage %d: open_rcs must be a list of the plan's road connections "
                    "%s, got %r" % (k, sorted(rc_actuators), open_rcs))
        self.cycle = sum(durations)

    def _stage_at(self, now: float) -> dict:
        t = (now - self.offset) % self.cycle
        acc = 0.0
        for st, d in zip(self.stages, self.durations):
            acc += d
            if t < acc - 1e-9:
                return st
        return self.stages[-1]

    def update(self, now: float, measurements: dict) -> dict:
        open_rcs = set(self._stage_at(now)["open_rcs"])
        return {
            aid: {"open": rc in open_rcs}
            for rc, aid in sorted(self.rc_actuators.items())
        }


class ConstantCommand:
    """Issues a fixed command once at (or after) a trigger time."""

    def __init__(self, at_time: float, commands: dict):
        if not math.isfinite(at_time):
            raise ControlError("constant command time 'at' %r s must be finite" % at_time)
        self.at_time = at_time
        self.commands = commands
        self._done = False

    def update(self, now: float, measurements: dict) -> dict:
        if self._done or now + 1e-9 < self.at_time:
            return {}
        self._done = True
        return self.commands
