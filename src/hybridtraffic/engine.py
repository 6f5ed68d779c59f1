"""Simulation engine: clock, packet-exchange protocol, junction solving,
source injection, control wiring, bookkeeping."""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from . import nodemodel
from . import scenario as scenario_mod
from .demand import RoutingContext, Source
from .models.base import TrafficModel
from .network import Network
from .packets import (
    FluidToVehicleTranslator,
    FluxPacket,
    ProtocolError,
    StateIndex,
    VehicleFactory,
    compute_alpha,
    distribute,
    scale_fluid_packet,
    split_vehicle_packet,
    state_sort_key,
    to_fluid,
    vehicle_packet,
)

TIME_TOL = 1e-6


class SimulationError(RuntimeError):
    """A failure during a run, with the model time and the network element
    (junction, road connection, lane group) where it happened."""

    def __init__(self, msg, time=None, element=None):
        self.reason, self.time, self.element = msg, time, element
        ctx = []
        if time is not None:
            ctx.append("t=%.3f" % time)
        if element is not None:
            ctx.append("element=%s" % element)
        super().__init__(("[%s] " % ", ".join(ctx) if ctx else "") + str(msg))


@dataclass(slots=True)
class _Clock:
    """Fixed-period activity tracked by the scheduler."""

    period: float
    fired: int = 0  # completed firings
    next_time: float = 0.0

    def due(self, t: float) -> bool:
        return abs(self.next_time - t) < TIME_TOL

    def tick(self):
        self.fired += 1
        self.next_time = self.fired * self.period


@dataclass
class VirtualTracker:
    """Engine-owned probe stand-in advected through fluid links."""

    vehicle_id: int
    state: StateIndex
    link: int
    group_id: str
    position: float
    speed_ms: float = 0.0
    active: bool = True


@dataclass(slots=True)
class _Connection:
    """Static data of one road connection. Holds the receiving model, never
    its bound methods, so methods replaced on a built engine take effect."""

    id: int
    junction: int
    up_link: int
    down_link: int
    receiver: TrafficModel  # model of the downstream link
    groups: tuple  # D_r, sorted


@dataclass(slots=True)
class _Junction:
    """Static adjacency of one junction, sorted as `NodeProblem` takes it.
    G, R and H are its upstream lane groups, road connections and downstream
    lane groups; `pairs` lists every (g, r) in delivery order."""

    id: int
    upstream: tuple  # G
    rcs: tuple  # R
    downstream: tuple  # H
    down_of_g: dict
    up_of_r: dict
    down_of_r: dict
    up_of_h: dict
    access: dict
    pairs: tuple

    def problem(self, demand, supply, closed_rcs) -> nodemodel.NodeProblem:
        return nodemodel.NodeProblem(
            self.upstream, self.rcs, self.downstream, self.down_of_g, self.up_of_r,
            self.down_of_r, self.up_of_h, demand, supply, self.access, closed_rcs,
        )


class _Supply:
    """Lane-group supply left within one flow phase. A fluid model's supply
    is read once and reduced by what it has been delivered since; a vehicle
    model's is read live, as it counts the vehicles already placed."""

    __slots__ = ("model_of_group", "read", "delivered")

    def __init__(self, model_of_group):
        self.model_of_group = model_of_group
        self.read: dict[str, float] = {}
        self.delivered: dict[str, float] = {}

    def remaining(self, gid: str) -> float:
        m = self.model_of_group[gid]
        if m.vehicle_based:
            return m.lane_group_supply(gid)
        if gid not in self.read:
            self.read[gid] = m.lane_group_supply(gid)
        return max(0.0, self.read[gid] - self.delivered.get(gid, 0.0))


class Engine:
    def __init__(self, scenario, audit: bool = False):
        self.scenario = scenario
        self.audit = audit
        rt = scenario_mod.build_runtime(scenario)
        self.net: Network = rt["network"]
        self.models = rt["models"]  # list, deterministic order
        self.model_of_link = rt["model_of_link"]
        self.routing: RoutingContext = rt["routing"]
        # each kind fires in id order
        self.sources: list[Source] = sorted(rt["sources"], key=attrgetter("id"))
        self.sensors = sorted(rt["sensors"], key=attrgetter("id"))
        self.actuators = sorted(rt["actuators"], key=attrgetter("id"))
        self.controllers = sorted(rt["controllers"], key=attrgetter("id"))
        self.sensor_of = {s.id: s for s in self.sensors}
        self.actuator_of = {a.id: a for a in self.actuators}
        self.duration = scenario.run.duration
        self.output_dt = scenario.run.output_dt
        self.rng = np.random.default_rng(scenario.run.seed)
        self.factory = VehicleFactory()
        self.translator = FluidToVehicleTranslator(self.factory)
        self.closed_rcs: set[int] = set()
        # fractional-vehicle entitlement banked per road connection so whole
        # vehicles can cross boundaries whose per-step supply is below one
        self._entry_credit: dict[int, float] = {}
        self.trackers: list[VirtualTracker] = []

        for m in self.models:
            m.set_routing(self.routing)
            if m.kind == "newell":
                m.headway_query = self.boundary_headway

        self._rc, self._junctions = self._compile_junctions()
        self.model_of_group = {
            gid: m for m in self.models for gid in m.group_ids
        }

        # bookkeeping: per link, per state cumulative boundary flows
        self.cum_in: dict[int, dict[StateIndex, float]] = {
            l: {} for l in self.net.links
        }
        self.cum_out: dict[int, dict[StateIndex, float]] = {
            l: {} for l in self.net.links
        }
        self.exits: dict[StateIndex, float] = {}
        self.audit_failures: list[str] = []

        # the schedule: control elements in the order they fire within a step
        # (sensors, controllers, actuators), with the method each fire calls
        self._control = [
            (_Clock(x.dt), x, method)
            for xs, method in ((self.sensors, "read"), (self.controllers, "step"),
                               (self.actuators, "flush"))
            for x in xs
        ]
        self._model_clocks = [(_Clock(m.dt), m) for m in self.models]
        self._output_clock = _Clock(self.output_dt)
        self._clocks = [c for c, *_ in self._control + self._model_clocks]
        self._clocks.append(self._output_clock)
        self.now = 0.0

    # --- construction helpers -----------------------------------------

    def _compile_junctions(self):
        """Compile the static tables of every road connection and of every
        junction (`Network.junction_of`), checking the access fractions and
        adjacency once."""
        net = self.net
        comp: dict = {}
        for r in sorted(net.junction_of):
            comp.setdefault(net.junction_of[r], []).append(r)

        connections, junctions = {}, {}
        for jid, rcs in comp.items():
            rcs = tuple(rcs)
            up_of_r = {r: tuple(net.rc_up_groups[r]) for r in rcs}
            down_of_r = {r: tuple(net.rc_down_groups[r]) for r in rcs}
            down_of_g: dict = {}
            up_of_h: dict = {}
            for r in rcs:  # ascending, so every list below comes out sorted
                for g in up_of_r[r]:
                    down_of_g.setdefault(g, []).append(r)
                for h in down_of_r[r]:
                    up_of_h.setdefault(h, []).append(r)
                rc = net.road_connections[r]
                connections[r] = _Connection(
                    r, jid, rc.up_link, rc.down_link,
                    self.model_of_link[rc.down_link], down_of_r[r],
                )
            junction = _Junction(
                id=jid,
                upstream=tuple(sorted(down_of_g)),
                rcs=rcs,
                downstream=tuple(sorted(up_of_h)),
                down_of_g={g: tuple(v) for g, v in down_of_g.items()},
                up_of_r=up_of_r,
                down_of_r=down_of_r,
                up_of_h={h: tuple(v) for h, v in up_of_h.items()},
                access={
                    (r, h): net.lane_access_fraction(r, h)
                    for r in rcs for h in down_of_r[r]
                },
                pairs=tuple(sorted((g, r) for r in rcs for g in up_of_r[r])),
            )
            junction.problem({}, {}, set()).validate()
            junctions[jid] = junction
        return connections, junctions

    # --- cross-model queries -------------------------------------------

    def boundary_headway(self, rc_id: int) -> float:
        """Distance from the downstream link's upstream boundary to the
        nearest vehicle reachable through rc_id (the emptiest lane group)."""
        conn = self._rc[rc_id]
        model = conn.receiver
        gid = min(conn.groups, key=lambda g: (model.total_vehicles(g), g))
        return model.distance_to_last_vehicle(gid)

    def find_vehicle(self, vehicle_id: int):
        """(link, group, position_m, speed_kmh) of a (possibly virtual)
        vehicle, or None if it has left the network."""
        for m in self.models:
            if m.vehicle_based:
                hit = m.find_vehicle(vehicle_id, self.now)
                if hit:
                    return hit
        for tr in self.trackers:
            if tr.vehicle_id == vehicle_id and tr.active:
                return tr.link, tr.group_id, tr.position, tr.speed_ms * 3.6
        return None

    def link_state_counts(self, link_id: int) -> dict[StateIndex, float]:
        counts = dict(self.model_of_link[link_id].state_counts(link_id))
        for (loc, s), r in self.translator.residues.items():
            if loc == link_id:
                counts[s] = counts.get(s, 0.0) + r
        return counts

    # --- main loop ------------------------------------------------------

    def run(self, observer=None):
        """Run to the configured duration. `observer(engine, t)` is called at
        every output time."""
        while True:
            t = min(c.next_time for c in self._clocks)
            if t > self.duration + TIME_TOL:
                break
            self.now = t
            try:
                self._step(t, observer)
            except SimulationError as exc:
                raise SimulationError(exc.reason, time=t, element=exc.element) from exc
            except Exception as exc:
                raise SimulationError(exc, time=t) from exc

    def _step(self, t, observer):
        # sensors observe the pre-actuation, pre-advance state; the method is
        # looked up at each fire, so one replaced on an element takes effect
        for clock, x, method in self._control:
            if clock.due(t):
                getattr(x, method)(self, t)
                clock.tick()
        # model flow exchange, then state advance
        due = [(c, m) for c, m in self._model_clocks if c.due(t)]
        if due:
            due_models = [m for _, m in due]
            self._flow_phase(t, due_models)
            for m in due_models:
                m.advance_state(t, self.rng)
            self._advance_trackers(t, due_models)
            for c, _ in due:
                c.tick()
            if self.audit:
                self._audit(t)
        if self._output_clock.due(t):
            if observer:
                observer(self, t)
            self._output_clock.tick()

    # --- flow phase ------------------------------------------------------

    def _flow_phase(self, t, due_models):
        supply = _Supply(self.model_of_group)

        # sources first, in id order
        due_ids = {id(m) for m in due_models}
        for src in self.sources:
            m = self.model_of_link[src.demand.link]
            if id(m) in due_ids:
                self._source_step(src, m, t, supply)

        # collect release requests, model order
        requests = []
        for m in due_models:
            for req in m.compute_demands(t, self.rng):
                if req.packet.is_empty():
                    continue
                requests.append((m, req))

        # network exits are unconstrained
        for m, req in requests:
            if req.rc is None:
                m.remove(req.group_id, None, req.packet)
                link = self.net.lane_groups[req.group_id].link
                self._book(req.packet, self.cum_out[link], self.exits)
        junction_reqs: dict[int, list] = {}
        for m, req in requests:
            if req.rc is not None:
                junction_reqs.setdefault(self._rc[req.rc].junction, []).append((m, req))
        for jid in sorted(junction_reqs):
            self._solve_junction(t, self._junctions[jid], junction_reqs[jid], supply)

    def _solve_junction(self, t, junction: _Junction, reqs, supply: _Supply):
        """Size the requests (once each), solve the junction and deliver.
        Any failure is reported with the junction and, where one is in hand,
        the road connection and upstream lane group."""
        g = r = None
        try:
            offers = {}  # (g, r) -> (sender, packet, size)
            for m, req in reqs:
                g, r = req.group_id, req.rc
                size = self._rc[r].receiver.get_packet_size(req.packet, r)
                if size < 0:
                    raise ProtocolError("negative packet size %r" % size)
                if size <= 0:
                    continue
                if (g, r) in offers:
                    raise ProtocolError("more than one request per lane group and rc")
                offers[(g, r)] = (m, req.packet, size)
            if len(offers) == 1:
                ((g, r), (sender, packet, size)), = offers.items()
                conn = self._rc[r]
                if len(conn.groups) == 1:
                    # one upstream group, one rc and one downstream group
                    # carry flow this step; the idle rest cannot change it
                    delta = nodemodel.solve_1x1(
                        size, supply.remaining(conn.groups[0]), r in self.closed_rcs
                    )
                    if delta > nodemodel.EPS:
                        self._deliver(t, sender, g, conn, packet, size, delta, supply)
                    return
            g = r = None
            if not offers:
                return
            problem = junction.problem(
                {key: offer[2] for key, offer in offers.items()},
                {h: supply.remaining(h) for h in junction.downstream},
                self.closed_rcs.intersection(junction.rcs),
            )
            flow = nodemodel.solve(problem).flow_gr
            for g, r in junction.pairs:
                offer = offers.get((g, r))
                if offer is None:
                    continue
                delta = flow.get((g, r), 0.0)
                if delta > nodemodel.EPS:
                    self._deliver(t, offer[0], g, self._rc[r], offer[1], offer[2],
                                  delta, supply)
        except Exception as exc:
            where = "junction %s" % junction.id
            if r is not None:
                where += ", rc %s, lane group %s" % (r, g)
            raise SimulationError(exc, element=where) from exc

    # --- delivery --------------------------------------------------------

    def _deliver(self, t, sender, g, conn: _Connection, packet, size, delta, supply):
        """Send the part of `packet` the junction accepted (`delta` of its
        `size`) from lane group g through the road connection."""
        caps = {h: supply.remaining(h) for h in conn.groups}
        allow = sum(caps.values())
        if packet.is_fluid:
            total = min(compute_alpha(size, delta) * size, allow)
            if total <= 0:
                return
            sent, _ = scale_fluid_packet(packet, min(1.0, total / packet.total()))
        else:
            credit = self._entry_credit.get(conn.id, 0.0)
            entitled = min(delta + credit, size)
            sent, _ = split_vehicle_packet(packet, compute_alpha(size, entitled))
            vehs = sent.all_vehicles()[: int(math.floor(allow + credit + 1e-9))]
            self._entry_credit[conn.id] = min(max(0.0, entitled - len(vehs)), 1.0)
            if not vehs:
                return
            sent = vehicle_packet(vehs)
        sender.remove(g, conn.id, sent)
        self._book(sent, self.cum_out[conn.up_link])
        routed = self.routing.assign_next_link(sent, conn.down_link, t, self.rng)
        self._enter(conn.receiver, conn.down_link, routed, caps, supply, t)

    def _enter(self, receiver, link, packet: FluxPacket, caps, supply, t):
        """Book a routed packet into `link` and hand it to the link's model:
        whole vehicles as they come or condensed from fluid, fluid spread
        over the lane groups of `caps` within their remaining supply."""
        self._book(packet, self.cum_in[link])
        if receiver.vehicle_based:
            vehicles = (
                self.translator.translate(packet, link, t)
                if packet.is_fluid
                else packet.all_vehicles()
            )
            receiver.receive_vehicles(link, vehicles, t)
            return
        if not packet.is_fluid:
            for v in packet.all_vehicles():
                if v.probe:  # a tracker follows it through the fluid
                    self.trackers.append(
                        VirtualTracker(v.id, v.state, link, next(iter(caps)), 0.0)
                    )
            packet = to_fluid(packet)
        for h, part in distribute(packet, caps).items():
            if part.is_empty():
                continue
            receiver.receive_fluid(h, part.fluid, t)
            supply.delivered[h] = supply.delivered.get(h, 0.0) + part.total()

    @staticmethod
    def _book(packet: FluxPacket, *ledgers: dict[StateIndex, float]):
        """Add the packet's per-state amounts to each ledger."""
        amounts = (
            packet.fluid
            if packet.is_fluid
            else {s: float(len(v)) for s, v in packet.vehicles.items()}
        )
        for s, a in amounts.items():
            for ledger in ledgers:
                ledger[s] = ledger.get(s, 0.0) + a

    # --- sources ---------------------------------------------------------

    def _source_step(self, src: Source, model, t, supply: _Supply):
        src.accrue(t, model.dt, model.vehicle_based, self.rng)
        if src.buffer <= 0:
            return
        link = src.demand.link
        caps = {h: supply.remaining(h) for h in self.net.link_groups[link]}
        allow = sum(caps.values())
        if model.vehicle_based:
            n = int(min(math.floor(src.buffer + 1e-9), math.floor(allow + 1e-9)))
            if n <= 0:
                return
            src.withdraw(float(n))
            vehicles = []
            for _ in range(n):
                state = self.routing.entry_state(
                    src.demand.vtype, link, src.demand.route, t, self.rng
                )
                v = self.factory.make(state, t, probe=False)
                vehicles.append(v)
            model.receive_vehicles(link, vehicles, t)
            for v in vehicles:
                self.cum_in[link][v.state] = self.cum_in[link].get(v.state, 0.0) + 1.0
        else:
            amount = min(src.buffer, allow)
            if amount <= 0:
                return
            src.withdraw(amount)
            p0 = FluxPacket(fluid={StateIndex(src.demand.vtype, src.demand.route): amount})
            routed = self.routing.assign_next_link(p0, link, t, self.rng)
            self._enter(model, link, routed, caps, supply, t)

    # --- probes ----------------------------------------------------------

    def _advance_trackers(self, t, due_models):
        due_ids = {id(m) for m in due_models}
        for tr in self.trackers:
            if not tr.active:
                continue
            m = self.model_of_link.get(tr.link)
            if m is None or m.vehicle_based or id(m) not in due_ids:
                continue
            speed = m.local_speed_ms(tr.link, tr.group_id, tr.position)
            tr.speed_ms = speed
            tr.position += speed * m.dt
            length = self.net.links[tr.link].length
            while tr.position >= length:
                nxt = self.routing.next_link_of(tr.state, tr.link)
                if nxt is None or self.model_of_link[nxt].vehicle_based:
                    tr.active = False
                    break
                tr.position -= length
                tr.link = nxt
                tr.group_id = self.net.link_groups[nxt][0]
                length = self.net.links[nxt].length

    # --- conservation audit ----------------------------------------------

    def _audit(self, t):
        for link in sorted(self.net.links):
            counts = self.link_state_counts(link)
            states = set(counts) | set(self.cum_in[link]) | set(self.cum_out[link])
            for s in sorted(states, key=state_sort_key):
                bal = (
                    self.cum_in[link].get(s, 0.0)
                    - self.cum_out[link].get(s, 0.0)
                    - counts.get(s, 0.0)
                )
                if abs(bal) > 1e-9:
                    self.audit_failures.append(
                        "t=%.3f link=%s state=%s imbalance=%.3e" % (t, link, s, bal)
                    )

    # --- summary ----------------------------------------------------------

    def total_in_network(self) -> float:
        return sum(
            sum(self.link_state_counts(l).values()) for l in self.net.links
        )

    def total_injected(self) -> float:
        return sum(s.total_injected for s in self.sources)

    def total_exited(self) -> float:
        return sum(self.exits.values())
