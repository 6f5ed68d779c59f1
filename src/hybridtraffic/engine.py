"""Simulation engine: clock, packet-exchange protocol, junction solving,
source injection, control wiring, bookkeeping."""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from . import nodemodel
from . import scenario as scenario_mod
from .control import ProbeSensor
from .demand import RoutingContext, Source
from .models.base import TrafficModel
from .network import Network
from .packets import (
    FluidToVehicleTranslator,
    FluxPacket,
    ProtocolError,
    StateIndex,
    VehicleFactory,
    take,
    vehicle_packet,
)

TIME_TOL = 1e-6


class SimulationError(RuntimeError):
    """A failure during a run, with the model time and the element where it
    happened: a junction (with its road connection and lane group), a source,
    an exiting lane group or a model."""

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


@dataclass(slots=True)
class RunStats:
    """Work counts of a run: junction steps solved in closed form (one
    upstream group sending through a road connection with one downstream
    group) and in the node-model batch, and the node-model iterations the
    batch took, summed over its junctions."""

    junctions_1x1: int = 0
    junctions_batched: int = 0
    nodemodel_iterations: int = 0


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
    down_at: tuple  # the place of each in its junction's `downstream`


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
        # vehicles a probe sensor follows, through fluid links too
        self._probed = {s.vehicle_id for s in self.sensors if isinstance(s, ProbeSensor)}

        for m in self.models:
            m.set_routing(self.routing)
            if m.kind == "newell":
                m.headway_query = self.boundary_headway

        self._rc, self._junctions = self._compile_junctions()
        # every junction that is not 1x1x1, in one batch for the node model
        self._jset = nodemodel.JunctionSet([
            j for _, j in sorted(self._junctions.items())
            if len(j.upstream) * len(j.rcs) * len(j.downstream) > 1])
        self._rc_at = {r: i for i, r in enumerate(self._jset.rcs)}
        self.stats = RunStats()
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
        # and the name a failure is reported under
        self._control = [
            (_Clock(x.dt), x, method, "%s %s" % (kind, x.id))
            for xs, method, kind in ((self.sensors, "read", "sensor"),
                                     (self.controllers, "step", "controller"),
                                     (self.actuators, "flush", "actuator"))
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
        junction (`Network.junction_of`); `nodemodel.Junction` checks the
        access fractions and adjacency once."""
        net = self.net
        comp: dict = {}
        for r in sorted(net.junction_of):
            comp.setdefault(net.junction_of[r], []).append(r)

        connections, junctions = {}, {}
        for jid, rcs in comp.items():
            junctions[jid] = junction = nodemodel.Junction(
                jid,
                {r: net.rc_up_groups[r] for r in rcs},
                {r: net.rc_down_groups[r] for r in rcs},
                {(r, h): net.lane_access_fraction(r, h)
                 for r in rcs for h in net.rc_down_groups[r]},
            )
            for r in rcs:
                rc = net.road_connections[r]
                groups = tuple(net.rc_down_groups[r])
                connections[r] = _Connection(
                    r, jid, rc.up_link, rc.down_link, self.model_of_link[rc.down_link],
                    groups, tuple(junction.downstream.index(h) for h in groups),
                )
        return connections, junctions

    # --- cross-model queries -------------------------------------------

    def boundary_headway(self, rc_id: int) -> float:
        """Distance from the downstream link's upstream boundary to the
        nearest vehicle reachable through rc_id (the emptiest lane group)."""
        conn = self._rc[rc_id]
        model, groups = conn.receiver, conn.groups
        if len(groups) == 1:
            return model.distance_to_last_vehicle(groups[0])
        gid = min(groups, key=lambda g: (model.total_vehicles(g), g))
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

    def link_state_counts(self, link_id: int) -> list[float]:
        """Vehicles on the link per slot of its state table: the model's
        counts plus the link's boundary residues."""
        counts = self.model_of_link[link_id].state_counts(link_id)
        res = self.translator.residues.get(link_id)
        return counts if res is None else [n + r for n, r in zip(counts, res)]

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
        for clock, x, method, where in self._control:
            if clock.due(t):
                try:
                    getattr(x, method)(self, t)
                except Exception as exc:
                    raise SimulationError(exc, element=where) from exc
                clock.tick()
        # model flow exchange, then state advance
        due = [(c, m) for c, m in self._model_clocks if c.due(t)]
        if due:
            due_models = [m for _, m in due]
            self._flow_phase(t, due_models)
            for m in due_models:
                try:
                    m.advance_state(t, self.rng)
                except Exception as exc:
                    where = "model %d (%s)" % (self.models.index(m), m.kind)
                    raise SimulationError(exc, element=where) from exc
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
        # sources first, in id order
        due_ids = {id(m) for m in due_models}
        for src in self.sources:
            m = self.model_of_link[src.demand.link]
            if id(m) in due_ids:
                try:
                    self._source_step(src, m, t)
                except Exception as exc:
                    where = "source %s, link %s" % (src.id, src.demand.link)
                    raise SimulationError(exc, element=where) from exc

        # collect release requests, model order
        requests = [(m, req) for m in due_models for req in m.compute_demands(t, self.rng)]

        # network exits are unconstrained
        for m, req in requests:
            if req.rc is None:
                try:
                    m.remove(req.group_id, None, req.packet)
                    link = self.net.lane_groups[req.group_id].link
                    self._book(req.packet, self.cum_out[link], self.exits)
                except Exception as exc:
                    where = "lane group %s (exit)" % req.group_id
                    raise SimulationError(exc, element=where) from exc
        junction_reqs: dict[int, list] = {}
        for m, req in requests:
            if req.rc is not None:
                junction_reqs.setdefault(self._rc[req.rc].junction, []).append((m, req))
        self._solve_junctions(t, junction_reqs)

    def _solve_junctions(self, t, junction_reqs: dict[int, list]):
        """Size every offer once; solve the junctions where one upstream group
        sends through a road connection with one downstream group in closed
        form, and all others in one `nodemodel.solve` over `self._jset`; then
        deliver, junctions in ascending id and pairs in pair order.

        Every supply is read from the start of the step, net of what its lane
        group has received since, and only a junction's own deliveries enter
        its downstream groups; so the batch can read every supply it needs
        before any delivery, and a junction solved in closed form before the
        first batched one is delivered at once."""
        jset, stats, model_of = self._jset, self.stats, self.model_of_group
        plan = []  # from the first batched junction on: (junction, offers, its
        # pairs' and downstream groups' offsets in the batch, None in closed form)
        demand = supply = None
        for jid in sorted(junction_reqs):
            junction = self._junctions[jid]
            offers = self._size_offers(junction, junction_reqs[jid])
            if not offers:
                continue
            if len(offers) == 1:
                (i, offer), = offers.items()
                if len(self._rc[junction.pairs[i][1]].groups) == 1:
                    # one upstream group, one rc and one downstream group
                    # carry flow this step; the idle rest cannot change it
                    stats.junctions_1x1 += 1
                    if plan:
                        plan.append((junction, offers, None, None))
                    else:
                        self._solve_1x1(t, junction, i, offer)
                    continue
            if demand is None:
                demand, supply = [0.0] * len(jset.pairs), [0.0] * len(jset.downstream)
            k = jset.place[jid]
            p0, h0 = jset.pair_start[k], jset.down_start[k]
            for i, offer in offers.items():
                demand[p0 + i] = offer[2]
            try:
                for j, h in enumerate(junction.downstream, h0):
                    supply[j] = model_of[h].lane_group_supply(h)
            except Exception as exc:
                raise SimulationError(exc, element="junction %s" % jid) from exc
            plan.append((junction, offers, p0, h0))
            stats.junctions_batched += 1
        if not plan:
            return
        closed = [False] * len(jset.rcs)
        for r in self.closed_rcs:
            if r in self._rc_at:
                closed[self._rc_at[r]] = True
        try:
            flows = nodemodel.solve(jset, demand, supply, closed)
        except nodemodel.NodeModelError as exc:
            where = None if exc.junction is None else "junction %s" % exc.junction
            raise SimulationError(exc, element=where) from exc
        stats.nodemodel_iterations += flows.iterations
        flow = flows.flow.tolist()
        for junction, offers, p0, h0 in plan:
            if p0 is None:
                self._solve_1x1(t, junction, *next(iter(offers.items())))
            else:
                self._deliver_batched(t, junction, offers, flow, supply, p0, h0)

    def _solve_1x1(self, t, junction, i, offer):
        """Solve the junction's one offer (pair `i`) by `nodemodel.solve_1x1`
        and deliver it. A failure names the junction, road connection and
        lane group."""
        sender, packet, size = offer
        g, r = junction.pairs[i]
        conn = self._rc[r]
        try:
            caps = [conn.receiver.lane_group_supply(conn.groups[0])]
            delta = nodemodel.solve_1x1(size, caps[0], r in self.closed_rcs)
            if delta > nodemodel.EPS:
                self._deliver(t, sender, g, conn, packet, size, delta, caps)
        except Exception as exc:
            where = "junction %s, rc %s, lane group %s" % (junction.id, r, g)
            raise SimulationError(exc, element=where) from exc

    def _deliver_batched(self, t, junction, offers, flow, supply, p0, h0):
        """Deliver a batched junction's accepted offers in pair order: the
        batch's `flow` from pair `p0` on, the first delivery within the
        batch's `supply` from downstream group `h0` on. A failure names the
        junction, road connection and lane group."""
        g = r = None
        try:
            first = True
            for i in sorted(offers):  # in pair order
                if flow[p0 + i] > nodemodel.EPS:
                    g, r = junction.pairs[i]
                    conn = self._rc[r]
                    # the first delivery has the supply the solve read; a
                    # later one reads it again, as earlier ones may have
                    # filled it
                    caps = ([supply[h0 + j] for j in conn.down_at] if first else
                            [conn.receiver.lane_group_supply(h) for h in conn.groups])
                    first = False
                    sender, packet, size = offers[i]
                    self._deliver(t, sender, g, conn, packet, size, flow[p0 + i], caps)
        except Exception as exc:
            where = "junction %s" % junction.id
            if r is not None:
                where += ", rc %s, lane group %s" % (r, g)
            raise SimulationError(exc, element=where) from exc

    def _size_offers(self, junction: nodemodel.Junction, reqs) -> dict:
        """The junction's requests by pair index, as (sender, packet, size),
        each sized once by its receiving model; empty ones left out. A
        failure names the junction, road connection and lane group."""
        offers = {}
        for m, req in reqs:
            g, r = req.group_id, req.rc
            try:
                size = self._rc[r].receiver.get_packet_size(req.packet, r)
                if size < 0:
                    raise ProtocolError("negative packet size %r" % size)
                if size <= 0:
                    continue
                i = junction.pair_index[g, r]
                if i in offers:
                    raise ProtocolError("more than one request per lane group and rc")
            except Exception as exc:
                where = "junction %s, rc %s, lane group %s" % (junction.id, r, g)
                raise SimulationError(exc, element=where) from exc
            offers[i] = (m, req.packet, size)
        return offers

    # --- delivery --------------------------------------------------------

    def _deliver(self, t, sender, g, conn: _Connection, packet, size, delta, caps):
        """Send the part of `packet` the junction accepted (`delta` of its
        `size`) from lane group g through the road connection: one cut within
        the receiving lane groups' supply (`caps`, read just before), then
        remove, book, re-key, enter."""
        receiver = conn.receiver
        allow = sum(caps)
        if packet.is_fluid:
            total = min(min(1.0, delta / size) * size, allow)
            if total <= 0:
                return
            alpha = min(1.0, total / packet.size)
            # a whole request is sent as it is (a * 1.0 == a)
            sent = packet if alpha == 1.0 else FluxPacket(
                packet.table, [a * alpha for a in packet.amounts])
        else:
            credit = self._entry_credit.get(conn.id, 0.0)
            entitled = min(delta + credit, size)
            # the entitled share per state, no more than fit in the supply plus the credit
            sent = take(packet, entitled / size, int(math.floor(allow + credit + 1e-9)))
            self._entry_credit[conn.id] = min(max(0.0, entitled - sent.size), 1.0)
            if not sent.size:
                return
        sender.remove(g, conn.id, sent)
        self._book(sent, self.cum_out[conn.up_link])
        routed = self.routing.assign_next_link(sent, conn.down_link, t, self.rng)
        self._enter(receiver, conn.down_link, routed, conn.groups, caps, allow, t)

    def _enter(self, receiver, link, packet: FluxPacket, groups, caps, space, t):
        """Book a re-keyed packet into `link` and hand it to the link's model:
        whole vehicles, condensed from fluid first, or the packet's amounts
        over the link's state table (vehicles dissolve into their counts; a
        probed one starts a tracker) spread over `groups` (sorted, `caps`
        their supply, summing to `space`) in proportion to their free space,
        evenly when none has any (entry credit can admit a vehicle into full
        fluid lane groups)."""
        self._book(packet, self.cum_in[link])
        if receiver.vehicle_based:
            receiver.receive_vehicles(link, (
                self.translator.translate(packet, link, t) if packet.is_fluid
                else packet.all_vehicles()), t)
            return
        if not packet.is_fluid and self._probed:
            for s, vs in zip(packet.table, packet.vehicles):
                for v in vs:
                    if v.id in self._probed:
                        self.trackers.append(VirtualTracker(v.id, s, link, groups[0], 0.0))
        if space <= 0:
            caps, space = [1.0] * len(groups), float(len(groups))
        for h, w in zip(groups, caps):
            part = [a * w / space for a in packet.amounts]
            if any(part):
                receiver.receive_fluid(h, part, t)

    @staticmethod
    def _book(packet: FluxPacket, *ledgers: dict[StateIndex, float]):
        """Add the packet's per-state amounts (vehicle counts for whole
        vehicles) to each ledger."""
        for s, a in zip(packet.table, packet.amounts):
            if a > 0:
                for ledger in ledgers:
                    ledger[s] = ledger.get(s, 0.0) + a

    # --- sources ---------------------------------------------------------

    def _source_step(self, src: Source, model, t):
        src.accrue(t, model.dt, model.vehicle_based, self.rng)
        if src.buffer <= 0:
            return
        link = src.demand.link
        supply = {h: model.lane_group_supply(h) for h in self.net.link_groups[link]}
        allow = sum(supply.values())
        if model.vehicle_based:
            # in creation order, which `_enter` (state order) would not keep
            n = int(min(math.floor(src.buffer + 1e-9), math.floor(allow + 1e-9)))
            if n <= 0:
                return
            src.withdraw(float(n))
            vehicles = [
                self.factory.make(self.routing.entry_state(
                    src.demand.vtype, link, src.demand.route, t, self.rng), t)
                for _ in range(n)
            ]
            model.receive_vehicles(link, vehicles, t)
            self._book(vehicle_packet(self.routing.tables[link], self.routing.slots[link],
                                      vehicles), self.cum_in[link])
            return
        amount = min(src.buffer, allow)
        if amount <= 0:
            return
        src.withdraw(amount)
        p0 = FluxPacket((StateIndex(src.demand.vtype, src.demand.route),), [amount])
        routed = self.routing.assign_next_link(p0, link, t, self.rng)
        groups = sorted(supply)  # the order fluid is spread in
        caps = [supply[h] for h in groups]
        self._enter(model, link, routed, groups, caps, sum(caps), t)

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
        """Each link's per-state balance of vehicles in, out and present, the
        models' own invariants and the boundary residues, after a step."""
        for link in sorted(self.net.links):
            counts = self.link_state_counts(link)
            for s, n in zip(self.routing.tables[link], counts):
                bal = self.cum_in[link].get(s, 0.0) - self.cum_out[link].get(s, 0.0) - n
                if abs(bal) > 1e-9:
                    self.audit_failures.append(
                        "t=%.3f link=%s state=%s imbalance=%.3e" % (t, link, s, bal)
                    )
        for m in self.models:
            self.audit_failures += ["t=%.3f %s" % (t, msg) for msg in m.audit_failures()]
        for link, res in self.translator.residues.items():
            for s, r in zip(self.routing.tables[link], res):
                if not 0.0 <= r < 1.0:
                    self.audit_failures.append(
                        "t=%.3f link=%s state=%s residue=%r outside [0, 1)" % (t, link, s, r)
                    )

    # --- summary ----------------------------------------------------------

    def total_in_network(self) -> float:
        """Vehicles in the models plus the fluid stranded in the boundary
        residues of the fluid-to-vehicle translator."""
        return sum(sum(self.link_state_counts(l)) for l in self.net.links)

    def total_in_models(self) -> float:
        return sum(sum(self.model_of_link[l].state_counts(l)) for l in self.net.links)

    def total_in_residues(self) -> float:
        return sum(sum(res) for res in self.translator.residues.values())

    def total_injected(self) -> float:
        return sum(s.total_injected for s in self.sources)

    def total_exited(self) -> float:
        return sum(self.exits.values())
