"""Simulation engine: clock, exchange protocol (fluid packets and car
lists), junction solving, source injection, control wiring, bookkeeping."""

from __future__ import annotations

import math
from array import array
from collections.abc import Mapping
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from . import nodemodel
from . import scenario as scenario_mod
from .arraydelivery import ArrayJunctions, PairError
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
    by_slot,
    take,
)

TIME_TOL = 1e-6
_PAIR = "junction %s, rc %s, lane group %s"  # where a junction pair fails


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
    """Work counts of a run: junction steps solved in closed form (the
    steps of 1x1x1 junctions) and in the node-model batch (those of every
    other junction), and the node-model iterations the batch took, summed
    over its junctions; the deliveries, the cuts that moved traffic
    across a junction, and how many of them the array junctions made as
    array steps; and the lane group supplies a batched pair read again,
    because an earlier pair of its junction had entered its receiving link
    in the same pass."""

    junctions_1x1: int = 0
    junctions_batched: int = 0
    nodemodel_iterations: int = 0
    deliveries: int = 0
    array_deliveries: int = 0
    supply_rereads: int = 0


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


class LedgerView(Mapping):
    """Read-only per-link view of a ledger array: `view[l]` is a fresh
    {state: veh} dict over link l's whole state table, in table order.

    The engine, its audit and the outputs read the arrays themselves; the
    view remains only for the benchmark's frozen output digest, which sums
    `engine.cum_in[l].values()` (`bench/harness.py`)."""

    def __init__(self, values: np.ndarray, tables: dict, place_of: dict[int, int]):
        self._values, self._tables, self._place_of = values, tables, place_of

    def __getitem__(self, link: int) -> dict[StateIndex, float]:
        p, table = self._place_of[link], self._tables[link]
        return dict(zip(table, self._values[p:p + len(table)].tolist()))

    def __iter__(self):
        return iter(self._place_of)

    def __len__(self) -> int:
        return len(self._place_of)


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
    # the place of each of D_r among its junction's downstream lane groups
    # (`Junction.r_edges`), where the batch's supply vector holds its supply
    down_at: tuple = ()


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

        # bookkeeping: cumulative boundary flows, one float per (link, slot)
        # place, a link's slots at consecutive places from its first, and a
        # padding place past the last that takes the array junctions' zeros
        # for slots past a link's table; an exit place's state leaves the
        # network at its link, so its `_cum_out` is what has exited there
        self.place_of: dict[int, int] = {}
        self._exit_places: list[int] = []
        n_places = 0
        for l in self.net.links:
            self.place_of[l] = n_places
            for s in self.routing.tables[l]:
                if self.routing.next_link_of(s, l) is None:
                    self._exit_places.append(n_places)
                n_places += 1
        # each ledger is an `array.array` of doubles, which `_book` and
        # `_book_cars` add into as Python floats, and a numpy view of the
        # same memory, which the array junctions, the audit and the outputs
        # read
        self._in_book = array("d", [0.0]) * (n_places + 1)
        self._out_book = array("d", [0.0]) * (n_places + 1)
        self._cum_in, self._cum_out = np.frombuffer(self._in_book), np.frombuffer(self._out_book)
        self.cum_in = LedgerView(self._cum_in, self.routing.tables, self.place_of)
        self.cum_out = LedgerView(self._cum_out, self.routing.tables, self.place_of)
        self._cuts: list[tuple] = []  # (sender, lane group, rc or None, packet or cars)
        # batched junctions whose lane groups all belong to one CTM model,
        # delivered as array steps: junction id -> its model's deliverer
        self._array_junctions: dict[int, ArrayJunctions] = self._compile_arrays()
        self._arrays = list(dict.fromkeys(self._array_junctions.values()))
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
            for k, r in enumerate(junction.rcs):
                rc = net.road_connections[r]
                groups = tuple(net.rc_down_groups[r])
                connections[r] = _Connection(r, jid, rc.up_link, rc.down_link,
                                             self.model_of_link[rc.down_link], groups,
                                             tuple(h for _, h, _ in junction.r_edges[k]))
        return connections, junctions

    def _compile_arrays(self) -> dict[int, ArrayJunctions]:
        by_model: dict = {}
        for j in self._jset.junctions:
            models = {self.model_of_group[g] for g in j.upstream + j.downstream}
            if len(models) == 1:
                m, = models
                if m.kind == "ctm":
                    by_model.setdefault(m, []).append(j)
        out = {}
        for m, junctions in by_model.items():
            arrays = ArrayJunctions(self, m, junctions)
            out.update(dict.fromkeys(arrays.start, arrays))
        return out

    def _name(self, model) -> str:
        return "model %d (%s)" % (self.models.index(model), model.kind)

    # --- cross-model queries -------------------------------------------

    def boundary_headway(self, rc_id: int) -> float:
        """Distance from the downstream link's upstream boundary to the
        nearest vehicle reachable through rc_id (the emptiest lane group)."""
        conn = self._rc[rc_id]
        model, groups = conn.receiver, conn.groups
        # the fewest vehicles, the first in (sorted) order on a tie; a lone
        # lane group's count is never read
        gid, least = groups[0], None
        for g in groups[1:]:
            if least is None:
                least = model.total_vehicles(gid)
            n = model.total_vehicles(g)
            if n < least:
                gid, least = g, n
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
                    raise SimulationError(exc, element=self._name(m)) from exc
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
        """Sources, then the due models' requests, sized and grouped by
        junction, and the array junctions' offers, read from their models'
        demand arrays (`ArrayJunctions.offer`); then one junction pass and
        the removal of its cuts."""
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

        # network exits are unconstrained; every other request is sized once,
        # a car list by its length and a packet by its receiving model, and
        # offered to its junction, by pair index as (sender, sent, size)
        offers: dict[int, dict] = {}
        for m, (g, r, sent) in requests:
            fluid = isinstance(sent, FluxPacket)
            if r is None:
                self._cuts.append((m, g, None, sent))
                link = self.net.lane_groups[g].link
                if fluid:
                    self._book(sent, link, self._out_book)
                else:
                    self._book_cars(by_slot(sent, self.routing.slots[link]), link, self._out_book)
                continue
            conn = self._rc[r]
            try:
                if fluid:
                    size = conn.receiver.get_packet_size(sent, r)
                    if size < 0:
                        raise ProtocolError("negative packet size %r" % size)
                else:
                    size = float(len(sent))
                i = self._junctions[conn.junction].pair_index[g, r]
                junction_offers = offers.setdefault(conn.junction, {})
                if i in junction_offers:
                    raise ProtocolError("more than one request per lane group and rc")
            except Exception as exc:
                raise SimulationError(exc, element=_PAIR % (conn.junction, r, g)) from exc
            junction_offers[i] = (m, sent, size)
        for array in self._arrays:
            if id(array.model) in due_ids:
                array.offer()
        self._solve_junctions(t, offers)
        self._remove_cuts()

    def _solve_junctions(self, t, offers: dict[int, dict]):
        """Solve and deliver the junctions' `offers`; each junction's path is
        fixed when the engine is built.

        Batch: every offered junction in `self._jset` (any that is not
        1x1x1) fills its slice of the batch's demand and supply, in
        ascending id; then the array junctions a deliverer ranked in `offer`
        fill theirs as array steps of their model (`open`), and one
        `nodemodel.solve` runs over `self._jset`.
        Deliver: the array junctions as array steps, model by model
        (`ArrayJunctions.deliver`); then the offered junctions in ascending
        id, pairs in pair order, each pair its batched flow or, at a 1x1x1
        junction, its closed-form one, within the receiving groups' supply
        now: the plan's, unless an earlier pair of the junction has entered
        the pair's receiving link in this pass (`_deliver_pairs`).

        No cut leaves its sender before the pass ends (`_remove_cuts`), and
        only a junction's own deliveries enter its downstream groups; so a
        supply, the free space now, reads the same whenever in the pass it
        is read before its junction delivers, a batched pair whose link no
        earlier pair of its junction entered may take the plan's value of
        it, and the array junctions, which touch no other junction's lane
        groups or ledgers and draw no random number, may go first. A
        failing array step names its pair (see `_array_step`)."""
        jset, stats = self._jset, self.stats
        arrays = [a for a in self._arrays if a.batched]
        batched = [jid for jid in sorted(offers) if jid in jset.place]
        stats.junctions_1x1 += len(offers) - len(batched)
        stats.junctions_batched += len(batched) + sum(a.batched for a in arrays)
        flow = pair_flow = plan_supply = None
        if arrays or batched:
            demand, supply = np.zeros(len(jset.pairs)), np.zeros(len(jset.downstream))
            for jid in batched:
                k = jset.place[jid]
                p0, h0 = jset.pair_start[k], jset.down_start[k]
                for i, (_, _, size) in offers[jid].items():
                    demand[p0 + i] = size
                try:
                    for j, h in enumerate(self._junctions[jid].downstream, h0):
                        supply[j] = self.model_of_group[h].lane_group_supply(h)
                except Exception as exc:
                    raise SimulationError(exc, element="junction %s" % jid) from exc
            for array in arrays:
                self._array_step(array, array.open, demand, supply)
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
            flow = flows.flow
            pair_flow, plan_supply = flow.tolist(), supply.tolist()
        for array in arrays:
            n = self._array_step(array, array.deliver, t, flow, self._cum_in, self._cum_out)
            stats.deliveries += n
            stats.array_deliveries += n
        self._deliver_pairs(t, offers, pair_flow, plan_supply)

    def _array_step(self, array: ArrayJunctions, step, *args):
        """`step(*args)` of an array deliverer. A failure is named by the
        pair it is tied to (`PairError`), with the error the pair-by-pair
        path raises there, or else by the deliverer's model."""
        try:
            return step(*args)
        except PairError as exc:
            raise SimulationError(exc.__cause__, element=_PAIR % exc.args) from exc.__cause__
        except Exception as exc:
            raise SimulationError(exc, element=self._name(array.model)) from exc

    def _deliver_pairs(self, t, offers, flow, supply):
        """Deliver the offered junctions in ascending id, pair by pair in pair
        order: each pair its batched flow out of `flow` (a list over the
        batch's pairs), or at a 1x1x1 junction its closed-form one, within
        the receiving lane groups' supply now.

        A 1x1x1 junction reads that supply. A batched pair takes it from
        the plan's `supply` (a list over the batch's downstream lane groups)
        unless an earlier pair of its junction has entered the pair's
        receiving link in this pass; then it reads it again, as an entry
        lowers the supply of whichever lane group of that link it fills,
        which for a car is the one its next link picks, in D_r or not."""
        jset, stats = self._jset, self.stats
        for jid in sorted(offers):
            junction, offered = self._junctions[jid], offers[jid]
            k = jset.place.get(jid)
            if k is not None:
                p0, h0 = jset.pair_start[k], jset.down_start[k]
                entered = []  # links the junction's pairs have entered so far
            for i in sorted(offered):  # in pair order
                (g, r), (sender, sent, size) = junction.pairs[i], offered[i]
                conn = self._rc[r]
                try:
                    if k is None:
                        caps = [conn.receiver.lane_group_supply(conn.groups[0])]
                        delta = nodemodel.solve_1x1(size, caps[0], r in self.closed_rcs)
                        if delta > nodemodel.EPS:
                            self._deliver(t, sender, g, conn, sent, size, delta, caps)
                        continue
                    delta = flow[p0 + i]
                    if delta <= nodemodel.EPS:
                        continue
                    if conn.down_link in entered:
                        caps = [conn.receiver.lane_group_supply(h) for h in conn.groups]
                        stats.supply_rereads += len(caps)
                    else:
                        caps = [supply[h0 + h] for h in conn.down_at]
                    made = stats.deliveries
                    self._deliver(t, sender, g, conn, sent, size, delta, caps)
                    if stats.deliveries != made:  # it entered the link
                        entered.append(conn.down_link)
                except Exception as exc:
                    raise SimulationError(exc, element=_PAIR % (junction.id, r, g)) from exc

    # --- delivery --------------------------------------------------------

    def _deliver(self, t, sender, g, conn: _Connection, sent, size, delta, caps):
        """Send the part of `sent` (a fluid packet, or a vehicle model's cars)
        the junction accepted (`delta` of its `size`) from lane group g
        through the road connection: one cut within the receiving lane
        groups' supply (`caps`, their free space now), then book, re-key,
        enter; the cut leaves its sender after the pass."""
        allow = sum(caps)
        if isinstance(sent, FluxPacket):
            total = min(min(1.0, delta / size) * size, allow)
            if total <= 0:
                return
            alpha = min(1.0, total / sent.size)
            # a whole request is sent as it is (a * 1.0 == a)
            if alpha != 1.0:
                sent = FluxPacket(sent.table, [a * alpha for a in sent.amounts])
            cut, book, enter = sent, self._book, self._enter
        else:
            credit = self._entry_credit.get(conn.id, 0.0)
            entitled = min(delta + credit, size)
            # the entitled share per state, no more than fit in the supply plus the credit
            sent, cut = take(sent, self.routing.slots[conn.up_link], entitled / size,
                             int(math.floor(allow + credit + 1e-9)))
            self._entry_credit[conn.id] = min(max(0.0, entitled - len(cut)), 1.0)
            if not cut:
                return
            book, enter = self._book_cars, self._enter_cars
        self.stats.deliveries += 1
        self._cuts.append((sender, g, conn.id, cut))
        book(sent, conn.up_link, self._out_book)
        routed = self.routing.assign_next_link(sent, conn.down_link, t, self.rng)
        enter(conn.receiver, conn.down_link, routed, conn.groups, caps, t)

    def _remove_cuts(self):
        """Take the flow phase's cuts out of their senders in the order they
        were made, then the array junctions' (`ArrayJunctions.remove`, a
        failure named as in `_array_step`); until then nothing has left a
        sender since the step began."""
        cuts, self._cuts = self._cuts, []
        self._remove(cuts)
        for array in self._arrays:
            self._array_step(array, array.remove)

    def _remove(self, cuts):
        for sender, g, r, sent in cuts:
            try:
                sender.remove(g, r, sent)
            except Exception as exc:
                where = ("lane group %s (exit)" % g if r is None else
                         _PAIR % (self._rc[r].junction, r, g))
                raise SimulationError(exc, element=where) from exc

    def _enter(self, receiver, link, packet: FluxPacket, groups, caps, t):
        """Book a re-keyed fluid packet into `link` and hand it to the link's
        model: as whole vehicles condensed from it, or as its amounts over
        the link's state table spread over `groups` (sorted, `caps` their
        supply) in proportion to their free space, evenly when none has any
        (entry credit can admit a vehicle into full fluid lane groups)."""
        self._book(packet, link, self._in_book)
        if receiver.vehicle_based:
            receiver.receive_vehicles(link, self.translator.translate(packet, link), t)
            return
        space = sum(caps)
        if space <= 0:
            caps, space = [1.0] * len(groups), float(len(groups))
        for h, w in zip(groups, caps):
            part = [a * w / space for a in packet.amounts]
            if any(part):
                receiver.receive_fluid(h, part, t)

    def _enter_cars(self, receiver, link, routed, groups, caps, t):
        """Book re-keyed cars, (slot of `link`'s state table, its cars) in
        slot order, into `link` and hand them to the link's model: whole, in
        slot order and FIFO within a slot, or dissolved into their counts
        through `_enter` (a probed car starts a tracker)."""
        if receiver.vehicle_based:
            self._book_cars(routed, link, self._in_book)
            receiver.receive_vehicles(link, [v for _, vs in routed for v in vs], t)
            return
        table = self.routing.tables[link]
        amounts = [0.0] * len(table)
        for k, vs in routed:
            amounts[k] = float(len(vs))
            for v in vs:
                if v.id in self._probed:
                    self.trackers.append(VirtualTracker(v.id, table[k], link, groups[0], 0.0))
        self._enter(receiver, link, FluxPacket(table, amounts), groups, caps, t)

    def _book(self, packet: FluxPacket, link: int, ledger: array):
        """Add the packet's amounts over `link`'s state table to the ledger
        (`_in_book` or `_out_book`), slot k at the link's first place plus
        k."""
        for k, a in enumerate(packet.amounts, self.place_of[link]):
            if a > 0:
                ledger[k] += a

    def _book_cars(self, slots, link: int, ledger: array):
        """Add the car count of each of `slots`, (slot, cars), to the ledger
        as `_book` adds an amount."""
        p = self.place_of[link]
        for k, vs in slots:
            ledger[p + k] += len(vs)

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
                    src.demand.vtype, link, src.demand.route, t, self.rng))
                for _ in range(n)
            ]
            model.receive_vehicles(link, vehicles, t)
            self._book_cars(by_slot(vehicles, self.routing.slots[link]), link, self._in_book)
            return
        amount = min(src.buffer, allow)
        if amount <= 0:
            return
        src.withdraw(amount)
        p0 = FluxPacket((StateIndex(src.demand.vtype, src.demand.route),), [amount])
        routed = self.routing.assign_next_link(p0, link, t, self.rng)
        groups = sorted(supply)  # the order fluid is spread in
        caps = [supply[h] for h in groups]
        self._enter(model, link, routed, groups, caps, t)

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
                # re-keyed as fluid entering nxt is, to the row's largest
                # share (the first on a tie), with no random draw
                row = self.routing._row(tr.state, nxt, t)
                tr.state = row.states[row.ratios.index(max(row.ratios))]
                tr.position -= length
                tr.link = nxt
                tr.group_id = self.net.link_groups[nxt][0]
                length = self.net.links[nxt].length

    # --- conservation audit ----------------------------------------------

    def _audit(self, t):
        """Each link's per-state balance of vehicles in, out and present, the
        models' own invariants and the boundary residues, after a step."""
        for link in sorted(self.net.links):
            table, p = self.routing.tables[link], self.place_of[link]
            for s, n, a, b in zip(table, self.link_state_counts(link),
                                  self._cum_in[p:p + len(table)].tolist(),
                                  self._cum_out[p:p + len(table)].tolist()):
                bal = a - b - n
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
        """`_cum_out` summed over the exit places, in place order."""
        return sum(self._cum_out[self._exit_places].tolist(), 0.0)
