"""Vehicle types, demand and split profiles, sources, next-link assignment."""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .network import Network
from .packets import FluxPacket, StateIndex


class RoutingError(ValueError):
    pass


class ConfigurationError(ValueError):
    pass


@dataclass
class VehicleType:
    id: int
    routing: str  # "routed" | "probabilistic"

    def __post_init__(self):
        if self.routing not in ("routed", "probabilistic"):
            raise ConfigurationError(
                "vehicle type %s: unknown routing behavior %r" % (self.id, self.routing)
            )

    @property
    def is_routed(self) -> bool:
        return self.routing == "routed"


@dataclass
class Route:
    id: int
    links: tuple[int, ...]

    def __post_init__(self):
        if not self.links:
            raise ConfigurationError("route %s is empty" % self.id)
        if len(set(self.links)) != len(self.links):
            raise ConfigurationError("route %s repeats a link" % self.id)

    def successor(self, link_id: int) -> int | None:
        """Next link after link_id, or None if link_id is the last link."""
        try:
            i = self.links.index(link_id)
        except ValueError:
            raise RoutingError("route %s does not contain link %s" % (self.id, link_id))
        return self.links[i + 1] if i + 1 < len(self.links) else None


@dataclass
class Profile:
    """Piecewise-constant, left-continuous time profile."""

    start_time: float
    period: float
    values: tuple[float, ...]

    def __post_init__(self):
        if not (math.isfinite(self.start_time) and 0 < self.period < math.inf):
            raise ConfigurationError(
                "profile start must be finite and its period positive and finite"
            )
        if not self.values:
            raise ConfigurationError("profile needs at least one sample")
        if not all(0 <= v < math.inf for v in self.values):
            raise ConfigurationError("profile values must be finite and >= 0")

    def piece(self, t: float) -> int:
        """Index of the value in force at time t."""
        i = int((t - self.start_time) // self.period)
        return max(0, min(i, len(self.values) - 1))

    def value_at(self, t: float) -> float:
        return self.values[self.piece(t)]


@dataclass
class DemandProfile:
    link: int
    vtype: int
    profile: Profile  # veh/hr
    route: int | None = None


@dataclass
class SplitProfile:
    """Turn ratios at a diverge, per vehicle type: next link -> time profile."""

    link: int
    vtype: int
    ratios: dict[int, Profile]

    def ratios_at(self, t: float) -> dict[int, float]:
        """Next link -> ratio at time t, normalised when the values do not
        sum to one (`validate` rejects a zero sum within the run)."""
        vals = {nl: p.value_at(t) for nl, p in self.ratios.items()}
        total = sum(vals.values())
        if total > 0 and abs(total - 1.0) > 1e-6:
            vals = {nl: v / total for nl, v in vals.items()}
        return vals

    def pieces_at(self, t: float) -> tuple[int, ...] | None:
        """The pieces of the ratio profiles in force at time t; None when
        every profile has one value, so the ratios never change."""
        if all(len(p.values) == 1 for p in self.ratios.values()):
            return None
        return tuple(p.piece(t) for p in self.ratios.values())


@dataclass
class Source:
    """A demand source with a limitless buffer of untransmitted demand."""

    id: int
    demand: DemandProfile
    buffer: float = 0.0  # veh, real-valued
    total_demanded: float = 0.0
    total_injected: float = 0.0
    override_rate: float | None = None  # veh/hr, actuated replacement

    def accrue(self, now: float, dt: float, vehicle_based: bool, rng: np.random.Generator):
        """Add one step's demand to the buffer. Fluid targets accrue the exact
        deterministic amount; vehicle targets accrue Poisson whole vehicles."""
        rate = (
            self.override_rate
            if self.override_rate is not None
            else self.demand.profile.value_at(now)
        )
        mean = rate / 3600.0 * dt
        amount = float(rng.poisson(mean)) if vehicle_based else mean
        self.buffer += amount
        self.total_demanded += amount
        return amount

    def withdraw(self, amount: float) -> float:
        taken = min(self.buffer, amount)
        self.buffer -= taken
        self.total_injected += taken
        return taken


class Row(NamedTuple):
    """A compiled routing row: next states and ratios in row order (which is
    state order), the slot of each next state in the entered link's state
    table, the ratios' total summed in row order, a draw's cumulative
    distribution (None for one state) and the split profile pieces it was
    compiled from (None: never stale)."""

    states: tuple[StateIndex, ...]
    slots: tuple[int, ...]
    ratios: tuple[float, ...]
    total: float
    cdf: list[float] | None
    pieces: tuple[int, ...] | None


def _cdf(ratios: tuple[float, ...]) -> list[float]:
    """The cumulative distribution of the ratios, built as numpy's
    `Generator.choice(p=...)` builds it from the normalised probabilities, so
    `bisect_right(cdf, rng.random())` picks what `choice` picks from the same
    uniform."""
    p = np.array(ratios)
    p = p / p.sum()
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


class RoutingContext:
    """Resolves state indices: each link's state table, route successors and
    split sampling."""

    def __init__(self, net: Network, vehicle_types: dict[int, VehicleType],
                 routes: dict[int, Route], splits: dict[tuple[int, int], SplitProfile]):
        self.successors = net.successors
        self.vehicle_types = vehicle_types
        self.routes = routes
        self.splits = splits  # (link, vehicle type) -> profile
        # per link, the states it can hold in state order, and each one's
        # slot: a probabilistic type keyed by each next link (ascending, or
        # None on a terminal link), a routed type by each route through the
        # link (ascending)
        through: dict[int, list[int]] = {}
        for rid in sorted(routes):
            for lid in routes[rid].links:
                through.setdefault(lid, []).append(rid)
        types = [(vid, vehicle_types[vid].is_routed) for vid in sorted(vehicle_types)]
        self.tables: dict[int, tuple[StateIndex, ...]] = {
            lid: tuple(StateIndex(vid, key) for vid, routed in types
                       for key in (through.get(lid, ()) if routed else nexts or (None,)))
            for lid, nexts in net.successors.items()
        }
        self.slots: dict[int, dict[StateIndex, int]] = {
            lid: {s: k for k, s in enumerate(table)} for lid, table in self.tables.items()
        }
        # actuated replacements: vehicle type -> route id, and
        # (link, vehicle type) -> turn ratios; set through `override_route`
        # and `override_split`, which drop the compiled rows and count the
        # drops in `version`, so a copy compiled from the rows can tell
        self.route_overrides: dict[int, int] = {}
        self.split_overrides: dict[tuple[int, int], dict[int, float]] = {}
        self._rows: dict[tuple[int, StateIndex], Row] = {}
        self.version = 0

    def override_route(self, vtype: int, route: int | None):
        """Send a routed type along `route` wherever it passes; None clears."""
        if route is None:
            self.route_overrides.pop(vtype, None)
        else:
            self.route_overrides[vtype] = route
        self._rows.clear()
        self.version += 1

    def override_split(self, link: int, vtype: int, ratios: dict[int, float] | None):
        """Replace a split profile's ratios; None returns to the profile."""
        if ratios is None:
            self.split_overrides.pop((link, vtype), None)
        else:
            self.split_overrides[link, vtype] = ratios
        self._rows.clear()
        self.version += 1

    def _row(self, s: StateIndex, link: int, now: float) -> Row:
        """The compiled row of state `s` entering `link`, recompiled only
        when its split profile has moved to another piece."""
        row = self._rows.get((link, s))
        if row is None or (row.pieces is not None
                           and row.pieces != self.splits[link, s.vtype].pieces_at(now)):
            row = self._rows[link, s] = self._compile(s, link, now)
        return row

    def _compile(self, s: StateIndex, link: int, now: float) -> Row:
        """The row of state `s` entering `link`, with the slot of each next
        state in the link's table; a next state the link cannot hold is
        refused here, on its first entry."""
        states, ratios, pieces = self._next_states(s, link, now)
        slot = self.slots[link]
        for ns in states:
            if ns not in slot:
                raise RoutingError("state %s has no slot on link %s" % (ns, link))
        return Row(states, tuple(slot[ns] for ns in states), ratios, sum(ratios),
                   _cdf(ratios) if len(ratios) > 1 else None, pieces)

    def _next_states(self, s: StateIndex, link: int, now: float):
        """Next states, ratios and split profile pieces for state `s`
        entering `link`: a routed type keeps its route, or takes the override
        route where that passes the link; a probabilistic type is keyed None
        on a terminal link, by the single successor, or by the positive split
        ratios in link order."""
        vtype = s.vtype
        if self.vehicle_types[vtype].is_routed:
            rid = self.route_overrides.get(vtype)
            if rid is not None and link in self.routes[rid].links:
                return (StateIndex(vtype, rid),), (1.0,), None
            if s.key is None:
                raise RoutingError("routed type %s needs a route" % vtype)
            return (s,), (1.0,), None
        nexts = self.successors[link]
        if len(nexts) < 2:
            return (StateIndex(vtype, nexts[0] if nexts else None),), (1.0,), None
        pieces = None
        ratios = self.split_overrides.get((link, vtype))
        if ratios is None:
            sp = self.splits.get((link, vtype))
            if sp is None:
                raise ConfigurationError(
                    "missing split profile for type %s at diverge link %s" % (vtype, link)
                )
            ratios, pieces = sp.ratios_at(now), sp.pieces_at(now)
        nls = [nl for nl in sorted(ratios) if ratios[nl] > 0]
        if not nls:
            raise ConfigurationError(
                "split ratios at link %s, type %s sum to zero" % (link, vtype)
            )
        return (tuple(StateIndex(vtype, nl) for nl in nls),
                tuple(ratios[nl] for nl in nls), pieces)

    @staticmethod
    def _draw(row: Row, rng: np.random.Generator) -> StateIndex:
        """One next state of the row: drawn with its ratios when there are
        two or more."""
        if row.cdf is None:
            return row.states[0]
        return row.states[bisect_right(row.cdf, rng.random())]

    def entry_state(self, vtype: int, entered_link: int, route: int | None,
                    now: float, rng: np.random.Generator) -> StateIndex:
        """State index for a vehicle/commodity entering `entered_link`."""
        return self._draw(self._row(StateIndex(vtype, route), entered_link, now), rng)

    def next_link_of(self, state: StateIndex, current_link: int) -> int | None:
        """Link the state proceeds to after current_link (None = exits)."""
        vt = self.vehicle_types[state.vtype]
        if vt.is_routed:
            return self.routes[state.key].successor(current_link)
        return state.key

    def assign_next_link(self, p, entered_link: int, now: float,
                         rng: np.random.Generator):
        """Re-key traffic as it enters a link, into the slots of the entered
        link's state table that each state's row compiled.

        `p` is a fluid packet, whose content of each state is divided over
        its row's ratios, into a packet over the entered link's table; or
        whole cars as (slot, its cars in FIFO order) in slot order, the cars
        of a slot sharing its state. Each car takes one next state drawn from
        its state's row, one uniform per car in slot order, and the cars come
        out as (slot of the entered link's table, its cars) in slot order,
        FIFO within a slot. Totals are conserved exactly.
        """
        if isinstance(p, FluxPacket):
            table = self.tables[entered_link]
            out = [0.0] * len(table)
            for s, amount in zip(p.table, p.amounts):
                if amount > 0:
                    _, slots, ratios, total, _, _ = self._row(s, entered_link, now)
                    for k, r in zip(slots, ratios):
                        out[k] += amount * r / total
            return FluxPacket(table, out)

        vout: dict[int, list] = {}
        for _, vehs in p:
            states, slots, _, _, cdf, _ = self._row(vehs[0].state, entered_link, now)
            picks = ([0] * len(vehs) if cdf is None else
                     [bisect_right(cdf, u) for u in rng.random(len(vehs)).tolist()])
            for v, i in zip(vehs, picks):
                v.state = states[i]
                vout.setdefault(slots[i], []).append(v)
        return sorted(vout.items())
