"""Vehicle types, demand and split profiles, sources, next-link assignment."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network import Network
from .packets import FluxPacket, StateIndex, state_sort_key


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

    def value_at(self, t: float) -> float:
        i = int((t - self.start_time) // self.period)
        i = max(0, min(i, len(self.values) - 1))
        return self.values[i]


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
        vals = {nl: p.value_at(t) for nl, p in self.ratios.items()}
        total = sum(vals.values())
        if total <= 0:
            raise ConfigurationError(
                "split ratios at link %s, type %s sum to zero" % (self.link, self.vtype)
            )
        if abs(total - 1.0) > 1e-6:
            vals = {nl: v / total for nl, v in vals.items()}
        return vals


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


class RoutingContext:
    """Resolves state indices: route successors and split sampling."""

    def __init__(self, net: Network, vehicle_types: dict[int, VehicleType],
                 routes: dict[int, Route], splits: dict[tuple[int, int], SplitProfile]):
        self.successors = net.successors
        self.vehicle_types = vehicle_types
        self.routes = routes
        self.splits = splits  # (link, vehicle type) -> profile
        # actuated replacements: vehicle type -> route id, and
        # (link, vehicle type) -> turn ratios
        self.route_overrides: dict[int, int] = {}
        self.split_overrides: dict[tuple[int, int], dict[int, float]] = {}

    def _row(self, s: StateIndex, link: int, now: float) -> dict[StateIndex, float]:
        """Next state -> ratio for state `s` entering `link`: a routed type
        keeps its route, or takes the override route where that passes the
        link; a probabilistic type is keyed None on a terminal link, by the
        single successor, or by the positive split ratios in link order."""
        vtype = s.vtype
        if self.vehicle_types[vtype].is_routed:
            rid = self.route_overrides.get(vtype)
            if rid is not None and link in self.routes[rid].links:
                return {StateIndex(vtype, rid): 1.0}
            if s.key is None:
                raise RoutingError("routed type %s needs a route" % vtype)
            return {s: 1.0}
        nexts = self.successors[link]
        if len(nexts) < 2:
            return {StateIndex(vtype, nexts[0] if nexts else None): 1.0}
        ratios = self.split_overrides.get((link, vtype))
        if ratios is None:
            sp = self.splits.get((link, vtype))
            if sp is None:
                raise ConfigurationError(
                    "missing split profile for type %s at diverge link %s" % (vtype, link)
                )
            ratios = sp.ratios_at(now)
        return {StateIndex(vtype, nl): ratios[nl] for nl in sorted(ratios) if ratios[nl] > 0}

    @staticmethod
    def _draw(row: dict[StateIndex, float], rng: np.random.Generator) -> StateIndex:
        """One next state of the row: drawn with its ratios when there are
        two or more."""
        if len(row) == 1:
            return next(iter(row))
        states = list(row)
        probs = np.array(list(row.values()))
        return states[int(rng.choice(len(states), p=probs / probs.sum()))]

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

    def assign_next_link(
        self, p: FluxPacket, entered_link: int, now: float, rng: np.random.Generator
    ) -> FluxPacket:
        """Re-key a packet as it enters a link.

        Fluid content of each state is divided over its row's ratios;
        vehicles each take one next state drawn from their state's row.
        Totals are conserved exactly.
        """
        if p.is_fluid:
            out: dict[StateIndex, float] = {}
            for s in p.states():
                amount = p.fluid[s]
                row = self._row(s, entered_link, now)
                total = sum(row.values())
                for ns, r in row.items():
                    out[ns] = out.get(ns, 0.0) + amount * r / total
            return FluxPacket(fluid=out)

        vout: dict[StateIndex, list] = {}
        for s in p.states():
            row = self._row(s, entered_link, now)
            for v in p.vehicles[s]:
                v.state = ns = self._draw(row, rng)
                vout.setdefault(ns, []).append(v)
        vout = {s: vout[s] for s in sorted(vout, key=state_sort_key)}
        return FluxPacket(vehicles=vout)
