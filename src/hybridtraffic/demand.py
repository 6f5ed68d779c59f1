"""Vehicle types, demand and split profiles, sources, next-link assignment."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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
        if self.period <= 0:
            raise ConfigurationError("profile period must be positive")
        if not self.values:
            raise ConfigurationError("profile needs at least one sample")

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

    def __post_init__(self):
        if any(v < 0 for v in self.profile.values):
            raise ConfigurationError("demand intensities must be >= 0")


@dataclass
class SplitProfile:
    """Turn ratios at a diverge, per vehicle type: next link -> time profile."""

    link: int
    vtype: int
    ratios: dict[int, Profile]
    override: dict[int, float] | None = None  # actuated replacement ratios

    def ratios_at(self, t: float) -> dict[int, float]:
        if self.override is not None:
            vals = dict(self.override)
        else:
            vals = {nl: p.value_at(t) for nl, p in self.ratios.items()}
        total = sum(vals.values())
        if total <= 0:
            raise ConfigurationError(
                "split ratios at link %s, type %s sum to zero" % (self.link, self.vtype)
            )
        if abs(total - 1.0) > 1e-6:
            vals = {nl: v / total for nl, v in vals.items()}
        return vals


class SplitTable:
    def __init__(self, splits: list[SplitProfile]):
        self._by_key: dict[tuple[int, int], SplitProfile] = {}
        for sp in splits:
            key = (sp.link, sp.vtype)
            if key in self._by_key:
                raise ConfigurationError(
                    "duplicate split profile for link %s, type %s" % key
                )
            self._by_key[key] = sp

    def get(self, link: int, vtype: int) -> SplitProfile | None:
        return self._by_key.get((link, vtype))

    def set_override(self, link: int, vtype: int, ratios: dict[int, float]):
        sp = self._by_key.get((link, vtype))
        if sp is None:
            sp = SplitProfile(link=link, vtype=vtype, ratios={
                nl: Profile(0.0, 1.0, (r,)) for nl, r in ratios.items()
            })
            self._by_key[(link, vtype)] = sp
        sp.override = dict(ratios)

    def profiles(self) -> list[SplitProfile]:
        return [self._by_key[k] for k in sorted(self._by_key)]


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

    def __init__(
        self,
        vehicle_types: dict[int, VehicleType],
        routes: dict[int, Route],
        splits: SplitTable,
        terminal_links: set[int],
        link_next_links: dict[int, list[int]],
    ):
        self.vehicle_types = vehicle_types
        self.routes = routes
        self.splits = splits
        self.terminal_links = terminal_links
        self.link_next_links = link_next_links
        # actuated route reassignment: vehicle type id -> route id
        self.route_overrides: dict[int, int] = {}

    def _routed_state(self, vtype: int, route: int | None, entered_link: int) -> StateIndex:
        """State of a routed type entering a link: an actuated override whose
        route passes the link replaces `route`."""
        rid = self.route_overrides.get(vtype)
        if rid is None or entered_link not in self.routes[rid].links:
            rid = route
        if rid is None:
            raise RoutingError("routed type %s needs a route" % vtype)
        return StateIndex(vtype, rid)

    @staticmethod
    def _sample(ratios: dict[int, float], rng: np.random.Generator) -> int:
        """One next link drawn with the given split ratios."""
        links = sorted(ratios)
        probs = np.array([ratios[l] for l in links])
        return links[int(rng.choice(len(links), p=probs / probs.sum()))]

    def entry_state(self, vtype: int, entered_link: int, route: int | None,
                    now: float, rng: np.random.Generator) -> StateIndex:
        """State index for a vehicle/commodity entering `entered_link`."""
        if self.vehicle_types[vtype].is_routed:
            return self._routed_state(vtype, route, entered_link)
        ratios = self._split_row(vtype, entered_link, now)
        if ratios is None:
            return StateIndex(vtype, None)
        return StateIndex(vtype, self._sample(ratios, rng))

    def _split_row(self, vtype: int, link: int, now: float) -> dict[int, float] | None:
        """Nonzero split ratios for a probabilistic type at a link, or None on
        a terminal link. Single-successor links need no split profile."""
        if link in self.terminal_links:
            return None
        nexts = self.link_next_links.get(link, [])
        sp = self.splits.get(link, vtype)
        if sp is None:
            if len(nexts) == 1:
                return {nexts[0]: 1.0}
            raise ConfigurationError(
                "missing split profile for type %s at diverge link %s" % (vtype, link)
            )
        ratios = {nl: r for nl, r in sp.ratios_at(now).items() if r > 0}
        bad = set(ratios) - set(nexts)
        if bad:
            raise ConfigurationError(
                "split profile at link %s references non-successor links %s"
                % (link, sorted(bad))
            )
        return ratios

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

        Routed states keep their route id. Probabilistic fluid content is
        divided over the nonzero split ratios; probabilistic vehicles each
        sample one next link. Totals are conserved exactly.
        """
        if p.is_fluid:
            out: dict[StateIndex, float] = {}
            for s in p.states():
                amount = p.fluid[s]
                vt = self.vehicle_types[s.vtype]
                if vt.is_routed:
                    ns = self._routed_state(s.vtype, s.key, entered_link)
                    out[ns] = out.get(ns, 0.0) + amount
                    continue
                ratios = self._split_row(s.vtype, entered_link, now)
                if ratios is None:
                    ns = StateIndex(s.vtype, None)
                    out[ns] = out.get(ns, 0.0) + amount
                    continue
                total = sum(ratios.values())
                for nl in sorted(ratios):
                    ns = StateIndex(s.vtype, nl)
                    out[ns] = out.get(ns, 0.0) + amount * ratios[nl] / total
            return FluxPacket(fluid=out)

        vout: dict[StateIndex, list] = {}
        for s in p.states():
            vt = self.vehicle_types[s.vtype]
            ratios = None
            if not vt.is_routed:
                ratios = self._split_row(s.vtype, entered_link, now)
            for v in p.vehicles[s]:
                if vt.is_routed:
                    ns = self._routed_state(s.vtype, s.key, entered_link)
                elif ratios is None:
                    ns = StateIndex(s.vtype, None)
                elif len(ratios) == 1:
                    ns = StateIndex(s.vtype, next(iter(ratios)))
                else:
                    ns = StateIndex(s.vtype, self._sample(ratios, rng))
                v.state = ns
                vout.setdefault(ns, []).append(v)
        vout = {s: vout[s] for s in sorted(vout, key=state_sort_key)}
        return FluxPacket(vehicles=vout)
