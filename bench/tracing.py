"""Outside-in tracing: spans recorded around the program's public entry
points, a counting proxy for the engine's random generator, and the table of
per-layer metrics derived from both.

Nothing inside the program is edited. Set-up entry points are patched on
their modules for the duration of a traced set-up (`setup_patches`); run-time
entry points are wrapped on the objects of a built engine (`instrument`).
"""

from __future__ import annotations

import contextlib
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

import hybridtraffic.network as network_mod
import hybridtraffic.nodemodel as nodemodel_mod
import hybridtraffic.scenario as scenario_mod

PROTOCOL = ("lane_group_supply", "get_packet_size", "remove",
            "receive_fluid", "receive_vehicles")
MODEL_KINDS = ("ctm", "two_queue", "newell")


class Tracer:
    """Spans (name, start, end, parent) kept in flat arrays, plus counters.

    A span's parent is the span open when it started (-1 for a root), so the
    spans of one traced run form a forest whose roots are the bench's own
    calls into the program.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn, on_result=None):
        """`fn` with every call recorded as a span named `name`.
        `on_result(args, result)` may add to `counts` after each call."""
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        names, parents, starts, ends, stack = (
            self.name, self.parent, self.start, self.end, self._stack)

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                starts[i] = t0
                stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name."""
        return dict(zip(self.names, self_times_by_name(
            np.frombuffer(self.name, dtype=np.int32),
            np.frombuffer(self.parent, dtype=np.int32),
            np.frombuffer(self.start, dtype=np.float64),
            np.frombuffer(self.end, dtype=np.float64),
            len(self.names),
        )))

    def calls(self) -> dict[str, int]:
        ids = np.bincount(np.frombuffer(self.name, dtype=np.int32),
                          minlength=len(self.names))
        return {n: int(c) for n, c in zip(self.names, ids)}

    def save(self, path: str):
        np.savez(path, names=np.array(self.names), name=np.asarray(self.name),
                 parent=np.asarray(self.parent), start=np.asarray(self.start),
                 end=np.asarray(self.end))


def self_times_by_name(name, parent, start, end, n_names: int) -> np.ndarray:
    """A span's self time is its duration minus the durations of its direct
    children; summed per name id. Spans of one thread nest, so children
    never overlap each other and together never exceed their parent."""
    dur = end - start
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent],
                        minlength=len(dur))
    return np.bincount(name, weights=dur - child, minlength=n_names)


class CountingRng:
    """Delegates to a numpy Generator and counts the draws the simulator
    makes, so the random stream is the generator's own."""

    def __init__(self, gen: np.random.Generator):
        self._gen = gen
        self.counts: Counter = Counter()

    def normal(self, *args, **kwargs):
        self.counts["normal"] += 1
        return self._gen.normal(*args, **kwargs)

    def poisson(self, *args, **kwargs):
        self.counts["poisson"] += 1
        return self._gen.poisson(*args, **kwargs)

    def choice(self, *args, **kwargs):
        self.counts["choice"] += 1
        return self._gen.choice(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._gen, name)


@contextlib.contextmanager
def setup_patches(tracer: Tracer):
    """Trace validation, network building and runtime construction, which
    `Engine.__init__` reaches through module attributes."""
    saved = [
        (scenario_mod, "validate_scenario", scenario_mod.validate_scenario),
        (scenario_mod, "build_runtime", scenario_mod.build_runtime),
        (network_mod.Network, "build", network_mod.Network.__dict__["build"]),
    ]
    scenario_mod.validate_scenario = tracer.wrap(
        "scenario.validate", scenario_mod.validate_scenario)
    scenario_mod.build_runtime = tracer.wrap(
        "scenario.build_runtime", scenario_mod.build_runtime)
    network_mod.Network.build = classmethod(tracer.wrap(
        "network.build", network_mod.Network.build.__func__))
    try:
        yield
    finally:
        for owner, attr, value in saved:
            setattr(owner, attr, value)


@contextlib.contextmanager
def solve_patch(tracer: Tracer):
    """Trace junction solves, which the engine calls as `nodemodel.solve`."""
    solve = nodemodel_mod.solve

    def count(args, sol):
        p = args[0]
        tracer.counts["nodemodel.solves_1x1"] += len(p.upstream) == 1 and len(p.rcs) == 1
        tracer.counts["nodemodel.iterations"] += sol.iterations
        tracer.counts["nodemodel.size_sum"] += (
            len(p.upstream) * len(p.rcs) * len(p.downstream))

    nodemodel_mod.solve = tracer.wrap("nodemodel.solve", solve, count)
    try:
        yield
    finally:
        nodemodel_mod.solve = solve


def instrument(engine, tracer: Tracer) -> CountingRng:
    """Wrap the public entry points the engine calls on its models, routing,
    sources, control objects and translator; swap in a counting RNG."""
    for m in engine.models:
        for method in ("compute_demands", "advance_state"):
            setattr(m, method, tracer.wrap(
                "%s.%s" % (m.kind, method), getattr(m, method)))
        for method in PROTOCOL:
            setattr(m, method, tracer.wrap(
                "%s.protocol" % m.kind, getattr(m, method)))
        if m.kind == "newell":
            m.headway_query = tracer.wrap("newell.headway", m.headway_query)
    routing = engine.routing
    routing.assign_next_link = tracer.wrap("demand.routing", routing.assign_next_link)
    routing.entry_state = tracer.wrap("demand.routing", routing.entry_state)
    for src in engine.sources:
        src.accrue = tracer.wrap("demand.accrue", src.accrue)
    for s in engine.sensors:
        s.read = tracer.wrap("control", s.read)
    for c in engine.controllers:
        c.step = tracer.wrap("control", c.step)
    for a in engine.actuators:
        a.flush = tracer.wrap("control", a.flush)

    def condensed(args, vehicles):
        tracer.counts["packets.vehicles_condensed"] += len(vehicles)

    engine.translator.translate = tracer.wrap(
        "packets.translate", engine.translator.translate, condensed)
    engine.rng = CountingRng(engine.rng)
    return engine.rng


# Per-layer metrics: (name, unit, source, end-to-end metric it should move,
# workloads where that shows, most to least). Sources: ("self", span) is
# self time, ("calls", span) the number of spans, ("count", key) a tracer
# counter, ("rng", method) a CountingRng counter, ("bench", key) a value the
# bench measures itself.
_MODEL_ROWS = {
    "ctm": ("grid_macro, grid_micro", "run_s, peak_rss_mb"),
    "two_queue": ("corridors, grid_macro", "run_s"),
    "newell": ("grid_micro, corridors, grid_macro (zero)", "run_s, step_ms_p50"),
}
SETUP_WL = "grid_macro, corridors"

LAYER_METRICS = [
    ("scenario.load_s", "s", ("self", "scenario.load"), "setup_s", SETUP_WL),
    ("scenario.validate_s", "s", ("self", "scenario.validate"), "setup_s", SETUP_WL),
    ("network.build_s", "s", ("self", "network.build"), "setup_s", SETUP_WL),
    ("network.build_calls", "count", ("calls", "network.build"), "setup_s", SETUP_WL),
    ("scenario.build_runtime_s", "s", ("self", "scenario.build_runtime"), "setup_s",
     SETUP_WL),
    ("engine.init_s", "s", ("self", "engine.init"), "setup_s", SETUP_WL),
    ("engine.self_s", "s", ("self", "engine.run"), "run_s, step_ms_p50",
     "corridors, grid_macro"),
    ("nodemodel.solve_s", "s", ("self", "nodemodel.solve"), "run_s",
     "corridors (all 1x1), grid_macro (general)"),
    ("nodemodel.solves", "count", ("calls", "nodemodel.solve"), "run_s",
     "corridors, grid_macro"),
    ("nodemodel.solves_1x1", "count", ("count", "nodemodel.solves_1x1"), "run_s",
     "corridors, grid_macro"),
    ("nodemodel.iterations", "count", ("count", "nodemodel.iterations"), "run_s",
     "corridors, grid_macro"),
    ("nodemodel.size_sum", "count", ("count", "nodemodel.size_sum"), "run_s",
     "grid_macro, corridors"),
]
for _kind in MODEL_KINDS:
    _wl, _moves = _MODEL_ROWS[_kind]
    LAYER_METRICS += [
        ("%s.compute_demands_s" % _kind, "s", ("self", "%s.compute_demands" % _kind),
         _moves, _wl),
        ("%s.advance_state_s" % _kind, "s", ("self", "%s.advance_state" % _kind),
         _moves, _wl),
        ("%s.protocol_s" % _kind, "s", ("self", "%s.protocol" % _kind), _moves, _wl),
        ("%s.protocol_calls" % _kind, "count", ("calls", "%s.protocol" % _kind),
         _moves, _wl),
    ]
LAYER_METRICS += [
    ("newell.headway_s", "s", ("self", "newell.headway"), "run_s, step_ms_p50",
     "grid_micro, corridors, grid_macro (zero)"),
    ("newell.headway_calls", "count", ("calls", "newell.headway"),
     "run_s, step_ms_p50", "grid_micro, corridors, grid_macro (zero)"),
    ("rng.normal_calls", "count", ("rng", "normal"), "run_s", "grid_micro, corridors"),
    ("rng.poisson_calls", "count", ("rng", "poisson"), "run_s", "grid_macro, corridors"),
    ("rng.choice_calls", "count", ("rng", "choice"), "run_s", "grid_macro, grid_micro"),
    ("packets.translate_s", "s", ("self", "packets.translate"), "run_s",
     "grid_micro, grid_macro, corridors"),
    ("packets.vehicles_condensed", "count", ("count", "packets.vehicles_condensed"),
     "run_s", "grid_micro, grid_macro, corridors"),
    ("demand.routing_s", "s", ("self", "demand.routing"), "run_s",
     "grid_macro, grid_micro"),
    ("demand.routing_calls", "count", ("calls", "demand.routing"), "run_s",
     "grid_macro, grid_micro"),
    ("demand.accrue_s", "s", ("self", "demand.accrue"), "run_s", "grid_macro"),
    ("control.s", "s", ("self", "control"), "run_s", "grid_macro only"),
    ("control.calls", "count", ("calls", "control"), "run_s", "grid_macro only"),
    ("outputs.write_s", "s", ("self", "outputs.write"), "run_s, step_ms_tail",
     "corridors only"),
    ("outputs.bytes", "bytes", ("bench", "outputs.bytes"), "run_s, step_ms_tail",
     "corridors only"),
    ("trace.overhead_s", "s", ("bench", "trace.overhead_s"), "none (traced minus "
     "untraced run_s)", "all"),
]
