"""Workloads, timed runs, correctness gates and metric reports.

Every workload is closed-loop: one scenario at a time in this process, set
up and run through the calls `hybridtraffic run` makes (`load_scenario`,
`Engine(sc)`, `engine.run(observer)` with an `OutputWriter`). The observer
fires on the model clock, so per-step wall time is measured from outside;
it writes CSVs only at the workload's CSV period, which gives the bytes the
CLI writes with `--out-dt`.

On a shared host other tenants slow this process by up to a half, for
seconds to minutes at a time, without taking its CPU away, so raw wall
times of whole runs of the same code spread by a quarter. Untraced runs
therefore time a fixed pure-Python probe between steps (at most every
PROBE_GAP s, and around each set-up sample) and report every wall time
scaled by PROBE_REFERENCE_S over the probes around it: the time it would
have taken on a host where the probe takes PROBE_REFERENCE_S, a little under
its fastest time on a shared 2.1 GHz Xeon core. Other tenants slow the
probe and the simulator alike, so the scaled times of repeats agree within a
few percent where their raw times differ by a quarter. The probe's own time
is left out of every timing; raw wall medians are printed above the result
line.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import traceback
from array import array
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter

import hybridtraffic
from hybridtraffic import Engine, load_scenario, validate_scenario
from hybridtraffic.outputs import OutputWriter

from gridgen import GridSpec, write_grid
from tracing import LAYER_METRICS, Tracer, instrument, setup_patches, solve_patch

CSV_PERIOD = 10.0  # s of model time, as `hybridtraffic run --out-dt 10`
LEDGER_TOL = 1e-6  # veh
MIN_REPEATS = 2
MIN_SETUPS = 3  # set-up-only samples, taken back to back after the repeats
SETUP_SECONDS = 2.0  # and for at least this long
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)
TAIL_BEYOND = 10  # steps the reported tail percentile must leave beyond it
BUNDLED = ("macro_meso", "macro_micro", "meso_micro", "micro_macro")
PROBE_GAP = 0.02  # s of wall time between probes in a run
PROBE_REFERENCE_S = 0.3e-3  # reported times are scaled to this probe time
PROBE_LOOPS = 2000  # about 0.4 ms of pure Python per pass
PROBES_AROUND = 3  # probes before and after each set-up sample

# Why each workload exists. corridors: the reference runs users make, with
# the bundled files' own seed (see `prepare`); every junction is 1x1, so
# per-step fixed costs (junction assembly, tiny node solves, CSV writes)
# dominate and set-up is negligible. grid_macro: the 1000-link rung; set-up
# is large (YAML, validation, two network builds) and the run goes to CTM,
# general node solves, routing and signal control while Newell does no work.
# Its rows are short, so the grid fills within about a third of the horizon
# and most steps cost the same. grid_micro: the vehicle path; Newell with
# noise on nearly every link, fluid condensed into vehicles at a CTM entry
# block.
GRIDS = {
    "grid_macro": GridSpec(
        rows=60, cols=10,
        blocks=(("ctm", 0, 9), ("two_queue", 5, 5)),
        signal_share=0.2, length_range=(30.0, 70.0), duration=100.0, dt=2.0,
    ),
    "grid_micro": GridSpec(
        rows=10, cols=7,
        blocks=(("newell", 0, 6), ("ctm", 0, 0)),
        signal_share=0.0, length_range=(60.0, 120.0), duration=480.0, dt=1.0,
    ),
}
WORKLOADS = ("corridors",) + tuple(GRIDS)


@dataclass
class Case:
    """One scenario of a workload, as the program loads it."""

    path: str
    csv_dir: str | None = None  # CSVs are written only when set
    drains: bool = False  # under one vehicle may be left in the network at the end


@dataclass
class Repeat:
    """One pass over a workload's cases."""

    setup_s: float = 0.0
    run_s: float = 0.0
    steps: array = field(default_factory=lambda: array("d"))
    # (k, probe seconds): a probe taken after the first k steps
    probes: list[tuple[int, float]] = field(default_factory=list)
    digests: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    out_bytes: int = 0
    tracer: Tracer | None = None
    rng_counts: Counter = field(default_factory=Counter)

    @property
    def digest(self) -> str:
        return hashlib.sha256("".join(self.digests).encode()).hexdigest()


def _kernel():
    d: dict[int, float] = {}
    acc = 0.0
    for i in range(PROBE_LOOPS):
        k = i % 997
        d[k] = d.get(k, 0.0) + i * 0.5
        acc += d[k]


def probe() -> float:
    """Wall time of a fixed pure-Python kernel (dict updates and float
    arithmetic, the operations the simulator spends its time on), timed on
    its second pass so that whatever ran before does not leave it cold."""
    _kernel()
    t0 = perf_counter()
    _kernel()
    return perf_counter() - t0


def scaled_steps(rep: Repeat) -> array:
    """Step times of an untraced repeat, each scaled by PROBE_REFERENCE_S
    over the mean of the two probes around it (the nearest one at either
    end)."""
    out = array("d")
    m = 0
    for j, dt in enumerate(rep.steps):
        while m < len(rep.probes) and rep.probes[m][0] <= j:
            m += 1
        around = [rep.probes[i][1] for i in (m - 1, m) if 0 <= i < len(rep.probes)]
        out.append(dt * PROBE_REFERENCE_S * len(around) / sum(around))
    return out


def prepare(workload: str, seed: int, work_dir: str) -> list[Case]:
    """Write the workload's inputs for `seed` and check that they validate.

    The corridors are the bundled files as shipped, run with their own seed
    as `hybridtraffic run <name>` runs them. Their horizon leaves about 140 s
    of slack behind the 1000 veh/hr bottleneck, so under other seeds the
    Poisson arrivals can leave vehicles queued at the end and the drain gate
    would not hold.
    """
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    if workload == "corridors":
        scen_dir = os.path.join(os.path.dirname(hybridtraffic.__file__), "scenarios")
        cases = [
            Case(os.path.join(scen_dir, name + ".yaml"),
                 csv_dir=os.path.join(work_dir, name), drains=True)
            for name in BUNDLED
        ]
    else:
        path = os.path.join(work_dir, "scenario.yaml")
        write_grid(GRIDS[workload], seed, path)
        cases = [Case(path)]
    for case in cases:
        diags = validate_scenario(load_scenario(case.path))
        if diags:
            raise ValueError("%s: %s" % (case.path, "; ".join(diags)))
    return cases


def model_clock(sc) -> float:
    dts = {m.dt for m in sc.models}
    if len(dts) != 1:
        raise ValueError("benchmark scenarios share one model dt, got %s" % sorted(dts))
    return dts.pop()


def _csv_due(t: float) -> bool:
    k = round(t / CSV_PERIOD)
    return abs(t - k * CSV_PERIOD) < 1e-6


def set_up(case: Case, audit: bool = False, tracer: Tracer | None = None):
    """The engine for one scenario and the seconds it took to set up."""
    load, make = load_scenario, Engine
    patches = contextlib.nullcontext()
    if tracer is not None:
        load = tracer.wrap("scenario.load", load_scenario)
        make = tracer.wrap("engine.init", Engine)
        patches = setup_patches(tracer)
    with patches:
        t0 = perf_counter()
        sc = load(case.path)
        sc.run.output_dt = model_clock(sc)
        engine = make(sc, audit=audit)
        return engine, perf_counter() - t0


def run_case(case: Case, rep: Repeat, audit: bool = False, tracer: Tracer | None = None):
    """Set up and run one scenario, adding its timings, per-step times,
    output digest and gate failures to `rep`."""
    engine, setup_s = set_up(case, audit, tracer)
    rep.setup_s += setup_s

    run = engine.run
    patches = contextlib.nullcontext()
    if tracer is not None:
        rep_rng = instrument(engine, tracer)
        run = tracer.wrap("engine.run", engine.run)
        patches = solve_patch(tracer)
    writer = OutputWriter(case.csv_dir) if case.csv_dir else None
    write = None
    if writer is not None:
        write = writer.write if tracer is None else tracer.wrap("outputs.write", writer.write)
    steps, probes = array("d"), []
    probed = tracer is None  # a probe inside a traced run would count as engine self time
    prev = last_probe = probed_s = 0.0

    def observe(e, t):
        nonlocal prev, last_probe, probed_s
        if write is not None and _csv_due(t):
            write(e, t)
        now = perf_counter()
        steps.append(now - prev)
        prev = now
        if probed and now - last_probe >= PROBE_GAP:
            probes.append((len(rep.steps) + len(steps), probe()))
            prev = last_probe = perf_counter()
            probed_s += prev - now

    try:
        with patches:
            t2 = prev = last_probe = perf_counter()
            run(observer=observe)
            t3 = perf_counter()
    finally:
        if writer is not None:
            writer.close()
    rep.run_s += t3 - t2 - probed_s
    rep.steps.extend(steps)
    rep.probes.extend(probes)
    if tracer is not None:
        rep.rng_counts.update(rep_rng.counts)

    name = os.path.basename(case.path)
    ledger = engine.total_injected() - engine.total_exited() - engine.total_in_network()
    if abs(ledger) > LEDGER_TOL:
        rep.failures.append("%s: ledger off by %.3e veh" % (name, ledger))
    if case.drains and engine.total_in_network() >= 1.0:
        rep.failures.append("%s: %.3f veh left in the network"
                            % (name, engine.total_in_network()))
    if audit and engine.audit_failures:
        rep.failures.append("%s: %d audit failures, first: %s"
                            % (name, len(engine.audit_failures), engine.audit_failures[0]))
    if case.csv_dir:
        h = hashlib.sha256()
        for fname in sorted(os.listdir(case.csv_dir)):
            path = os.path.join(case.csv_dir, fname)
            rep.out_bytes += os.path.getsize(path)
            with open(path, "rb") as f:
                h.update(f.read())
        rep.digests.append(h.hexdigest())
    else:
        rows = "".join(
            "%d %r %r\n" % (l, sum(engine.cum_in[l].values()), sum(engine.cum_out[l].values()))
            for l in sorted(engine.net.links)
        )
        rep.digests.append(hashlib.sha256(rows.encode()).hexdigest())


def run_repeat(cases: list[Case], audit: bool = False, traced: bool = False) -> Repeat:
    gc.collect()
    rep = Repeat(tracer=Tracer() if traced else None)
    for case in cases:
        run_case(case, rep, audit=audit, tracer=rep.tracer)
    return rep


def setup_once(cases: list[Case]) -> tuple[float, list[float]]:
    """Set-up time of every case without running it, and the probes taken
    around it."""
    gc.collect()
    probes = [probe() for _ in range(PROBES_AROUND)]
    took = sum(set_up(case)[1] for case in cases)
    return took, probes + [probe() for _ in range(PROBES_AROUND)]


def tail_percentile(steps_per_repeat: int) -> float:
    """Highest ladder percentile with at least TAIL_BEYOND of one repeat's
    steps beyond it."""
    for p in TAIL_LADDER:
        if steps_per_repeat - math.ceil(p / 100.0 * steps_per_repeat) >= TAIL_BEYOND:
            return p
    raise ValueError("a repeat needs more than %d steps" % TAIL_BEYOND)


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(p / 100.0 * len(s)) - 1)]


def layer_values(rep: Repeat) -> dict[str, float]:
    """Per-layer metrics of one traced repeat (bench-measured ones aside)."""
    self_t, calls = rep.tracer.self_times(), rep.tracer.calls()
    out = {}
    for name, _unit, (kind, key), _moves, _wl in LAYER_METRICS:
        if kind == "self":
            out[name] = self_t.get(key, 0.0)
        elif kind == "calls":
            out[name] = calls.get(key, 0)
        elif kind == "count":
            out[name] = rep.tracer.counts.get(key, 0)
        elif kind == "rng":
            out[name] = rep.rng_counts.get(key, 0)
    out["outputs.bytes"] = rep.out_bytes
    return out


class Session:
    """Counts attempted and failed runs; a run fails on an exception or on
    any failed gate, and its digest must match the first run's."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reference: str | None = None

    def fail(self, msg: str):
        print("gate failed: %s" % msg, file=sys.stderr)
        self.failed += 1

    def attempt(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            result = fn(*args, **kwargs)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        if isinstance(result, Repeat):
            if self.reference is None:
                self.reference = result.digest
            elif result.digest != self.reference:
                result.failures.append("output digest differs from the first run")
            if result.failures:
                self.fail("; ".join(result.failures))
                return None
        return result


def measure(cases: list[Case], seconds: float, session: Session) -> dict:
    """End-to-end metrics from untraced repeats."""
    session.attempt(run_repeat, cases, audit=True)
    reps, setups = [], []
    t_start = perf_counter()
    while len(reps) < MIN_REPEATS or perf_counter() - t_start < seconds:
        rep = session.attempt(run_repeat, cases)
        if rep is None:
            break
        reps.append(rep)
    t_setup = perf_counter()
    while reps and (len(setups) < MIN_SETUPS or perf_counter() - t_setup < SETUP_SECONDS):
        s = session.attempt(setup_once, cases)
        if s is None:
            break
        setups.append(s)
    if not reps or not setups:
        return {}
    # Every repeat does the same steps, so a step's time is its fastest over
    # the repeats: a step slowed in one repeat only does not reach the tail.
    scaled = [scaled_steps(rep) for rep in reps]
    steps = [min(times) for times in zip(*scaled)]
    wall_s = [rep.run_s for rep in reps]
    run_s = [w * sum(s) / sum(rep.steps) for w, s, rep in zip(wall_s, scaled, reps)]
    setup_s = [s * PROBE_REFERENCE_S / statistics.median(probes) for s, probes in setups]
    n_rep = len(reps[0].steps)
    p_tail = tail_percentile(n_rep)
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "run_s": (statistics.median(run_s), "s"),
        "step_ms_p50": (statistics.median(steps) * 1e3, "ms"),
        "step_ms_tail": (percentile(steps, p_tail) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    print("%d repeats of %d steps, %d set-ups; step_ms_tail is p%g of %d per-step minima"
          % (len(reps), n_rep, len(setups), p_tail, len(steps)))
    probes = [p for r in reps for _k, p in r.probes]
    print("raw wall medians: set-up %.6g s, run %.6g s; probe median %.4g ms, "
          "fastest %.4g ms, reference %.4g ms"
          % (statistics.median(s for s, _p in setups), statistics.median(wall_s),
             statistics.median(probes) * 1e3, min(probes) * 1e3, PROBE_REFERENCE_S * 1e3))
    return metrics


def measure_traced(cases: list[Case], seconds: float, session: Session,
                   work_dir: str) -> dict:
    """Per-layer metrics from traced repeats, alternating with untraced
    ones for the tracing overhead."""
    session.attempt(run_repeat, cases, audit=True)
    plain, traced = [], []
    t_start = perf_counter()
    while len(traced) < MIN_REPEATS or perf_counter() - t_start < seconds:
        rep = session.attempt(run_repeat, cases, traced=len(plain) > len(traced))
        if rep is None:
            break
        (traced if rep.tracer else plain).append(rep)
    if not traced or not plain:
        return {}
    values = [layer_values(r) for r in traced]
    metrics, inexact = {}, []
    for name, unit, (kind, _key), _moves, _wl in LAYER_METRICS:
        if kind == "self":
            metrics[name] = (statistics.median(v[name] for v in values), unit)
        elif name != "trace.overhead_s":
            if any(v[name] != values[0][name] for v in values):
                inexact.append("%s %s" % (name, [v[name] for v in values]))
            metrics[name] = (values[0][name], unit)
    if inexact:
        session.fail("counts differ between traced runs: " + ", ".join(inexact))
    metrics["trace.overhead_s"] = (
        statistics.median(r.run_s for r in traced)
        - statistics.median(r.run_s for r in plain), "s")
    for i, rep in enumerate(traced):
        total = sum(rep.tracer.self_times().values())
        timed = rep.setup_s + rep.run_s
        print("traced run %d: self times sum to %.6f s, set-up + run %.6f s"
              % (i, total, timed))
        if abs(total - timed) > 1e-3 * timed:
            session.fail("self times of traced run %d do not add up to set-up + run" % i)
        rep.tracer.save(os.path.join(work_dir, "trace-%d.npz" % i))
    print("%d traced and %d untraced repeats; spans written to %s"
          % (len(traced), len(plain), work_dir))
    return metrics


def _report(metrics: dict, trace: bool):
    if trace:
        rows = {name: (moves, wl) for name, _u, _s, moves, wl in LAYER_METRICS}
        for name, (value, unit) in metrics.items():
            moves, wl = rows[name]
            shown = "%14d" % value if unit in ("count", "bytes") else "%14.6g" % value
            print("  %-28s %s %-5s moves %-22s on %s" % (name, shown, unit, moves, wl))
    else:
        for name, (value, unit) in metrics.items():
            print("  %-14s %12.6g %s" % (name, value, unit))


def main(argv, work_root: str) -> int:
    parser = argparse.ArgumentParser(prog="bench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    work_dir = os.path.join(work_root, args.workload)
    session = Session()
    cases = session.attempt(prepare, args.workload, args.seed, work_dir)
    metrics, gates = {}, ["ledger", "digest", "audit"]
    if cases is not None:
        print("workload %s, seed %d, %g s" % (args.workload, args.seed, args.seconds))
        if args.trace:
            metrics = measure_traced(cases, args.seconds, session, work_dir)
            gates.append("exact counts and self times")
        else:
            metrics = measure(cases, args.seconds, session)
        if any(c.drains for c in cases):
            gates.append("drain")
        _report(metrics, bool(args.trace))
    correct = session.failed == 0 and bool(metrics)
    print("gates: %s; %d of %d runs failed"
          % (", ".join(gates), session.failed, session.attempted))
    print(json.dumps({
        "correct": correct,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0
