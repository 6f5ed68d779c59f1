"""Command line interface: run or validate a scenario file."""

from __future__ import annotations

import argparse
import dataclasses
import importlib.resources
import os
import sys

from .engine import Engine
from .outputs import OutputWriter
from .scenario import load_scenario, validate_scenario

AUDIT_SHOWN = 10  # audit failures printed by `run --audit`


def _resolve(path: str) -> str:
    """Bare names fall back to the bundled scenario directory."""
    if os.path.exists(path):
        return path
    name = path if path.endswith(".yaml") else path + ".yaml"
    ref = importlib.resources.files("hybridtraffic") / "scenarios" / name
    if ref.is_file():
        return str(ref)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hybridtraffic",
        description="Hybrid macroscopic/mesoscopic/microscopic traffic simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a scenario and write CSV outputs")
    p_run.add_argument("scenario", help="scenario file (or bundled scenario name)")
    p_run.add_argument("--duration", type=float, help="override run duration, s")
    p_run.add_argument("--seed", type=int, help="override the random seed")
    p_run.add_argument("--out-dir", default="out", help="output directory")
    p_run.add_argument("--out-dt", dest="output_dt", type=float,
                       help="override output period, s")
    p_run.add_argument("--audit", action="store_true",
                       help="check vehicle conservation on every link, CTM "
                            "occupancies, Newell lanes and boundary residues "
                            "after each step; exit 1 if a check fails")

    p_val = sub.add_parser("validate", help="check a scenario file and report problems")
    p_val.add_argument("scenario", help="scenario file (or bundled scenario name)")

    args = parser.parse_args(argv)

    try:
        sc = load_scenario(_resolve(args.scenario))
        # run overrides pass the same checks as the file's values
        sc.run = dataclasses.replace(sc.run, **{
            k: getattr(args, k) for k in ("duration", "seed", "output_dt")
            if getattr(args, k, None) is not None
        })
    except Exception as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2

    if args.command == "validate":
        diags = validate_scenario(sc)
        if diags:
            for d in diags:
                print(d)
            print("%d problem(s) found" % len(diags))
            return 1
        print("scenario %r is valid" % sc.name)
        return 0

    try:
        engine = Engine(sc, audit=args.audit)
        with OutputWriter(args.out_dir) as writer:
            engine.run(observer=lambda e, t: writer.write(e, t))
    except Exception as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    # the fluid a boundary has not yet condensed into a whole vehicle is
    # in the network too, but in no model
    stats = engine.stats
    print(
        "simulated %r for %g s (junction steps: %d in closed form, %d in the "
        "node-model batch, %d node-model iterations, %d deliveries, %d of them "
        "as array steps, %d supply re-reads): %g veh injected, %g exited, %g in "
        "the models, %g stranded in boundary residues"
        % (
            sc.name,
            sc.run.duration,
            stats.junctions_1x1,
            stats.junctions_batched,
            stats.nodemodel_iterations,
            stats.deliveries,
            stats.array_deliveries,
            stats.supply_rereads,
            engine.total_injected(),
            engine.total_exited(),
            engine.total_in_models(),
            engine.total_in_residues(),
        )
    )
    failures = engine.audit_failures
    if failures:
        print("error: audit found %d failure(s), the first:"
              % len(failures), file=sys.stderr)
        for f in failures[:AUDIT_SHOWN]:
            print("  " + f, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
