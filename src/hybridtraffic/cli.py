"""Command line interface: run or validate a scenario file."""

from __future__ import annotations

import argparse
import importlib.resources
import os
import sys

from .engine import Engine
from .outputs import OutputWriter
from .scenario import load_scenario, validate_scenario


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
    p_run.add_argument("--out-dt", type=float, help="override output period, s")

    p_val = sub.add_parser("validate", help="check a scenario file and report problems")
    p_val.add_argument("scenario", help="scenario file (or bundled scenario name)")

    args = parser.parse_args(argv)

    try:
        sc = load_scenario(_resolve(args.scenario))
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

    if args.duration is not None:
        sc.run.duration = args.duration
    if args.seed is not None:
        sc.run.seed = args.seed
    if args.out_dt is not None:
        sc.run.output_dt = args.out_dt

    try:
        engine = Engine(sc)
        with OutputWriter(args.out_dir) as writer:
            engine.run(observer=lambda e, t: writer.write(e, t))
    except Exception as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    print(
        "simulated %r for %g s: %g veh injected, %g exited, %g in network"
        % (
            sc.name,
            sc.run.duration,
            engine.total_injected(),
            engine.total_exited(),
            engine.total_in_network(),
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
