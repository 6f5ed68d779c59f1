"""Benchmark entry point.

    python3 bench/run.py --workload corridors --seed 1 --seconds 15 --trace 0

Runs from a checkout of the repository and simulates with the package in its
`src/` directory; it stops with a non-zero exit code when that is missing.
The last line of standard output is a JSON object with the gate verdict
(`correct`), the runs attempted and failed, and the metrics: the end-to-end
ones with `--trace 0`, the per-layer ones with `--trace 1`.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def main() -> int:
    package = os.path.join(SRC, "hybridtraffic")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        print("error: no hybridtraffic package under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import hybridtraffic

    if os.path.dirname(os.path.abspath(hybridtraffic.__file__)) != package:
        print("error: hybridtraffic imported from %s, not %s"
              % (hybridtraffic.__file__, package), file=sys.stderr)
        return 2
    import harness

    return harness.main(sys.argv[1:], os.path.join(ROOT, ".bench_work"))


if __name__ == "__main__":
    sys.exit(main())
