#!/usr/bin/env python3
"""Entry point of the repo benchmark (see README.md beside this file).

    python3 benchmarks/perf/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/perf/run.py --workload all --repeat 5 --out results.json
    python3 benchmarks/perf/run.py compare A.json B.json
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

if __name__ == "__main__":
    # The benchmark measures the program in this checkout, from source: put
    # its package ahead of anything installed, and refuse to run without it.
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        sys.exit(f"run.py: no program to measure: {os.path.join(ROOT, 'src', 'repro')} is missing")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    from blobperf.cli import main

    sys.exit(main(sys.argv[1:], root=ROOT))
