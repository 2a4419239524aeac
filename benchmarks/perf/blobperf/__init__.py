"""The repo benchmark: six workloads, end-to-end and per-layer metrics.

See ``benchmarks/perf/README.md``.  Nothing here is imported by the program
under test; the benchmark drives it through its public API and measures it
from outside.
"""
