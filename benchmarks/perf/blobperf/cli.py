"""Command line of the benchmark: one run, a suite of runs, or a comparison."""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import subprocess
import sys
import tempfile
from typing import Any, Dict, List

from . import catalogue, compare
from .harness import work_dir


def _table(record: Dict[str, Any]) -> str:
    """Every metric of one run by name, with unit, direction and bound."""
    known = catalogue.by_name()
    lines = [f"{'metric':<44} {'value':>14} {'unit':<6} {'better':<7} bound"]
    for group in ("end_to_end", "specific", "per_layer"):
        for name, value in record[group].items():
            metric = known[name]
            bound = "-" if metric.bound is None else f"{metric.bound:.2f}"
            lines.append(f"{name:<44} {value:>14.4f} {metric.unit:<6} {metric.better:<7} {bound}")
    for layer, value in record["breakdown"].items():
        lines.append(f"  self time {layer:<33} {value:>14.4f} ms/op")
    return "\n".join(lines)


def driver_line(record: Dict[str, Any]) -> str:
    """The contract's last line: every end-to-end metric, or every per-layer one."""
    if record["trace"]:
        measured = {**record["specific"], **record["per_layer"]}
        wanted = catalogue.SPECIFIC + catalogue.PER_LAYER
    else:
        measured = record["end_to_end"]
        wanted = catalogue.END_TO_END
    metrics = {
        # A metric the workload does not have (no reads, no network) reads 0.
        m.name: {"value": float(measured.get(m.name, 0.0)), "unit": m.unit}
        for m in wanted
    }
    return json.dumps(
        {
            "correct": bool(record["correct"]),
            "attempted": int(record["attempted"]),
            "failed": int(record["failed"]),
            "metrics": metrics,
        }
    )


def run_one(args: argparse.Namespace, root: str) -> int:
    from .workloads import RunArgs, run_workload

    record = dataclasses.asdict(
        run_workload(
            RunArgs(
                workload=args.workload,
                seed=args.seed,
                seconds=args.seconds,
                trace=bool(args.trace),
                scale=args.scale,
                root=root,
            )
        )
    )
    if args.record:
        with open(args.record, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
    print(f"workload {record['workload']} seed {record['seed']} "
          f"({record['info'].get('rounds')} rounds of {record['info'].get('ops_per_round')} ops, "
          f"loopback TCP for net_*; steal {record['info'].get('host.steal_ratio', 0.0):.3f})")
    print(_table(record))
    for error in record["errors"]:
        print(f"ORACLE: {error}")
    print(driver_line(record))
    return 0 if record["correct"] else 1


def run_suite(args: argparse.Namespace, root: str) -> int:
    """Every workload (or one), ``--repeat`` times, each run in a fresh process."""
    names = catalogue.WORKLOAD_NAMES if args.workload == "all" else [args.workload]
    script = os.path.join(root, "benchmarks", "perf", "run.py")
    runs: List[Dict[str, Any]] = []
    status = 0
    for repeat in range(args.repeat):
        seed = args.seed + repeat if args.vary_seed else args.seed
        for name in names:
            path = os.path.join(work_dir(root), f"record-{os.getpid()}.json")
            command = [
                sys.executable, script,
                "--workload", name, "--seed", str(seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--scale", args.scale, "--record", path,
            ]
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            if done.returncode != 0 or not os.path.exists(path):
                status = 1
                print(done.stdout, end="")
                print(f"{name} seed {seed}: FAILED (exit {done.returncode})")
                continue
            with open(path, "r", encoding="utf-8") as fh:
                record = json.load(fh)
            os.remove(path)
            runs.append(record)
            e2e = record["end_to_end"]
            print(
                f"[{repeat + 1}/{args.repeat}] {name:<20} seed {seed} "
                + " ".join(f"{k}={v:.4g}" for k, v in e2e.items())
            )
    summary = compare.summarise(runs)
    print()
    print(f"{'workload':<20} {'metric':<22} {'median':>12} {'spread':>8} {'bound':>6}  n")
    known = catalogue.by_name()
    for name in names:
        for metric, stats in summary.get(name, {}).items():
            bound = known[metric].bound
            if bound is None:
                continue
            print(
                f"{name:<20} {metric:<22} {stats['median']:>12.4f} "
                f"{100 * stats['spread']:>7.1f}% {bound:>6.2f}  {stats['n']}"
            )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"schema": compare.SCHEMA, "runs": runs, "summary": summary}, fh, indent=1)
            fh.write("\n")
    return status


def main(argv: List[str], root: str) -> int:
    if argv and argv[0] == "compare":
        if len(argv) != 3:
            print("usage: run.py compare A.json B.json", file=sys.stderr)
            return 2
        return compare.compare(argv[1], argv[2])

    parser = argparse.ArgumentParser(prog="run.py", description=__doc__)
    parser.add_argument("--workload", required=True, choices=catalogue.WORKLOAD_NAMES + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(catalogue.RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--repeat", type=int, default=0, help="run a set of N runs and summarise it")
    parser.add_argument("--vary-seed", action="store_true", help="with --repeat: seed, seed+1, ...")
    parser.add_argument("--out", help="with --repeat: write runs and summary here")
    parser.add_argument("--record", help="write this run's full record here (suite plumbing)")
    args = parser.parse_args(argv)

    # Nothing may land outside the checkout: journals and spools made through
    # tempfile go to the git-ignored work directory.
    tempfile.tempdir = work_dir(root)
    if args.workload == "all" or args.repeat:
        args.repeat = max(1, args.repeat)
        return run_suite(args, root)
    return run_one(args, root)
