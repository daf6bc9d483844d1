#!/usr/bin/env python3
"""Steadiness check: run every workload N times and report the spread.

Usage, from the repository root::

    python3 perfbench/steady.py --runs 10 --sets 2        # all workloads
    python3 perfbench/steady.py --runs 5 --workloads spell-serve

Runs the command, run length and workloads declared in ``BENCHMARK.json``
untraced, each run in a fresh process with its own seed (``--first-seed``
onward; every set uses the same seeds), alternating the workload order
from one run to the next so that machine drift does not always land on
the same workload.  For every set, workload and metric it prints the
median, the quartiles and the inter-quartile range as a share of the
median next to the metric's bound; with two or more sets, also how much
worse than the first set's median each later set's median is, as a share
of the first.  ``--json`` also writes every run's result.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from measure import summarize  # noqa: E402


def worse_by(first: float, later: float, better: str) -> float:
    """How much worse *later* is than *first*, as a share of *first*."""
    change = (later - first) / first
    return -change if better == "higher" else change


def main(argv: Any = None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument(
        "--workloads", default=",".join(w["name"] for w in spec["workloads"])
    )
    parser.add_argument("--json", default=None, help="write every run's result here")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    declared = {m["name"]: m for m in spec["end_to_end"]}

    results: List[Dict[str, List[Dict[str, Any]]]] = [
        {w: [] for w in workloads} for _ in range(args.sets)
    ]
    turn = 0
    for rep in range(args.runs):
        seed = args.first_seed + rep
        for n, sets in enumerate(results):
            order = workloads if turn % 2 == 0 else workloads[::-1]
            turn += 1
            for workload in order:
                cmd = spec["command"] + [
                    "--workload", workload,
                    "--seed", str(seed),
                    "--seconds", str(spec["run_seconds"]),
                    "--trace", "0",
                ]
                started = time.perf_counter()
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
                wall = time.perf_counter() - started
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    print(f"{workload} seed {seed}: exit {proc.returncode}")
                    print(proc.stderr or "\n".join(lines[-2:]))
                    return 1
                result = json.loads(lines[-1])
                result["record"] = json.loads(lines[-2])["record"] if len(lines) > 1 else None
                result["wall_s"] = wall
                sets[workload].append(result)
                print(
                    f"set {n + 1} {workload} seed {seed} ({wall:.0f} s): "
                    + ", ".join(
                        f"{name}={m['value']:.4g}" for name, m in result["metrics"].items()
                    ),
                    flush=True,
                )

    print()
    print(f"{'set':3} {'workload':14} {'metric':16} {'median':>11} {'q1':>11} "
          f"{'q3':>11} {'spread':>7} {'worse':>7} {'bound':>6}")
    for workload in workloads:
        for name, metric in declared.items():
            first = None
            for n, sets in enumerate(results):
                s = summarize([r["metrics"][name]["value"] for r in sets[workload]])
                worse = ""
                if first is None:
                    first = s["median"]
                else:
                    worse = format(worse_by(first, s["median"], metric["better"]), ".3f")
                print(
                    f"{n + 1:<3} {workload:14} {name:16} {s['median']:11.5g} "
                    f"{s['q1']:11.5g} {s['q3']:11.5g} {s['spread']:7.3f} "
                    f"{worse:>7} {metric['bound']:6.2f}"
                )
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(results, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
