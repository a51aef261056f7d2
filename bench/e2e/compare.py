#!/usr/bin/env python3
"""Compares two results JSONs written by bench/e2e/run.py.

  python3 bench/e2e/compare.py OLD.json NEW.json

For every workload and end-to-end metric it prints the median and
quartiles of each side's repetitions and the change in the value the
benchmark reports (run_s is the minimum over repetitions, the other
host metrics the median).  A host metric is flagged when that value got
worse by more than the metric's bound in BENCHMARK.json.  A simulated
outcome, end-to-end or per-layer, is flagged when it differs at all:
with the same seed, a change that only speeds the simulator up leaves
every one of them bit-identical.
Exits with status 1 when anything is flagged.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def describe(values):
    q1, med, q3 = quartiles(values)
    return f"{med:12.6g} [{q1:.6g}, {q3:.6g}]"


def compare_workload(spec, name, old, new):
    """Prints one workload's rows; returns the number of flagged rows."""
    if not (old["correct"] and new["correct"]):
        print(f"{name:13s} not comparable: a side failed its checks  FLAG")
        return 1
    flags = 0
    for metric in spec["end_to_end"]:
        key = metric["name"]
        if key in old["timed"]:
            before, after = old["metrics"][key], new["metrics"][key]
            change = (after - before) / before
            worse = change if metric["better"] == "lower" else -change
            flagged = worse > metric["bound"]
            row = (f"{describe(old['timed'][key])}  {describe(new['timed'][key])}"
                   f"  {change:+8.2%} (bound {metric['bound']:.0%})")
        else:
            before, after = old["model"][key], new["model"][key]
            flagged = before != after
            row = f"{before:12.6g} {'':20s}  {after:12.6g} {'':20s}  exact"
        flags += flagged
        print(f"{name:13s} {key:20s} {row}{'  FLAG' if flagged else ''}")
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    for key in sorted((set(old["model"]) | set(new["model"])) - end_to_end):
        if old["model"].get(key) != new["model"].get(key):
            flags += 1
            print(f"{name:13s} {key:20s} {old['model'].get(key)!s:>12} -> "
                  f"{new['model'].get(key)!s}  exact  FLAG")
    return flags


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(argv[1]) as f:
        old = json.load(f)["workloads"]
    with open(argv[2]) as f:
        new = json.load(f)["workloads"]
    print(f"{'workload':13s} {'metric':20s} {'old median [q1, q3]':>33s}  "
          f"{'new median [q1, q3]':>33s}  change of the reported value")
    flags = 0
    for workload in (w["name"] for w in spec["workloads"]):
        if workload not in old or workload not in new:
            print(f"{workload:13s} missing from one side  FLAG")
            flags += 1
            continue
        flags += compare_workload(spec, workload, old[workload], new[workload])
    print(f"{flags} flagged")
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
