#!/usr/bin/env python3
"""Gate a change's microbenchmarks against its base, measured on one box.

Usage:
  check_bench_regression.py --base BASE.json... --change CHANGE.json...

Every file is a google-benchmark JSON report
(bench_micro --benchmark_out=FILE --benchmark_out_format=json), one per
run; tools/perf_gate.sh produces them by alternating base and change
builds.  Per side and per benchmark the statistic is the minimum
ns/item over all iteration rows of all that side's files: on a shared
box contention only ever adds time, so the minimum is the least
contended and most reproducible sample.  Aggregate rows (mean, median,
stddev) are ignored.  ns/item is 1e9 / items_per_second when the
benchmark counts items, its CPU time per iteration otherwise.

The check fails when

  * a benchmark of the base is missing from the change, or is slower
    than base x (1 + BOUND), or
  * a report's context says invariant audits (stagger_audit) or
    assertions (stagger_assertions) were compiled in: such a build
    measures the wrong binary.  A report without those keys, from a
    base that predates them, is accepted.

Benchmarks new in the change are listed but do not fail the check.
The combined verdict (base, change and ratio per row) is written to
BENCH_scheduler.json in the working directory.
"""

import argparse
import json
import sys

BOUND = 0.25  # allowed fractional ns/item increase over the base
REPORT = "BENCH_scheduler.json"
NS_PER_UNIT = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def ns_per_item(row):
    items = row.get("items_per_second", 0)
    if items > 0:
        return 1e9 / items
    return row["cpu_time"] * NS_PER_UNIT[row.get("time_unit", "ns")]


def side_minimum(paths):
    """Per-benchmark minimum ns/item over the iteration rows of `paths`."""
    best = {}
    for path in paths:
        with open(path, "r", encoding="utf-8") as f:
            report = json.load(f)
        context = report.get("context", {})
        for key in ("stagger_audit", "stagger_assertions"):
            if context.get(key, "off") != "off":
                sys.exit(f"FAIL: {path} was measured with {key} on; "
                         "rebuild with the release preset")
        for row in report.get("benchmarks", []):
            if row.get("run_type") != "iteration" or row.get("error_occurred"):
                continue
            cost = ns_per_item(row)
            name = row["name"]
            best[name] = min(cost, best.get(name, cost))
    return best


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args()

    base, change = side_minimum(args.base), side_minimum(args.change)

    rows, failures = [], []
    for name in sorted(set(base) | set(change)):
        b, c = base.get(name), change.get(name)
        ratio = c / b if b is not None and c is not None else None
        rows.append({"name": name, "base_ns_per_item": b,
                     "change_ns_per_item": c, "ratio": ratio})
        if b is None:
            print(f"new  {name}: {c:.1f} ns/item (not in the base)")
        elif c is None:
            print(f"FAIL {name}: missing from the change")
            failures.append(f"{name}: missing from the change")
        else:
            verdict = "FAIL" if c > b * (1.0 + BOUND) else "ok"
            print(f"{verdict:4} {name}: {c:.1f} ns/item vs base {b:.1f} "
                  f"({ratio:.2f}x)")
            if verdict == "FAIL":
                failures.append(f"{name}: {c:.1f} ns/item exceeds base "
                                f"{b:.1f} +{BOUND:.0%}")

    with open(REPORT, "w", encoding="utf-8") as f:
        json.dump({"bound": BOUND, "benchmarks": rows}, f, indent=2)
        f.write("\n")

    if failures:
        print("\nPerformance regression gate failed:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        sys.exit(1)
    print("\nperf gate passed")


if __name__ == "__main__":
    main()
