#!/usr/bin/env python3
"""Runs the staggered-striping end-to-end benchmark; run.sh builds first.

One workload (the form BENCHMARK.json's command takes):

  run.py --binary B --workload W --seed N --seconds S --trace 0|1

runs the --check gate, then repetitions of W, each in a fresh process,
for at least S seconds: untraced ones, and with --trace 1 traced ones in
alternation.  The last stdout line is a JSON object with correct /
attempted / failed / metrics: the end-to-end metrics for --trace 0, the
per-layer metrics for --trace 1.

Every workload (no --workload):

  run.py --binary B [--seed N] [--out F]
  run.py --binary B --smoke

runs the gate for all workloads, then untraced and traced repetitions
round-robin across them until each has SUITE_REPS untraced repetitions
and SUITE_SECONDS of untraced runs.  It prints `workload/metric value unit`
for every metric and writes a results JSON for compare.py.  --smoke is
the gate and one untraced repetition of each at shortened horizons, and
reports the end-to-end metrics only.

Only one process runs at a time, pinned with the runner to one CPU;
the simulator is single-threaded.

Host noise on shared machines is one-sided (contention only adds time)
and mostly independent between repetitions, so run_s is the minimum
over repetitions: on a 4-vCPU VM the minimum of 3 to 10 repetitions
spread half as much between runs as their median.  setup_s and
peak_rss_mb are medians.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
# Host metrics and how repetitions combine into one value; the other
# end-to-end metrics are simulated outcomes, identical in every one.
HOST_METRICS = {"setup_s": statistics.median, "run_s": min,
                "peak_rss_mb": statistics.median}
# Repetitions per run even when one outlasts --seconds.
MIN_REPS = 3
MIN_TRACED_REPS = 2
# Untraced repetitions and seconds per workload when running them all.
SUITE_REPS = 5
SUITE_SECONDS = 15.0
# Per-process limit, well inside the benchmark's 180 s budget per run.
PROCESS_TIMEOUT_S = 150


def invoke(binary, workload, seed, *flags):
    """Runs stagger_e2e once; returns (parsed JSON or None, problem text)."""
    cmd = [binary, f"--workload={workload}", f"--seed={seed}", *flags]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"{' '.join(cmd)}: timed out"
    lines = proc.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None, f"{' '.join(cmd)}: exit {proc.returncode}: {proc.stderr.strip()}"
    if proc.returncode != 0 or not out.get("ok"):
        return out, f"{' '.join(cmd)}: {'; '.join(out.get('errors', [])) or 'failed'}"
    return out, None


class WorkloadRun:
    """Check, repetitions and traced repetitions of one workload."""

    def __init__(self, binary, workload, seed, smoke):
        self.binary = binary
        self.workload = workload
        self.seed = seed
        self.flags = ["--smoke"] if smoke else []
        self.reps = []
        self.traced = []
        self.problems = []
        self.attempted = 0
        self.failed = 0
        self.timed_s = 0.0

    def check(self):
        _, problem = invoke(self.binary, self.workload, self.seed, "--check")
        if problem:
            self.problems.append(problem)

    def _run(self, *flags):
        self.attempted += 1
        out, problem = invoke(self.binary, self.workload, self.seed,
                              *self.flags, *flags)
        if problem is None and self.reps and out["model"] != self.reps[0]["model"]:
            problem = "simulated outcomes differ between repetitions"
        if problem:
            self.failed += 1
            self.problems.append(problem)
            return None
        return out

    def rep(self):
        start = time.monotonic()
        out = self._run()
        self.timed_s += time.monotonic() - start
        if out is not None:
            self.reps.append(out)

    def trace(self):
        """One traced repetition; its Chrome trace overwrites the last."""
        path = os.path.join(os.path.dirname(os.path.abspath(self.binary)),
                            f"trace-{self.workload}.json")
        out = self._run(f"--trace-out={path}")
        if out is None:
            return
        if out["trace"]["min_self_ns"] < 0:
            self.failed += 1
            self.problems.append("negative span self time")
            return
        self.traced.append(out)

    def measure(self, seconds, traced):
        """Repetitions for `seconds`, traced ones alternating if asked;
        stops at the first problem."""
        start = time.monotonic()
        min_reps = MIN_TRACED_REPS if traced else MIN_REPS
        while not self.problems and (
                len(self.reps) < min_reps
                or (traced and len(self.traced) < MIN_TRACED_REPS)
                or time.monotonic() - start < seconds):
            self.rep()
            if traced:
                self.trace()

    @property
    def correct(self):
        return not self.problems and bool(self.reps)

    def host(self, key, combine=statistics.median):
        return combine(r["host"][key] for r in self.reps)

    def end_to_end(self):
        model = self.reps[0]["model"]
        return {m["name"]: self.host(m["name"], HOST_METRICS[m["name"]])
                if m["name"] in HOST_METRICS else model[m["name"]]
                for m in SPEC["end_to_end"]}

    def per_layer(self):
        """Span times come from the fastest traced repetition."""
        model = self.reps[0]["model"]
        fastest = min(self.traced, key=lambda r: r["host"]["run_s"])
        trace = fastest["trace"]
        values = {}
        for m in SPEC["per_layer"]:
            name = m["name"]
            if name == "trace.overhead_frac":
                # Against as many untraced repetitions, run alongside.
                paired = self.reps[:len(self.traced)]
                values[name] = (fastest["host"]["run_s"]
                                / min(r["host"]["run_s"] for r in paired) - 1.0)
            elif name.startswith("setup."):
                values[name] = self.host(name)
            elif name in model:
                values[name] = model[name]
            else:
                values[name] = trace[name]
        return values


def with_units(values):
    return {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}


def run_one(args):
    run = WorkloadRun(args.binary, args.workload, args.seed, smoke=False)
    run.check()
    run.measure(args.seconds, traced=bool(args.trace))
    metrics = {}
    if run.correct and (run.traced or not args.trace):
        metrics = with_units(run.per_layer() if args.trace else run.end_to_end())
    for problem in run.problems:
        print(problem, file=sys.stderr)
    correct = bool(metrics)
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args):
    runs = [WorkloadRun(args.binary, w, args.seed, args.smoke) for w in WORKLOADS]
    reps, min_seconds = (1, 0.0) if args.smoke else (SUITE_REPS, SUITE_SECONDS)
    for run in runs:
        run.check()
    pending = list(runs)
    while pending:
        for run in pending:
            run.rep()
            if not args.smoke and len(run.traced) < MIN_TRACED_REPS:
                run.trace()
        pending = [r for r in pending if not r.problems
                   and (len(r.reps) < reps or r.timed_s < min_seconds)]

    results = {"schema": "stagger-e2e-results-v1", "seed": args.seed,
               "smoke": args.smoke, "workloads": {}}
    for run in runs:
        entry = {"correct": run.correct and (args.smoke or bool(run.traced)),
                 "problems": run.problems}
        if entry["correct"]:
            metrics = run.end_to_end()
            if not args.smoke:
                metrics.update(run.per_layer())
            for name, value in metrics.items():
                print(f"{run.workload}/{name} {value:.6g} {UNITS[name]}")
            entry["metrics"] = metrics
            entry["model"] = run.reps[0]["model"]
            entry["timed"] = {k: [r["host"][k] for r in run.reps]
                              for k in run.reps[0]["host"]}
            entry["trace"] = [r["trace"] for r in run.traced]
        else:
            for problem in run.problems:
                print(f"{run.workload}: {problem}")
        results["workloads"][run.workload] = entry
    out = args.out or os.path.join(os.path.dirname(os.path.abspath(args.binary)),
                                   "results.json")
    with open(out, "w") as f:
        json.dump(results, f, indent=1, sort_keys=True)
    print(f"results: {out}")
    return 0 if all(e["correct"] for e in results["workloads"].values()) else 1


def pin_to_one_cpu():
    """Runs every repetition on one CPU.  Unpinned, a fresh process's
    set-up of about 3.5 ms took either that or 5.6 ms, depending on where
    it landed; pinned, 3.3-3.6 ms."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--binary", required=True)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=20240101)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    pin_to_one_cpu()
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
