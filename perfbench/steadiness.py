#!/usr/bin/env python3
"""Steadiness check: runs workloads repeatedly and judges their spread.

    python3 perfbench/steadiness.py [--workload NAME ...] [--runs 10]
        [--first-seed 1] [--save SET.json] [--against EARLIER.json]

Run from the root of a checkout.  For each workload (default: all in
BENCHMARK.json) the benchmark command runs --runs times, seeds
first-seed, first-seed + 1, ...  For every end-to-end metric it prints the
median, the quartiles (statistics.quantiles(values, n=4)) and the spread,
(Q3 - Q1) / median, and flags:

  SPREAD  the spread exceeds the metric's bound (setup_s is exempt, as its
          bound covers only the median-to-median comparison);
  NOISY   the spread exceeds a third of the bound (a warning: the margin a
          steady metric should keep);
  WORSE   with --against, this set's median is worse than the earlier set's
          by more than the bound, in the metric's "better" direction.

With --against, metrics whose per-seed values are identical in both sets
are reported as exact (the decision-quality metrics must be).  --save writes
the raw values so a later set can be compared against them.  Exit status is
1 when anything is flagged SPREAD or WORSE, or a run fails.
"""
import argparse
import json
import statistics
import subprocess
import sys


def load_benchmark(path="BENCHMARK.json"):
    with open(path) as f:
        return json.load(f)


def run_once(bench, workload, seed):
    command = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        raise RuntimeError(f"{workload} seed {seed}: incorrect or failed ops")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    spread = (q3 - q1) / med if med else float("inf")
    return med, q1, q3, spread


def worse_by(metric, earlier, later):
    """Share by which `later` is worse than `earlier` (negative: better)."""
    if earlier == 0:
        return 0.0 if later == earlier else float("inf")
    change = (later - earlier) / abs(earlier)
    return change if metric["better"] == "lower" else -change


def judge(bench, workload, seeds, values, earlier):
    flagged = False
    print(f"== {workload}: {len(seeds)} runs, seeds {seeds[0]}..{seeds[-1]}")
    print(f"   {'metric':<20} {'median':>14} {'Q1':>14} {'Q3':>14} "
          f"{'spread':>8} {'bound':>6}  flags")
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        series = [v[name] for v in values]
        med, q1, q3, spread = summarize(series)
        flags = []
        if name != "setup_s" and spread > bound:
            flags.append("SPREAD")
            flagged = True
        elif name != "setup_s" and spread > bound / 3:
            flags.append("NOISY")
        if earlier is not None:
            before = [v[name] for v in earlier["values"]]
            delta = worse_by(metric, statistics.median(before), med)
            flags.append(f"vs-earlier {delta:+.3f}")
            if delta > bound:
                flags.append("WORSE")
                flagged = True
            if earlier["seeds"] == seeds and before == series:
                flags.append("exact")
        print(f"   {name:<20} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
              f"{spread:>8.4f} {bound:>6.3f}  {' '.join(flags)}")
    return flagged


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--save")
    parser.add_argument("--against")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2 to have quartiles")

    bench = load_benchmark()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    earlier = {}
    if args.against:
        with open(args.against) as f:
            earlier = json.load(f)
    seeds = list(range(args.first_seed, args.first_seed + args.runs))

    saved, flagged = {}, False
    for workload in workloads:
        try:
            values = [run_once(bench, workload, s) for s in seeds]
        except RuntimeError as error:
            print(f"FAILED: {error}")
            flagged = True
            continue
        saved[workload] = {"seeds": seeds, "values": values}
        flagged |= judge(bench, workload, seeds, values, earlier.get(workload))
    if args.save:
        with open(args.save, "w") as f:
            json.dump(saved, f, indent=1)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
