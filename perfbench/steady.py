#!/usr/bin/env python3
"""Steadiness check for the serving benchmark.

    python3 perfbench/steady.py [--runs 10] [--seconds S] [--sets 2]
                                [--workloads a,b] [--first-seed 1]

Runs every workload --runs times per set, each run with its own seed, and
prints for each end-to-end metric its median and its spread: the distance
between the first and third quartiles as statistics.quantiles(n=4) gives
them, as a share of the median. With --sets 2 (the default) it runs two
sets of the same code, interleaved run by run, and also prints how far the
second set's median moved from the first's (an A/A comparison). A spread or
shift above the metric's bound in BENCHMARK.json is flagged; so is a spread
above a third of it, the margin the benchmark is tuned to. Exits 1 when any
run fails or any flag is raised. Run from the repository root.
"""

import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


def run_once(command, workload, seed, seconds):
    out = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, timeout=600)
    if out.returncode != 0:
        raise RuntimeError("%s seed %d exited %d" % (workload, seed,
                                                      out.returncode))
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError("%s seed %d: outputs failed their checks"
                           % (workload, seed))
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2, choices=(1, 2))
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--workloads", default=None,
                        help="comma-separated; default: all in BENCHMARK.json")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in bench["workloads"]])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    flagged = False
    for workload in names:
        sets = [[] for _ in range(args.sets)]
        for i in range(args.runs):
            for s in range(args.sets):
                seed = args.first_seed + i + s * args.runs
                sets[s].append(run_once(bench["command"], workload, seed,
                                        seconds))
                print("  %s run %d/%d set %d seed %d: %s" % (
                    workload, i + 1, args.runs, s + 1, seed,
                    " ".join("%s=%.6g" % kv for kv in sorted(
                        sets[s][-1].items()))), file=sys.stderr)
        print("%s (%d runs x %d s per set)" % (workload, args.runs, seconds))
        for metric in sorted(bounds):
            bound = bounds[metric]
            line = "  %-16s" % metric
            medians = []
            for values in ([r[metric] for r in runs] for runs in sets):
                median = stats.percentile(values, 0.5)
                spread = stats.iqr_share(values)
                medians.append(median)
                mark = ""
                if spread > bound:
                    mark, flagged = " OVER BOUND", True
                elif spread > bound / 3:
                    mark = " (over bound/3)"
                line += "  median %12.6g  IQR %6.2f%%%s" % (
                    median, 100 * spread, mark)
            if len(medians) == 2:
                shift = abs(medians[1] - medians[0]) / medians[0]
                line += "  A/A shift %6.2f%% (bound %g%%)" % (100 * shift,
                                                             100 * bound)
                if shift > bound:
                    line += " OVER BOUND"
                    flagged = True
            print(line, flush=True)
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
