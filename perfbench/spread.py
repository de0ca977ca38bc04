#!/usr/bin/env python3
"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload NAME [--seeds 1-10] [--trace 0] [--log FILE]

For every metric: the median over the runs and the distance between the
first and third quartile (statistics.quantiles(values, n=4)) as a share of
the median, next to the bound BENCHMARK.json gives it.  With --log, every
run's whole output is appended to FILE.  Exits 1 when a run fails or
reports correct=false.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--log")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    ok = True
    for seed in seeds_of(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", args.trace]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        if args.log:
            with open(args.log, "a") as log:
                log.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print("seed %d: exit %d\n%s" % (seed, proc.returncode, proc.stderr[-2000:]))
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"] and result["failed"] == 0
        print("seed %d: correct=%s attempted=%d failed=%d %s" % (
            seed, result["correct"], result["attempted"], result["failed"],
            " ".join("%s=%.4g" % (k, v["value"]) for k, v in result["metrics"].items())),
            flush=True)
        for k, v in result["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    print("%-36s %12s %9s %7s" % ("metric", "median", "spread", "bound"))
    for k, vs in values.items():
        med = statistics.median(vs)
        if len(vs) >= 2 and med:
            q = statistics.quantiles(vs, n=4)
            spread = "%.3f" % ((q[2] - q[0]) / med)
        else:
            spread = "-"
        bound = bounds.get(k)
        print("%-36s %12.6g %9s %7s" % (k, med, spread, "-" if bound is None else bound))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
