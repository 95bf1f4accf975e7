#!/usr/bin/env python3
"""Steadiness check behind the bounds in BENCHMARK.json.

Runs every workload in sets of runs separated in time, each run with its
own seed, and prints for each end-to-end metric each set's median and
quartiles, the spread (quartile distance over median) and whether the
sets agree within the metric's bound: every spread within the bound, and
no later median worse than the first by more than the bound.  Also
checks that the share of failed operations is the same in every set.  Run from the root of a source checkout:

    python3 perfbench/steady.py --runs 10 --sets 2 --gap 600

Raw results go to perfbench/_out/steady-<time>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit("run failed: %s seed %d" % (workload, seed))
    return json.loads(lines[-1])


def worse(metric, first, later):
    """How much worse `later` is than `first`, as a share of `first`."""
    if metric["better"] == "lower":
        return (later - first) / first
    return (first - later) / first


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per workload per set")
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--gap", type=float, default=600, help="seconds between sets")
    ap.add_argument("--seed", type=int, default=1, help="first seed")
    a = ap.parse_args()

    spec = json.load(open("BENCHMARK.json"))
    names = [w["name"] for w in spec["workloads"]]
    results = {w: [] for w in names}
    seed = a.seed
    os.makedirs("perfbench/_out", exist_ok=True)
    path = "perfbench/_out/steady-%d.json" % int(time.time())
    for s in range(a.sets):
        if s > 0:
            time.sleep(a.gap)
        for w in names:
            runs = []
            for _ in range(a.runs):
                runs.append(run_once(w, seed, spec["run_seconds"]))
                seed += 1
            results[w].append(runs)
            print("set %d %s done" % (s + 1, w), file=sys.stderr, flush=True)
            with open(path, "w") as f:
                json.dump(results, f)

    agree = True
    for w in names:
        print("== %s" % w)
        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                  for runs in results[w]]
        if not all(r["correct"] for runs in results[w] for r in runs):
            print("  a run reported correct = false")
            agree = False
        if len(set(shares)) > 1:
            print("  failed share differs between sets: %s" % shares)
            agree = False
        for m in spec["end_to_end"]:
            meds = []
            row = "  %-13s" % m["name"]
            ok = True
            for runs in results[w]:
                v = [r["metrics"][m["name"]]["value"] for r in runs]
                q1, med, q3 = statistics.quantiles(v, n=4)
                spread = (q3 - q1) / med
                meds.append(med)
                row += "  med %11.4g [%.4g, %.4g] spread %5.1f%%" % (med, q1, q3, 100 * spread)
                if spread > m["bound"]:
                    ok = False
            drift = max(worse(m, meds[0], later) for later in meds[1:]) if len(meds) > 1 else 0.0
            ok = ok and drift <= m["bound"]
            agree = agree and ok
            print(row + "  worse %5.1f%%  bound %d%%  %s"
                  % (100 * drift, round(100 * m["bound"]), "agree" if ok else "DISAGREE"))
    print("raw results: %s" % path)
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
