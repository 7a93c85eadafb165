#!/usr/bin/env python3
"""Steadiness check: rerun one workload and compare each metric to its bound.

    python3 perfbench/steady.py --workload <name> [--seeds 1,2,3,4,5]
                                [--repeat 1] [--seconds S] [--trace 0|1]

Runs perfbench/run.py once per (seed, repeat) and prints, for every metric,
the median, the first and third quartiles (statistics.quantiles, n=4), the
spread (Q3 - Q1) / median, and the metric's bound from BENCHMARK.json. A
spread above a third of the bound is flagged. Counts and qor.* values must
repeat exactly for one seed (use --repeat 2 to check that); any that do not
are flagged too. Exits 1 when anything was flagged or a run failed.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(root, workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    r = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                       stderr=subprocess.DEVNULL, text=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        raise SystemExit(f"run failed (exit {r.returncode}): {' '.join(cmd)}")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1,2,3,4,5")
    ap.add_argument("--repeat", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]
    seeds = [int(s) for s in args.seeds.split(",") if s]

    runs = []  # (seed, result)
    for seed in seeds:
        for _ in range(args.repeat):
            res = run_once(root, args.workload, seed, seconds, args.trace)
            runs.append((seed, res))
            vals = " ".join(f"{k}={v['value']:.4g}"
                            for k, v in res["metrics"].items())
            print(f"seed {seed}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']} "
                  f"{vals}", flush=True)

    flagged = [f"seed {s}: checks failed" for s, r in runs if not r["correct"]]
    shares = {r["failed"] / r["attempted"] for _, r in runs}
    if len(shares) > 1:
        flagged.append(f"failed share differs between runs: {sorted(shares)}")

    names = list(runs[0][1]["metrics"])
    print(f"\n{args.workload}: {len(runs)} runs of {seconds}s")
    print(f"{'metric':28} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8} {'bound':>6}")
    for name in names:
        vals = [r["metrics"][name]["value"] for _, r in runs]
        unit = runs[0][1]["metrics"][name]["unit"]
        med = statistics.median(vals)
        q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                     else (vals[0], 0, vals[0]))
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        mark = ""
        if bound is not None and name != "setup_s" and spread > bound / 3:
            mark = "  <-- spread above bound/3"
            flagged.append(f"{name}: spread {spread:.4f} > {bound}/3")
        exact = unit == "count" or name.startswith("qor.")
        if exact:
            for seed in seeds:
                same = {r["metrics"][name]["value"] for s, r in runs
                        if s == seed}
                if len(same) > 1:
                    mark = "  <-- does not repeat exactly"
                    flagged.append(f"{name}: seed {seed} gave {sorted(same)}")
        bound_s = f"{bound:6.3f}" if bound is not None else "     -"
        print(f"{name:28} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} "
              f"{bound_s} {unit}{mark}")

    for f in flagged:
        print(f"FLAG: {f}")
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
