#!/usr/bin/env python3
"""Check that the benchmark is steady across seeds.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10] [--seconds N]
                                [--json out.json]

Runs `perfbench/run.py` once per seed and workload (untraced) and reports,
for each end-to-end metric, the spread of the runs: the distance between
the first and third quartile (`statistics.quantiles(values, n=4)`) as a
share of the median. Different seeds give different inputs, so a metric
whose spread stays inside its bound in BENCHMARK.json is one a second seed
cannot move past that bound. Exits 1 if any run fails its reference checks
or any spread exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    p = argparse.ArgumentParser()
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--json", help="also write every run's metrics here")
    a = p.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    record = {}
    for w in a.workloads.split(","):
        values = {name: [] for name in bounds}
        walls = []
        steal = []
        for seed in seeds(a.seeds):
            t = time.time()
            run = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w, "--seed", str(seed),
                 "--seconds", str(a.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True,
            )
            walls.append(time.time() - t)
            if run.returncode != 0:
                print(f"{w} seed {seed}: exit {run.returncode}\n{run.stderr[-2000:]}")
                ok = False
                continue
            lines = run.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            envelope = json.loads(lines[-2])["envelope"]
            steal.append((round(envelope["vm_steal_frac"], 3), int(envelope["steal_fallbacks"])))
            if not result["correct"]:
                print(f"{w} seed {seed}: reference check failed: {lines[-2]}")
                ok = False
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        record[w] = dict(values, steal_and_fallbacks=steal)
        print(f"{w}: {len(walls)} runs, wall {min(walls):.1f}-{max(walls):.1f} s")
        print(f"  hypervisor steal share and steal fallbacks per run: {steal}")
        for name, bound in bounds.items():
            v = values[name]
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            mark = "ok" if spread <= bound / 3 else ("WIDE" if spread <= bound else "OVER")
            if spread > bound:
                ok = False
            print(f"  {name:20s} median {med:12.5g}  spread {spread:6.3f}  bound {bound:4.2f}  {mark}")
    if a.json:
        with open(a.json, "w") as f:
            json.dump(record, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
