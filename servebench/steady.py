#!/usr/bin/env python3
"""Steadiness proof for the serving benchmark.

Run from the repository root:

    python3 servebench/steady.py                       # every workload, seeds 1 and 2, 10 runs each
    python3 servebench/steady.py --workloads cluster --seeds 1-5 --runs 1
    python3 servebench/steady.py --seeds 1-10 --runs 1 --sets 2

Runs `servebench/run.py` repeatedly (untraced, each run as long as
BENCHMARK.json's `run_seconds`) and prints, for every
end-to-end metric of BENCHMARK.json, the median and quartiles of each
group of runs beside the metric's bound. The spread is (q3 - q1) / median
with quartiles from `statistics.quantiles(values, n=4)`; a metric is
"steady" when its spread is below a third of its bound. `setup_s` is
exempt from the spread rule but, like every metric, must not move between
sets by more than its bound. With `--sets 2` the whole plan runs twice and
the medians of the two sets are compared. It also prints the fewest and
the median requests a run attempted. The summary is also written as
JSON to $CARGO_TARGET_DIR/servebench-steady.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Workloads left out of BENCHMARK.json because they could not be made
# steady, with the reason. Empty: all four workloads are steady.
DROPPED = {}


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect run {result}")
    values = {k: v["value"] for k, v in result["metrics"].items()}
    values["attempted"] = result["attempted"]
    print(f"  {workload} seed {seed}: " + " ".join(f"{k}={v:.5g}" for k, v in values.items()),
          flush=True)
    return values


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values) if values else 0.0}


def worse_by(first, second, better):
    """Share by which `second` is worse than `first`."""
    if first == 0:
        return 0.0
    change = (second - first) / first
    return change if better == "lower" else -change


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1,2", help="e.g. 1,2 or 1-10")
    parser.add_argument("--runs", type=int, default=10, help="runs per seed")
    parser.add_argument("--sets", type=int, default=1, help="repeat the whole plan")
    args = parser.parse_args()

    for name, why in DROPPED.items():
        print(f"dropped workload {name}: {why}")
    seeds = parse_seeds(args.seeds)
    groups = [[s] for s in seeds] if args.runs > 1 else [seeds]
    summary = {"dropped": DROPPED, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        summary["workloads"][workload] = {"groups": [], "metrics": []}
        for group in groups:
            sets = []
            for _ in range(args.sets):
                runs = [run_once(workload, seed, bench["run_seconds"])
                        for seed in group for _ in range(args.runs)]
                sets.append(runs)
            label = f"seed {group[0]}" if len(group) == 1 else f"seeds {group[0]}-{group[-1]}"
            attempted = [r["attempted"] for runs in sets for r in runs]
            summary["workloads"][workload]["groups"].append({"group": label, "attempted": attempted})
            print(f"\n== {workload}, {label}: {args.sets} set(s) of {len(sets[0])} runs, "
                  f"requests per run: fewest {min(attempted)}, median {statistics.median(attempted):.0f}")
            print(f"{'metric':<16}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>8}  verdict")
            for m in bench["end_to_end"]:
                stats = [summarize([r[m["name"]] for r in runs]) for runs in sets]
                drift = max((worse_by(stats[0]["median"], s["median"], m["better"]) for s in stats[1:]),
                            default=0.0)
                spread = max(s["spread"] for s in stats)
                if m["name"] == "setup_s":
                    verdict = "exempt"
                elif spread < m["bound"] / 3:
                    verdict = "steady"
                elif spread <= m["bound"]:
                    verdict = "within bound"
                else:
                    verdict, ok = "NOISY", False
                if drift > m["bound"]:
                    verdict, ok = verdict + ", MOVED", False
                s = stats[0]
                print(f"{m['name']:<16}{s['median']:>12.5g}{s['q1']:>12.5g}{s['q3']:>12.5g}"
                      f"{spread:>9.3f}{m['bound']:>8.3f}  {verdict}"
                      + (f" (set drift {drift:+.3f})" if len(stats) > 1 else ""))
                summary["workloads"][workload]["metrics"].append(
                    {"group": label, "metric": m["name"], "sets": stats, "drift": drift,
                     "bound": m["bound"], "verdict": verdict})
    target = os.path.abspath(os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    os.makedirs(target, exist_ok=True)
    with open(os.path.join(target, "servebench-steady.json"), "w") as f:
        json.dump(summary, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
