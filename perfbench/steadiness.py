#!/usr/bin/env python3
"""Steadiness check for the repository benchmark.

Runs one or more workloads N times, each with another seed, and prints for
every end-to-end metric its median, quartiles, interquartile spread and
min-max spread as shares of the median, against the metric's bound in
BENCHMARK.json. A metric whose interquartile spread exceeds its bound is
flagged (setup_s is reported but not flagged: only its median is gated).
With --sets 2 the N runs are made twice and each metric's second median is
also compared with the first.

    python3 perfbench/steadiness.py --workload update_heavy --runs 10
    python3 perfbench/steadiness.py --workload all --runs 10 --sets 2 --out runs.json

Run from the repository root. Exit status 1 when any metric is flagged or
any run fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.DEVNULL, text=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        return None
    res = json.loads(lines[-1])
    # run.py's "[context] <name> <value> <unit>" lines: raw figures, ungated.
    res["context"] = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 4 and parts[0] == "[context]":
            res["context"][parts[1]] = {"value": float(parts[2]),
                                        "unit": parts[3]}
    return res if res.get("correct") else None


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "iqr": (q3 - q1) / med if med else float("inf"),
            "range": (max(values) - min(values)) / med if med else float("inf")}


def worse_by(first, second, better):
    """Share by which `second` is worse than `first` (0 when not worse)."""
    if first == 0:
        return 0.0
    d = (second - first) / first
    return max(0.0, d if better == "lower" else -d)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    help="workload name, or 'all' (default)")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, choices=(1, 2), default=1)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="write every run's result here (JSON)")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload != "all":
        workloads = [args.workload]
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]

    flagged = 0
    log = {}
    for wl in workloads:
        sets = []
        for s in range(args.sets):
            results = []
            for i in range(args.runs):
                seed = args.seed_base + s * args.runs + i
                res = run_once(wl, seed, seconds, args.trace)
                if res is None:
                    print(f"{wl}: run with seed {seed} FAILED")
                    flagged += 1
                    continue
                results.append(res)
                print(f"{wl}: seed {seed} done", file=sys.stderr)
            sets.append(results)
        log[wl] = sets
        print(f"\n== {wl}: {args.runs} runs x {args.sets} set(s), "
              f"{seconds:g} s each")
        print(f"  {'metric':<28} {'median':>11} {'q1':>11} {'q3':>11} "
              f"{'iqr%':>7} {'range%':>7} {'bound%':>7}  verdict")
        for m in metrics:
            name, bound = m["name"], m.get("bound")
            stats = []
            for results in sets:
                vals = [r["metrics"][name]["value"] for r in results
                        if name in r["metrics"]]
                stats.append(spread(vals) if len(vals) >= 2 else None)
            if any(st is None for st in stats):
                print(f"  {name:<28} too few runs")
                flagged += 1
                continue
            st = stats[0]
            verdict = "ok"
            if bound is not None:
                if name != "setup_s" and any(x["iqr"] > bound for x in stats):
                    verdict = "FLAG: spread over bound"
                elif name != "setup_s" and any(x["iqr"] > bound / 3 for x in stats):
                    verdict = "warn: spread over bound/3"
                if len(stats) == 2:
                    drift = worse_by(stats[0]["median"], stats[1]["median"],
                                     m["better"])
                    if drift > bound:
                        verdict = f"FLAG: 2nd median worse by {drift:.1%}"
            if verdict.startswith("FLAG"):
                flagged += 1
            b = f"{100 * bound:7.1f}" if bound is not None else "      -"
            print(f"  {name:<28} {st['median']:>11.5g} {st['q1']:>11.5g} "
                  f"{st['q3']:>11.5g} {100 * st['iqr']:7.2f} "
                  f"{100 * st['range']:7.2f} {b}  {verdict}")
            for extra in stats[1:]:
                print(f"  {'  (set 2)':<28} {extra['median']:>11.5g} "
                      f"{extra['q1']:>11.5g} {extra['q3']:>11.5g} "
                      f"{100 * extra['iqr']:7.2f} {100 * extra['range']:7.2f}")
        print("  context (never gated):")
        for name in (sets[0][0]["context"] if sets and sets[0] else {}):
            vals = [r["context"][name]["value"] for r in sets[0]
                    if name in r["context"]]
            if len(vals) >= 2:
                st = spread(vals)
                print(f"  {name:<28} {st['median']:>11.5g} {st['q1']:>11.5g} "
                      f"{st['q3']:>11.5g} {100 * st['iqr']:7.2f} "
                      f"{100 * st['range']:7.2f}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(log, f, indent=1)
    print(f"\n{flagged} flagged")
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
