"""Steadiness check: run two independent sets of the benchmark and compare.

    python3 bench/steady.py [--workload NAME ...] [--out summary.json]
                            [--compare old.json]

Run from the root of a checkout that holds BENCHMARK.json.  For every
workload it runs BENCHMARK.json's command for ``run_seconds`` once per seed
in each of two sets (set A uses seeds 1..10, set B seeds 11..20; the sets
alternate in time).  Per end-to-end metric and workload it reports the median
and the spread of each set (first-to-third quartile distance over the median,
as ``statistics.quantiles(values, n=4)`` gives them).  A metric is steady
when both spreads are within its bound and the two medians differ by no more
than the bound.  It then makes one traced run on two seeds per workload and
flags any count that differs between them.

--compare old.json checks this run's set-A medians against a summary written
earlier with --out, with the same bounds: a change beyond the bound is
"worse" or "better", and "unresolved" when either summary's spread is above
the bound.  Use it to tell a change from noise.
Exits 1 if any run failed, any check did not hold or a compared metric is
worse.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys


SEEDS = 10  # per set


def run(bench, workload, seed, trace):
    cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    result = json.loads(lines[-1])
    return result if result["correct"] and not result["failed"] else None


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def worse(new, old, better):
    """Relative change of new against old, positive when new is worse."""
    change = (new - old) / old
    return change if better == "lower" else -change


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", action="append")
    ap.add_argument("--out")
    ap.add_argument("--compare")
    args = ap.parse_args()
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    names = args.workload or [w["name"] for w in bench["workloads"]]
    ok = True
    summary = {}
    for name in names:
        sets = {"A": [], "B": []}
        for i in range(1, SEEDS + 1):
            for label, seed in (("A", i), ("B", SEEDS + i)):
                result = run(bench, name, seed, 0)
                if result is None:
                    print(f"{name} seed {seed}: run failed or incorrect")
                    ok = False
                    continue
                sets[label].append(result["metrics"])
                print(f"{name} set {label} seed {seed}: " + ", ".join(
                    f"{k}={v['value']:.4g}" for k, v in
                    result["metrics"].items()), flush=True)
        summary[name] = {}
        for metric in bench["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            a = [m[key]["value"] for m in sets["A"]]
            b = [m[key]["value"] for m in sets["B"]]
            if len(a) < 2 or len(b) < 2:
                ok = False
                continue
            row = {"median_a": statistics.median(a),
                   "median_b": statistics.median(b),
                   "spread_a": spread(a), "spread_b": spread(b),
                   "bound": bound, "runs": [len(a), len(b)]}
            row["b_vs_a"] = worse(row["median_b"], row["median_a"],
                                  metric["better"])
            row["steady"] = (abs(row["b_vs_a"]) <= bound and max(
                row["spread_a"], row["spread_b"]) <= bound)
            ok &= row["steady"]
            summary[name][key] = row
            print(f"{name:24s} {key:12s} A {row['median_a']:.4g} "
                  f"(spread {row['spread_a']:.3f}) B {row['median_b']:.4g} "
                  f"(spread {row['spread_b']:.3f}) B vs A "
                  f"{row['b_vs_a']:+.3f} bound {bound} "
                  f"{'steady' if row['steady'] else 'NOT STEADY'}",
                  flush=True)
        traced = [run(bench, name, seed, 1) for seed in (1, 2)]
        if None in traced:
            print(f"{name}: traced run failed")
            ok = False
            continue
        layers = {k: v["value"] for k, v in traced[0]["metrics"].items()}
        summary[name]["per_layer"] = layers
        for k, v in traced[0]["metrics"].items():
            other = traced[1]["metrics"][k]["value"]
            if v["unit"] == "count" and v["value"] != other:
                print(f"{name}: count {k} differs between seeds: "
                      f"{v['value']} vs {other}")
                ok = False
        if not layers.get("trace.counts_stable"):
            print(f"{name}: counts differ between processes of one run")
            ok = False
    if args.compare:
        with open(args.compare) as fh:
            old = json.load(fh)
        for metric in bench["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            for name in names:
                if key not in old.get(name, {}) or key not in summary[name]:
                    continue
                new_row, old_row = summary[name][key], old[name][key]
                change = worse(new_row["median_a"], old_row["median_a"],
                               metric["better"])
                if max(new_row["spread_a"], old_row["spread_a"]) > bound:
                    verdict = "unresolved"
                elif change > bound:
                    verdict = "worse"
                    ok = False
                else:
                    verdict = "better" if change < -bound else "within bound"
                print(f"compare {name:24s} {key:12s} {change:+.3f} "
                      f"(bound {bound}): {verdict}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
    print("all checks held" if ok else "NOT all checks held")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
