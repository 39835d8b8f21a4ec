#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --workloads serve-mixed,lib-large --seeds 1-10

For every workload and end-to-end metric it prints the median of the runs
and the spread, the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, next to the
metric's bound from BENCHMARK.json. A spread over a third of the bound is
flagged. The raw result lines are kept in .bench_build/spread-<workload>.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def cpu_ticks():
    """Total and steal jiffies from /proc/stat: steal is time the host ran
    something else while this machine had work, the main source of noise
    on a shared machine."""
    try:
        with open("/proc/stat") as f:
            v = [int(x) for x in f.readline().split()[1:]]
        return sum(v), v[7]
    except (OSError, IndexError, ValueError):
        return 0, 0


def seeds_of(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    os.makedirs(build, exist_ok=True)
    worst = 0.0
    for wl in args.workloads.split(","):
        runs = []
        with open(os.path.join(build, "spread-%s.jsonl" % wl), "w") as log:
            for seed in seeds_of(args.seeds):
                cmd = bench["command"] + ["--workload", wl, "--seed", str(seed),
                                          "--seconds", str(args.seconds), "--trace", "0"]
                total0, steal0 = cpu_ticks()
                p = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
                total1, steal1 = cpu_ticks()
                lines = p.stdout.strip().splitlines()
                if p.returncode != 0 or not lines:
                    sys.exit("spread.py: %s seed %d failed with exit code %d" % (wl, seed, p.returncode))
                res = json.loads(lines[-1])
                log.write(lines[-1] + "\n")
                if not res["correct"] or res["failed"]:
                    sys.exit("spread.py: %s seed %d: incorrect result %s" % (wl, seed, lines[-1]))
                runs.append(res["metrics"])
                steal = (steal1 - steal0) / max(total1 - total0, 1)
                print("  seed %-3d steal %5.1f%%  %s" % (seed, 100 * steal, "  ".join(
                    "%s %.4g" % (k, res["metrics"][k]["value"]) for k in ("setup_s", "latency_p50_ms", "latency_p99_ms"))),
                    flush=True)
        print("%s (%d runs)" % (wl, len(runs)))
        for name, bound in bounds.items():
            vals = [r[name]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "" if spread <= bound / 3 else "  <-- over a third of the bound"
            worst = max(worst, spread / bound)
            print("  %-16s median %14.6g  spread %6.2f%%  bound %5.1f%%%s"
                  % (name, med, 100 * spread, 100 * bound, flag))
    print("largest spread/bound: %.2f" % worst)


if __name__ == "__main__":
    main()
