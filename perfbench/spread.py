#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload NAME [--seeds 101-110]
                                [--seconds 20] [--out FILE]

Runs perfbench/run.py once per seed (untraced), then prints, for every
end-to-end metric, its median and the distance between the first and
third quartile as a share of the median (statistics.quantiles, n=4),
next to the metric's bound from BENCHMARK.json. With --out, the raw
per-run results and the summary are written as JSON.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="101-110")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--out")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    runs = []
    for seed in seed_list(args.seeds):
        cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload",
               args.workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: run failed with exit code {out.returncode}")
        result = json.loads(lines[-1])
        result["seed"] = seed
        runs.append(result)
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)

    summary = {}
    print(f"\n{args.workload}: {len(runs)} runs of {seconds:g} s")
    for metric in bench["end_to_end"]:
        name = metric["name"]
        med, share = spread([r["metrics"][name]["value"] for r in runs])
        summary[name] = {"median": med, "iqr_share": share, "bound": metric["bound"]}
        flag = "" if share < metric["bound"] / 3 else "  <-- above a third of the bound"
        print(f"  {name:16s} median {med:14.6g} {metric['unit']:6s} "
              f"IQR/median {share:7.4f}  bound {metric['bound']}{flag}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"workload": args.workload, "seconds": seconds, "runs": runs,
                       "summary": summary}, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
