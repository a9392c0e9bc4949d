#!/usr/bin/env python3
"""Self-test of the benchmark's oracles.

    python3 perfbench/selftest.py [--seconds 2]

For every workload in BENCHMARK.json:
  1. at the default seed (1) with --corrupt-reference, one oracle value
     is altered, so the run must report ok_frac < 1 and correct = false;
  2. at the default seed as shipped, ok_frac must be 1;
  3. at a held-out seed that was not used while the benchmark was tuned
     (7919), ok_frac must be 1.
Exits 0 only when every check holds.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919


def run(workload, seed, seconds, extra=()):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0", *extra]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return out.returncode, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=2.0)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]

    failures = 0
    for workload in workloads:
        cases = [("corrupted reference", DEFAULT_SEED, ["--corrupt-reference"], False),
                 ("default seed", DEFAULT_SEED, [], True),
                 ("held-out seed", HELD_OUT_SEED, [], True)]
        for label, seed, extra, want_ok in cases:
            code, result = run(workload, seed, args.seconds, extra)
            if result is None:
                ok_frac, good = None, False
            else:
                ok_frac = result["metrics"]["ok_frac"]["value"]
                good = (ok_frac == 1.0 and result["correct"] and code == 0) if want_ok else (
                    ok_frac < 1.0 and not result["correct"] and code != 0)
            failures += not good
            print(f"{'PASS' if good else 'FAIL'} {workload:16s} {label:20s} seed {seed:5d} "
                  f"ok_frac={ok_frac} exit={code}", flush=True)
    print("self-test " + ("passed" if failures == 0 else f"FAILED ({failures} checks)"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
