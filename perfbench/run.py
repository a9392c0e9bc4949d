#!/usr/bin/env python3
"""Build and run the benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first run configures and compiles perfbench/ (which pulls in the
library sources under src/) into .bench_build/perfbench; later runs only
let the build tool confirm it is up to date. The benchmark program.s own output
goes to stdout and ends with one JSON line; the program's stderr
(campaign reports) goes to .bench_build/logs/ and is echoed only when the
run fails.

Extra flags are passed through to the perfbench binary, e.g. --corrupt-reference
for the self-test (perfbench/selftest.py).
"""
import argparse
import fcntl
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log_tail(path, lines=30):
    try:
        with open(path, errors="replace") as f:
            return "".join(f.readlines()[-lines:])
    except OSError:
        return ""


def build(log_path):
    """Configure once, then build the perfbench binary; False on any failure."""
    with open(log_path, "w") as log:
        steps = []
        if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", "4"])
        for cmd in steps:
            try:
                done = subprocess.run(cmd, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as e:
                log.write(f"\n{cmd[0]}: {e}\n")
                return False
            if done.returncode != 0:
                return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args, extra = parser.parse_known_args()

    logs = os.path.join(BUILD_ROOT, "logs")
    work = os.path.join(BUILD_ROOT, "run")
    os.makedirs(logs, exist_ok=True)
    os.makedirs(work, exist_ok=True)

    build_log = os.path.join(logs, "build.log")
    with open(os.path.join(BUILD_ROOT, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not build(build_log):
            sys.stderr.write("perfbench: build failed; see .bench_build/logs/build.log\n")
            sys.stderr.write(log_tail(build_log))
            return 1

    run_log = os.path.join(logs, f"{args.workload}-seed{args.seed}-trace{args.trace}.log")
    cmd = [os.path.join(BUILD_DIR, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--reference-dir", os.path.join(BENCH_DIR, "reference"),
           "--work-dir", work] + extra
    with open(run_log, "w") as log:
        # Own process group, so a timeout also stops forked shard workers.
        proc = subprocess.Popen(cmd, cwd=ROOT, stderr=log, start_new_session=True)
        try:
            code = proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            sys.stderr.write(f"perfbench: run exceeded {RUN_TIMEOUT_S} s\n")
            return 1
    if code != 0:
        sys.stderr.write(f"perfbench: benchmark exited with {code}; log tail:\n")
        sys.stderr.write(log_tail(run_log))
    return code


if __name__ == "__main__":
    sys.exit(main())
