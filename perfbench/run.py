#!/usr/bin/env python3
"""Build and run the MLCD service benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Run from the repository root. The first call configures and builds the
benchmark package (perfbench/CMakeLists.txt, which compiles ../src) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later calls
only rebuild what changed. The benchmark binary then runs one workload in
its own process and its last line of output is the JSON result.
`--workload all`
runs every workload untraced and traced, one process each, and prints
every metric; it exits nonzero if any run failed its correctness check.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("bo_fleet", "contended_fleet", "durable_fleet")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no MLCD sources next to perfbench/ (src/ is missing)")
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench",
                  "-j", "4"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def run_one(binary, workload, seed, seconds, trace):
    """Runs the benchmark binary once; returns (exit code, stdout)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", os.path.join(os.path.dirname(build_dir()),
                                     "perfbench-out")]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=RUN_TIMEOUT_S, check=False)
    return done.returncode, done.stdout


def run_all(binary, seed, seconds):
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, out = run_one(binary, workload, seed, seconds, trace)
            lines = out.splitlines()
            print("\n".join(lines[:-1]))
            result = json.loads(lines[-1]) if lines else {}
            ok = ok and code == 0 and result.get("correct") is True
            print("# %s trace %d: correct=%s attempted=%s failed=%s exit=%d"
                  % (workload, trace, result.get("correct"),
                     result.get("attempted"), result.get("failed"), code))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    if args.workload == "all":
        return run_all(binary, args.seed, args.seconds)
    code, out = run_one(binary, args.workload, args.seed, args.seconds,
                        args.trace)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
