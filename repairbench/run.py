#!/usr/bin/env python3
"""Build the repair benchmark from source and run one workload.

Run from the repository root:

    python3 repairbench/run.py --workload sat-suite --seed 1 --seconds 15 --trace 0
    python3 repairbench/run.py --workload fuzz-cosim --seed 1 --seconds 15 --trace 1
    python3 repairbench/run.py --workload fuzz-heldout --seed 1 --seconds 15 --trace 0
    python3 repairbench/run.py --self-test

The first call configures and builds the tool's libraries and the
benchmark (Release) under $CARGO_TARGET_DIR/repairbench, or
.bench_build/repairbench when that variable is unset; later calls only
rebuild what changed.  Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result.  Reports and traces are written
to .bench_out/.  The exit code is the benchmark's: 0 only when every
output was checked and found correct.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sat-suite", "long-trace", "fuzz-cosim", "fuzz-heldout")


def build():
    """Configure (once) and build; returns the build directory or None."""
    for needed in ("src/CMakeLists.txt", "benchmarks"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            print(f"repairbench: {needed} not found; run from a full "
                  "checkout of the repository", file=sys.stderr)
            return None
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(
        ROOT, ".bench_build")
    build_dir = os.path.join(os.path.abspath(base), "repairbench")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return None
    cmd = ["cmake", "--build", build_dir, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return build_dir


def main():
    # On SIGTERM, unwind through subprocess.run, which kills and reaps
    # the child it is waiting for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1,
                    help="seeds the order in which the items run")
    ap.add_argument("--seconds", type=int, default=15,
                    help="how long the timed passes run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1 = traced run with per-layer metrics")
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the self-time unit test")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")

    build_dir = build()
    if build_dir is None:
        return 2
    if args.self_test:
        return subprocess.run(
            [os.path.join(build_dir, "spans_test")]).returncode
    cmd = [os.path.join(build_dir, "repairbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", os.path.join(ROOT, ".bench_out")]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
