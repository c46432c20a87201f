#!/usr/bin/env python3
"""Builds and runs the cgpipe end-to-end benchmark.

Usage (from the repository root):
    python3 e2ebench/run.py --workload paper-w1 --seed 1 --seconds 20 --trace 0

The first run configures and builds e2ebench/ (the cgpipe libraries from
src/ plus the benchmark program, Release) under $CARGO_TARGET_DIR, default
.bench_build; later runs only re-check the build. Build output goes to
stderr, so the last stdout line is the benchmark's JSON result. With
--trace 1 the recorded spans are written next to the build.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build(build_dir):
    src_build = os.path.join(build_dir, "e2ebench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", src_build, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", src_build, "--target", "cgp_e2e_bench",
         "-j", jobs],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("e2ebench: build failed: " + " ".join(step))
    return os.path.join(src_build, "cgp_e2e_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    binary = build(build_dir)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(build_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        command += ["--spans-out", os.path.join(
            spans_dir, f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    try:
        result = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # run() has killed and reaped the benchmark; the proc backend's
        # workers exit when their supervisor's command pipes close.
        sys.exit(f"e2ebench: run exceeded {RUN_TIMEOUT_S}s")
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
