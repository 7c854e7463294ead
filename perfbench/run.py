#!/usr/bin/env python3
"""Build perfbench from source, then run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload universal_combine --seed 1 \
        --seconds 50 --trace 0

Every argument is passed to the perfbench binary (see src/main.cpp). The
build goes to $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when
that is unset; traced runs write their span files under its traces/. Build
output goes to stderr, so the last stdout line is the binary's result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(root), "perfbench")


def build(bdir):
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", "2"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    return True


def seconds_arg(argv):
    for flag, value in zip(argv, argv[1:]):
        if flag == "--seconds":
            return float(value)
    return 10.0


def main(argv):
    bdir = build_dir()
    if not build(bdir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    traces = os.path.join(bdir, "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [os.path.join(bdir, "perfbench"), *argv, "--trace-dir", traces]
    try:
        timeout = min(170, 60 + 2 * seconds_arg(argv))
        return subprocess.run(cmd, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
