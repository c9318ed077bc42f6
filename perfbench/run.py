#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload paper|join|served --seed N \
        --seconds S --trace 0|1

The omega library and the perfbench driver are compiled with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench). The workload's
inputs are generated under the seed into a scratch directory beside the
build, set up, measured and checked; the scratch directory is removed
afterwards. Build output goes to standard error; the last line of standard
output is the driver's JSON result.
"""
import argparse
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    """Configures (once) and builds the driver; returns the binary path."""
    log = sys.stderr
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=log, stderr=log, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", "4"], stdout=log, stderr=log, check=True)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["paper", "join", "served"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                                ".bench_build"))
    os.makedirs(build_root, exist_ok=True)
    try:
        binary = build(os.path.join(build_root, "perfbench"))
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    data = tempfile.mkdtemp(prefix=f"data-{args.workload}-", dir=build_root)
    try:
        gen = subprocess.run([binary, "gen", *common, "--dir", data],
                             stdout=sys.stderr)
        if gen.returncode != 0:
            return 1
        run = subprocess.run([binary, "run", *common,
                              "--seconds", str(args.seconds),
                              "--trace", str(args.trace), "--dir", data],
                             stdout=subprocess.PIPE, text=True)
        if run.returncode != 0:
            return 1
        sys.stdout.write(run.stdout)
        return 0
    finally:
        shutil.rmtree(data, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
