#!/usr/bin/env python3
"""Record/replay cost benchmark.

Builds the `rrbench` program (perfbench/CMakeLists.txt, which compiles the
repository's libraries from src/) into .bench_build/ at the checkout root,
then runs one workload:

    python3 perfbench/run.py --workload mcb-wide --seed 1 --seconds 55 --trace 0

Build output goes to stderr; rrbench's report goes to stdout, and its
last line is the JSON result. The exit status is rrbench's.
"""
import argparse
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
WORKLOADS = ("mcb-wide", "mcb-deep", "jacobi-par")


def build():
    """Configures (once) and builds rrbench; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: the repository sources (src/) are missing")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "rrbench",
                    "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr)
    return os.path.join(BUILD_DIR, "rrbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = parser.parse_args()

    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as error:
        sys.exit(f"perfbench: build failed: {error}")

    workdir = tempfile.mkdtemp(prefix="run-", dir=BUILD_ROOT)
    try:
        sys.stdout.flush()
        result = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--scale", args.scale, "--workdir", workdir])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
