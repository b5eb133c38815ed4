#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source, then runs it.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The build goes to .bench_build/ there;
its output goes to standard error, so the last line of standard output is
the benchmark's JSON result. Exits non-zero, printing no result, when the
build fails (for example in a directory without the repository's sources).
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")


def build():
    """Configures once, then builds incrementally; True on success."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "e2ebench"), "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "e2ebench", "-j", "4"])
    for step in steps:
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            return False
    return True


def main():
    if not build():
        print("e2ebench: build failed", file=sys.stderr)
        return 2
    sys.stdout.flush()
    return subprocess.run([os.path.join(BUILD, "e2ebench")] + sys.argv[1:],
                          cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
