#!/usr/bin/env python3
"""Builds the end-to-end benchmark from the checkout's sources and runs it.

    python3 e2ebench/run.py --workload deep-lattice --seed 1 --seconds 20 --trace 0
    python3 e2ebench/run.py --selftest

The build is a Release build of e2ebench/CMakeLists.txt into
.bench_build/e2ebench at the checkout root (incremental after the first
run). Build output goes to standard error; the benchmark's own output,
whose last line is the JSON result, goes to standard output unchanged.
"""
import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")


def fail(message):
    print("e2ebench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isdir(os.path.join(ROOT, "src", "whynot")):
        fail("no library sources at src/whynot in " + ROOT)
    if shutil.which("cmake") is None:
        fail("cmake is not installed")
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    # One build at a time per checkout; a second run waits for the first.
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja") is not None:
                configure += ["-G", "Ninja"]
            if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
                shutil.rmtree(BUILD, ignore_errors=True)
                fail("cmake configure failed")
        done = subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                              stdout=sys.stderr)
        if done.returncode != 0:
            fail("build failed")
    return os.path.join(BUILD, "e2ebench")


def main():
    binary = build()
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
