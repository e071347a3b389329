#!/usr/bin/env python3
"""Builds the SeGShare benchmark from this checkout and runs it once.

Usage (from the repository root):

    python3 segbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

segbench is compiled together with the program sources in ../src into
.bench_build/segbench (incremental after the first run). Build output goes
to stderr; segbench's own output goes to stdout, and its last line is the
JSON result. The exit code is segbench's: 0 only when the run's
correctness gate passed.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "segbench")
BINARY = os.path.join(BUILD, "segbench")
# A run has to finish within 180 s; leave room for start-up and teardown.
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("segbench: program sources (src/) not found next to segbench/")
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache, encoding="utf-8", errors="replace") as f:
            if "CMAKE_HOME_DIRECTORY:INTERNAL=" + HERE + "\n" not in f.read():
                shutil.rmtree(BUILD)  # configured for another checkout
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(cache):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "segbench", "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("segbench: build failed: " + " ".join(step))


def main():
    build()
    sys.stdout.flush()
    proc = subprocess.Popen([BINARY] + sys.argv[1:])
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.stderr.write("segbench: run exceeded %d s and was stopped\n" % RUN_TIMEOUT_S)
        return 3


if __name__ == "__main__":
    sys.exit(main())
