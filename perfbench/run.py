#!/usr/bin/env python3
"""Build the perfbench program from this checkout, then run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program and the rooftune libraries it
links are built with CMake under .bench_build/perfbench (Release); build
output goes to stderr.  The program's own output, ending in one JSON result
line, goes to stdout, and its exit code is passed through.  Journal files
and temporaries are written under .bench_build/scratch and removed
afterwards.
"""

import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
SCRATCH = os.path.join(ROOT, ".bench_build", "scratch", str(os.getpid()))
BINARY = os.path.join(BUILD, "perfbench")

BUILD_TIMEOUT_S = 840  # the first run of a checkout builds the libraries
RUN_TIMEOUT_S = 170    # one measured run, warm-up and checks included


def run(command, timeout, **kwargs):
    """Run `command` in its own process group; on timeout kill the whole
    group (compilers under cmake included) and wait for it."""
    process = subprocess.Popen(command, start_new_session=True, **kwargs)
    try:
        return process.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        sys.exit("perfbench: %s exceeded %d s" % (command[0], timeout))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no rooftune sources next to perfbench/")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench", "-j",
                  str(min(4, os.cpu_count() or 1))])
    for step in steps:
        if run(step, BUILD_TIMEOUT_S, stdout=sys.stderr, stderr=sys.stderr) != 0:
            sys.exit("perfbench: build step failed: " + " ".join(step))


def main():
    os.makedirs(SCRATCH, exist_ok=True)
    os.environ["TMPDIR"] = SCRATCH  # compiler temporaries stay in the checkout
    try:
        build()
        return run([BINARY, *sys.argv[1:], "--scratch", SCRATCH], RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
