#!/usr/bin/env python3
"""Builds and runs the DeepLens end-to-end benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ingest|analyst|serving \
        --seed N --seconds S --trace 0|1

The first run configures and compiles perfbench/ (the library from src/
plus the harness) into .bench_build/; later runs only re-check the build.
The harness prints its notes and metrics, and as its last line the JSON
result. The exit code is the harness's: non-zero when a check failed.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("ingest", "analyst", "serving")
# Each workload must finish well inside the three-minute limit per run.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850

# Knobs pinned for every run; every other DEEPLENS_* variable is cleared so
# the library runs with its defaults. Columnar chunks are sized to the
# laptop-scale corpus (the 8192-row default would leave every view in a
# single chunk, so zone maps could never prune).
PINNED_ENV = {"DEEPLENS_COLUMNAR_CHUNK_ROWS": "256"}


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds the harness; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "database.h")):
        fail("DeepLens sources (src/) not found next to perfbench/")
    cmake_dir = os.path.join(BUILD, "cmake")
    os.makedirs(cmake_dir, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", cmake_dir, "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                fail("build step %s failed: %s" % (cmd[:2], e))
            if rc != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (see %s)" % log_path)
    return os.path.join(cmake_dir, "deeplens_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="corpus size relative to the default "
                             "WorkloadConfig (the self-test uses a tiny one)")
    args = parser.parse_args()

    binary = build()
    # A private scratch directory per run, so runs never share databases.
    work_dir = os.path.join(BUILD, "work", "%s-%d" % (args.workload,
                                                      os.getpid()))
    os.makedirs(work_dir, exist_ok=True)
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("DEEPLENS_")}
    env.update(PINNED_ENV)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", str(args.scale), "--work-dir", work_dir]
    sys.stdout.flush()
    try:
        rc = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail("workload %s exceeded %d s" % (args.workload, RUN_TIMEOUT_S))
    finally:
        # The databases are large and rebuilt by every run; keep only the
        # latest span dump of each workload.
        spans = os.path.join(work_dir, "spans-%s.csv" % args.workload)
        if os.path.isfile(spans):
            shutil.move(spans, os.path.join(BUILD, os.path.basename(spans)))
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.exit(rc)


if __name__ == "__main__":
    main()
