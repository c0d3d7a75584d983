#!/usr/bin/env python3
"""Run one fvc benchmark workload from the root of a source checkout.

    python3 perfbench/run.py --workload mc_phase --seed 1 --seconds 30 --trace 0

Builds the program and the harness (Release) into .bench_build on first use,
then runs the `fvcbench` harness, whose last stdout line is the
result object {"correct", "attempted", "failed", "metrics"}.  Build output
goes to stderr.  Exits nonzero when the build fails or when the harness
does (it refuses FVC_FORCE_KERNEL and FVC_FORCE_INDEX and fails on any
correctness check).
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("mc_phase", "region_cluster", "serve_mixed")
BUILD_DIR = ".bench_build"
OUT_DIR = os.path.join(BUILD_DIR, "perfbench")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def git_sha():
    # The ceiling keeps git from reading a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             timeout=10, env=env)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown (not a git checkout)"


def build():
    here = os.path.relpath(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile("CMakeLists.txt") or not os.path.isdir("src"):
        fail("run from the root of an fvc source checkout (CMakeLists.txt and src/ not found)")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", here, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "fvcbench", "fvc_sim_tool",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD_DIR, "fvcbench"), os.path.join(BUILD_DIR, "fvc", "tools", "fvc_sim")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()
    harness, fvc_sim = build()
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [harness, "--workload", a.workload, "--seed", str(a.seed), "--seconds",
           str(a.seconds), "--trace", str(a.trace), "--fvc-sim", fvc_sim, "--out-dir", OUT_DIR,
           "--git-sha", git_sha()]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd)
    try:
        rc = proc.wait(timeout=170)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("harness timed out")
    sys.exit(rc)


if __name__ == "__main__":
    main()
