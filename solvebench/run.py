#!/usr/bin/env python3
"""Build and run the resilient-solve benchmark.

    python3 solvebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 solvebench/run.py --selftest

Run from the root of a checkout. The first call configures and builds the
library under test plus the benchmark (Release) into .bench_build/solvebench;
later calls rebuild incrementally. Build output goes to standard error, so the
last line of standard output is the benchmark's JSON result.

The environment is pinned here, because libgomp and glibc read it before the
program starts: passive OpenMP waiting (no spin-waits counted as work), static
team sizes, one OpenMP thread for every solver and every thread the library
starts itself (drain workers, fleet jobs), and one malloc arena, so that peak
memory does not depend on which thread happened to free what (with per-thread
arenas the fleet's peak varied from 173 to 222 MB between runs; with one, 148
to 150 MB at the same time to solution). On a shared 4-core host a solver
team of one was the steadiest: in four interleaved pairs of runs of
resilient-cg-lossy, the median solve of a team of two ranged from 2.37 to
2.99 s, of a team of one from 4.16 to 4.47 s.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "solvebench")


def fail(msg):
    print("solvebench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        fail("no library sources next to " + HERE + "; run from a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def main():
    args = sys.argv[1:]
    build()
    env = dict(os.environ)
    env.update(
        {
            "OMP_WAIT_POLICY": "passive",
            "OMP_DYNAMIC": "false",
            "OMP_NUM_THREADS": "1",
            "MALLOC_ARENA_MAX": "1",
        }
    )
    if args == ["--selftest"]:
        cmd, cwd = [os.path.join(BUILD, "solvebench_selftest")], BUILD
    else:
        cmd, cwd = [os.path.join(BUILD, "solvebench")] + args, ROOT
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd, env=env, cwd=cwd).returncode)


if __name__ == "__main__":
    main()
