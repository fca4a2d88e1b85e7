#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of a source tree. The first call builds perfbench/
(which compiles the simulator library from src/) into .bench_build/ with
CMake; later calls only re-check the build. Every call runs the
self-tests of the benchmark's own math, then one workload in one
single-threaded process. The last line of standard output is the result
JSON; a failed build, self-test or determinism check exits non-zero
without printing one. See perfbench/README.md for the metrics.
"""

import argparse
import hashlib
import os
import subprocess
import sys

WORKLOADS = ("cached_device", "host_ssd", "tenant_cluster")
# The seed runs use by default, and a seed the workloads were not tuned
# on, for re-checking a claim.
DEFAULT_SEED = 1
HOLDOUT_SEED = 97
# One workload run must end well within three minutes.
RUN_TIMEOUT_S = 170

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")


def fail(message):
    print(message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then build; the build log stays in .bench_build."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("perfbench: no src/ next to perfbench/; run from the root of "
             "a full source tree")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("perfbench: build failed (log: %s)" % log_path)


def source_digest():
    """Hash of every file the benchmark binary is built from."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="only run the self-tests of the benchmark's math")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    build()
    selftest = subprocess.run([BINARY, "--selftest"], capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    if selftest.returncode != 0:
        sys.stderr.write(selftest.stdout + selftest.stderr)
        fail("perfbench: self-tests failed")
    if args.selftest:
        print(selftest.stdout, end="")
        return

    # Sim results of one (workload, seed) must match every earlier run
    # of the same sources, traced or not; the binary compares them.
    digest_dir = os.path.join(BUILD_ROOT, "digests", source_digest())
    os.makedirs(digest_dir, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--digest-dir", digest_dir]
    if args.trace:
        spans_dir = os.path.join(BUILD_ROOT, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans-out", os.path.join(
            spans_dir, "%s-%d.tsv" % (args.workload, args.seed))]
    run = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    if run.returncode != 0:
        fail("perfbench: %s exited with %d" % (args.workload, run.returncode))


if __name__ == "__main__":
    main()
