#!/usr/bin/env python3
"""Bit-exact replay gate for the golden-covered benches.

Covers every figure with a checked-in golden: fig02/03 (the naive-SSD
baselines through the host page cache) and fig10-21.

The repo's substitute for hardware ground truth is exact
replayability: same sources, same seeds => byte-identical
``BENCH_*.json``. This gate enforces that as a CI invariant instead
of a hope. It builds the bench binaries twice in two different build
directories, runs each set in its own run directory under a varied
process environment (different environment-block sizes shift the
initial stack layout; ASLR re-randomizes every exec), and fails on
ANY byte difference between the two sets of JSON dumps.

What a failure means: some value in a dump depends on memory
addresses, hash-bucket order, host time, build paths, or the launch
environment — exactly the hazards tools/lint_determinism.py lints
for. Fix the order leak; never refresh a golden to paper over one.

Usage:
    determinism_gate.py [--source DIR] [--work DIR] [--jobs N]
                        [--quick BUILDDIR] [--keep]

--quick reuses one existing build and only re-runs the benches twice
(catches runtime nondeterminism but not build-path leakage); the
default two-build mode is what CI runs.

Exit status: 0 bit-identical, 1 divergence, 2 build/run failure.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

REPO = pathlib.Path(__file__).resolve().parent.parent

FIG_TARGETS = [
    "fig02_naive_ssd",
    "fig03_read_amplification",
    "fig10_sls_operator",
    "fig11_end_to_end",
    "fig12_throughput",
    "fig13_latency",
    "fig14_locality",
    "fig15_mlp_dominated",
    "fig16_scaleout",
    "fig17_pipeline",
    "fig18_placement",
    "fig19_tiering",
    "fig20_multitenant",
    "fig21_slo",
]


def run(cmd: list[str], **kw) -> None:
    proc = subprocess.run(cmd, **kw)
    if proc.returncode != 0:
        print(f"determinism_gate: command failed "
              f"({' '.join(map(str, cmd))})", file=sys.stderr)
        sys.exit(2)


def build(source: pathlib.Path, build_dir: pathlib.Path,
          jobs: int) -> None:
    run(["cmake", "-B", str(build_dir), "-S", str(source),
         "-DCMAKE_BUILD_TYPE=Release"],
        stdout=subprocess.DEVNULL)
    run(["cmake", "--build", str(build_dir), "-j", str(jobs),
         "--target", *FIG_TARGETS],
        stdout=subprocess.DEVNULL)


def run_benches(build_dir: pathlib.Path, run_dir: pathlib.Path,
                label: str) -> None:
    run_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    # Different environment-block sizes move argv/envp and the initial
    # stack between the two runs, so any address-dependent value (a
    # pointer-keyed order, an uninitialized read) diverges instead of
    # accidentally agreeing. ASLR varies the rest per exec.
    env["DETGATE_LABEL"] = label
    env["DETGATE_PAD"] = "x" * (17 if label == "a" else 4099)
    for target in FIG_TARGETS:
        binary = build_dir / "bench" / target
        if not binary.exists():
            print(f"determinism_gate: missing bench binary {binary}",
                  file=sys.stderr)
            sys.exit(2)
        # --benchmark_filter=NONE_ skips the wall-clock microbenchmark
        # tail; the paper tables (simulated time) still print and the
        # BENCH_*.json dump is still written.
        run([str(binary), "--benchmark_filter=NONE_"],
            cwd=run_dir, env=env, stdout=subprocess.DEVNULL)


def first_diff(a: bytes, b: bytes) -> tuple[int, str]:
    n = min(len(a), len(b))
    for i in range(n):
        if a[i] != b[i]:
            ctx_a = a[max(0, i - 30):i + 30].decode("utf-8", "replace")
            ctx_b = b[max(0, i - 30):i + 30].decode("utf-8", "replace")
            return i, f"run-a ...{ctx_a}... != run-b ...{ctx_b}..."
    return n, f"lengths differ ({len(a)} vs {len(b)} bytes)"


def compare(run_a: pathlib.Path, run_b: pathlib.Path) -> list[str]:
    dumps_a = {p.name: p for p in sorted(run_a.glob("BENCH_*.json"))}
    dumps_b = {p.name: p for p in sorted(run_b.glob("BENCH_*.json"))}
    findings: list[str] = []
    if not dumps_a:
        findings.append("run-a produced no BENCH_*.json dumps")
    for name in sorted(set(dumps_a) | set(dumps_b)):
        if name not in dumps_a or name not in dumps_b:
            findings.append(f"{name}: produced by only one run")
            continue
        a = dumps_a[name].read_bytes()
        b = dumps_b[name].read_bytes()
        if a != b:
            off, ctx = first_diff(a, b)
            findings.append(f"{name}: differs at byte {off}: {ctx}")
    return findings


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(
        description="bit-exact replay gate for fig02/03 and fig10-21")
    ap.add_argument("--source", type=pathlib.Path, default=REPO)
    ap.add_argument("--work", type=pathlib.Path, default=None,
                    help="scratch dir (default: a fresh tempdir)")
    ap.add_argument("--jobs", type=int, default=os.cpu_count() or 2)
    ap.add_argument("--quick", type=pathlib.Path, default=None,
                    metavar="BUILDDIR",
                    help="reuse one existing build; only vary the "
                         "run environment")
    ap.add_argument("--keep", action="store_true",
                    help="keep the scratch dir for inspection")
    args = ap.parse_args(argv)

    # Benches run with cwd=run_dir, so every path must be absolute.
    args.source = args.source.resolve()
    if args.quick:
        args.quick = args.quick.resolve()
    work = (args.work or pathlib.Path(
        tempfile.mkdtemp(prefix="detgate-"))).resolve()
    work.mkdir(parents=True, exist_ok=True)

    try:
        runs = {}
        for label in ("a", "b"):
            if args.quick:
                build_dir = args.quick
            else:
                build_dir = work / f"build-{label}"
                print(f"determinism_gate: building [{label}] in "
                      f"{build_dir}")
                build(args.source, build_dir, args.jobs)
            run_dir = work / f"run-{label}"
            print(f"determinism_gate: running fig02/03, fig10-21 [{label}] in "
                  f"{run_dir}")
            run_benches(build_dir, run_dir, label)
            runs[label] = run_dir

        findings = compare(runs["a"], runs["b"])
        if findings:
            print("determinism_gate: replay DIVERGED — goldens are "
                  "not deterministic:")
            for f in findings:
                print(f"  {f}")
            print("(a value depends on addresses/hash order/host "
                  "time; run tools/lint_determinism.py and fix the "
                  "order leak — do not refresh goldens over this)")
            return 1
        n = len(list(runs["a"].glob("BENCH_*.json")))
        print(f"determinism_gate: {n} dumps bit-identical across "
              f"independent builds/runs")
        return 0
    finally:
        if not args.keep and args.work is None:
            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
