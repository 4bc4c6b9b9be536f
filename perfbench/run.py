#!/usr/bin/env python3
"""Campaign benchmark entry point.

Builds perfbench/campaign_bench from this checkout (an optimized
RelWithDebInfo build of the repository's own CMake project, into
.bench_build/ or $CARGO_TARGET_DIR) and runs workloads:

    python3 perfbench/run.py --workload imrp-fig3-2240 --seed 5 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 5   # every workload in turn
    python3 perfbench/run.py --sweep --seed 5          # off-check scaling sweep

The last line of standard output is the harness's JSON result. With
--workload all it is one object that sums the counts of every workload and
names each metric <workload>.<metric>. The exit code is nonzero when the
build fails, a correctness check fails or the harness prints no result.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base)


def run_logged(cmd, log, env):
    """Run a build step with its output in `log`; on failure show the log."""
    with open(log, "w") as out:
        rc = subprocess.run(cmd, cwd=ROOT, stdout=out, stderr=subprocess.STDOUT,
                            env=env).returncode
    if rc != 0:
        with open(log) as f:
            sys.stderr.write(f.read()[-8000:])
        sys.stderr.write(f"run.py: build step failed ({rc}): {' '.join(cmd)}\n")
        sys.exit(1)


def build(out, env):
    """Configure once, then (re)build the harness; returns the binary path."""
    cmake_dir = os.path.join(out, "cmake")
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        run_logged([
            "cmake", "-S", ROOT, "-B", cmake_dir,
            "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
            "-DIMPRESS_BUILD_TESTS=OFF", "-DIMPRESS_BUILD_BENCH=OFF",
            "-DIMPRESS_BUILD_EXAMPLES=OFF", "-DIMPRESS_BUILD_TOOLS=OFF",
            "-DCMAKE_PROJECT_impress_INCLUDE=" + os.path.join(HERE, "perfbench.cmake"),
        ], os.path.join(out, "configure.log"), env)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_logged(["cmake", "--build", cmake_dir, "--target", "campaign_bench", "-j", jobs],
               os.path.join(out, "build.log"), env)
    return os.path.join(cmake_dir, "campaign_bench")


def run_harness(cmd, env):
    """Run the harness and echo its output; returns (exit code, result or None)."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, env=env)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.stderr.write(f"run.py: harness exceeded {RUN_TIMEOUT_S} s\n")
        return 1, None
    sys.stdout.write(stdout)
    sys.stdout.flush()
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if not isinstance(result, dict) or "metrics" not in result:
        sys.stderr.write(f"run.py: harness printed no result (exit {proc.returncode})\n")
        return proc.returncode or 1, None
    return proc.returncode, result


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", help="a workload named in BENCHMARK.json, or 'all'")
    ap.add_argument("--seed", type=int, default=5)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--sweep", action="store_true")
    args = ap.parse_args()
    if not args.sweep and not args.workload:
        ap.error("--workload is required (or --sweep)")
    for needed in ("CMakeLists.txt", os.path.join("src", "core", "campaign.hpp")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            sys.stderr.write(f"run.py: {needed} is missing; run from a full checkout\n")
            return 1

    out = build_dir()
    # Compiler and harness temp files stay inside the build directory.
    env = dict(os.environ, TMPDIR=os.path.join(out, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    binary = build(out, env)
    base = [binary, "--seed", str(args.seed), "--work-dir", os.path.join(out, "work")]
    if args.sweep:
        return run_harness(base + ["--sweep"], env)[0]

    workloads = [args.workload]
    if args.workload == "all":
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            workloads = [w["name"] for w in json.load(f)["workloads"]]
    rc = 0
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads:
        cmd = base + ["--workload", name, "--seconds", str(args.seconds),
                      "--trace", str(args.trace)]
        if args.trace:
            cmd += ["--trace-out", os.path.join(out, "traces", f"{name}-seed{args.seed}.json")]
        code, result = run_harness(cmd, env)
        rc = rc or code
        if result is None:
            total["correct"] = False
            total["failed"] += 1
            continue
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
    if len(workloads) > 1:
        print(json.dumps(total))
    return rc


if __name__ == "__main__":
    sys.exit(main())
