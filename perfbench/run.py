#!/usr/bin/env python3
"""Build and run the llmq benchmark driver.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name|all> --seed <n> \
        --seconds <s> --trace <0|1>

The first call configures and builds the driver (Release) under
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when the variable is
unset; later calls rebuild incrementally. Build output goes to stderr, so
the last line of stdout is the driver's JSON result. `--workload all` runs
every workload in its own process, one after another, and ends with one
combined JSON line. Every other argument is passed to the driver, which
validates it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ["paper_batch", "online_zipf", "agent_sessions", "served_queries"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(root):
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = root / target / "perfbench"
    src_dir = root / "perfbench"
    if not (root / "src" / "serve" / "online.hpp").is_file():
        fail(f"llmq sources not found under {root / 'src'}")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(src_dir), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs,
                  "--target", "llmq_perfbench"])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step failed: {e}")
        if proc.returncode != 0:
            fail(f"build step exited with {proc.returncode}: {' '.join(cmd)}")
    return build_dir / "llmq_perfbench"


def run_one(binary, args, capture):
    try:
        proc = subprocess.run([str(binary)] + args, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None,
                              text=True)
    except subprocess.TimeoutExpired:
        fail(f"driver exceeded {RUN_TIMEOUT_S} s")
    return proc


def main(argv):
    root = Path(__file__).resolve().parent.parent
    binary = build(root)
    if "--workload" in argv:
        i = argv.index("--workload")
        if i + 1 < len(argv) and argv[i + 1] == "all":
            return run_all(binary, argv[:i] + argv[i + 2:])
    return run_one(binary, argv, capture=False).returncode


def run_all(binary, rest):
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        proc = run_one(binary, ["--workload", name] + rest, capture=True)
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = proc.returncode or 1
            combined["correct"] = False
            continue
        res = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for key, val in res["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = val
    print(json.dumps(combined))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
