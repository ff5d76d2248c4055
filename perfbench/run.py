#!/usr/bin/env python3
"""Runs one workload of the repository benchmark (BENCHMARK.json).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (and through it the juno_core library) into
.bench_build/perfbench, runs the workload binary, checks that its last
output line carries exactly the metrics BENCHMARK.json declares for the
mode (end-to-end for --trace 0, per-layer for --trace 1) with their
units, and prints it as this program's last line.

Exit status: the binary's (1 when a correctness check failed, after the
result line); 2 when the build fails or the output is malformed, with
no result line.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "juno_perfbench"
TRACE_DIR = ROOT / ".bench_build" / "traces"
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures once, then builds incrementally; tool output -> stderr."""
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    # A failed configure leaves a cache behind but no build system.
    if not ((BUILD / "Makefile").exists() or (BUILD / "build.ninja").exists()):
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "juno_perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def source_digest():
    """Content hash of everything the binary is built from.

    The build stamps a git sha, but a checkout without git history reads
    "unknown"; this digest still tells two programs apart.
    """
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", "perfbench"):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file())
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}, \
        [w["name"] for w in spec["workloads"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    metrics, workloads = expected_metrics(args.trace)
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}; known: {workloads}")
    build()

    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-dir", str(TRACE_DIR)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload did not finish within {RUN_TIMEOUT_S}s")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"workload printed nothing (exit {proc.returncode})")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"last line is not JSON (exit {proc.returncode}): {lines[-1]}")
    if set(result) != RESULT_KEYS:
        fail(f"result keys {sorted(result)} != {sorted(RESULT_KEYS)}")
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != metrics:
        fail(f"metrics do not match BENCHMARK.json: got {got}, want {metrics}")

    for line in lines[:-1]:
        print(line)
    print(json.dumps({"source_digest": source_digest()}))
    print(lines[-1], flush=True)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
