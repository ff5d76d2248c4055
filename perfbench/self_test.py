#!/usr/bin/env python3
"""Self-test of the benchmark: a seconds-scale run of every workload.

    python3 perfbench/self_test.py [--seconds 2] [--seed 1]

Runs each workload of BENCHMARK.json through run.py untraced and traced
and checks that every run exits 0, reports correct with no failed
operation, and emits every metric of its mode with the declared unit;
that no end-to-end metric reads 0; and that layers a workload does not
run read 0 (core/rtcore off juno-batch, serve/live on juno-batch, live
on pq-serve) while the ones it does run do not. Prints each workload's
tracing overhead: traced against untraced throughput. Exits 1 on any
failed check.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Layer prefixes each workload runs; the others must read 0 there.
RUNS = {
    "juno-batch": ("ivf.", "core.", "rtcore.", "engine."),
    "pq-serve": ("ivf.", "quant.", "engine.", "serve."),
    "live-mixed": ("serve.", "live."),
}
LAYERS = ("ivf.", "core.", "rtcore.", "engine.", "quant.", "serve.", "live.")
# Per-layer metrics that may read 0 even where their layer runs.
MAY_BE_ZERO = {"serve.shed_frac", "serve.rss_growth_kb_per_kreq",
               "live.rejected_full"}


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=int, default=2)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = []

    def check(ok, what):
        if not ok:
            failures.append(what)
            print(f"FAIL {what}", flush=True)

    for w in spec["workloads"]:
        name = w["name"]
        results = {}
        for trace in (0, 1):
            rc, result = run(name, args.seed, args.seconds, trace)
            tag = f"{name} --trace {trace}"
            check(rc == 0 and result is not None, f"{tag}: exit {rc}")
            if result is None:
                continue
            results[trace] = result
            check(result["correct"] is True and result["failed"] == 0,
                  f"{tag}: correct={result['correct']} "
                  f"failed={result['failed']}")
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            check(units == declared[trace], f"{tag}: metrics/units differ "
                  "from BENCHMARK.json")
            values = {k: v["value"] for k, v in result["metrics"].items()}
            if trace == 0:
                for k, v in values.items():
                    check(v > 0, f"{tag}: {k} = {v}")
                continue
            for k, v in values.items():
                layer = next((p for p in LAYERS if k.startswith(p)), None)
                if layer is None or k in MAY_BE_ZERO:
                    continue
                if layer in RUNS[name]:
                    check(v != 0, f"{tag}: {k} reads 0 on a layer it runs")
                else:
                    check(v == 0, f"{tag}: {k} = {v} on a layer it skips")
        if 0 in results and 1 in results:
            qps = results[0]["metrics"]["qps"]["value"]
            traced = results[1]["metrics"]["traced.qps"]["value"]
            print(f"{name}: qps {qps:.1f} untraced, {traced:.1f} traced "
                  f"(tracing overhead {100 * (1 - traced / qps):+.1f}%)",
                  flush=True)

    if failures:
        print(f"SELF-TEST FAILED: {len(failures)} checks")
        sys.exit(1)
    print("SELF-TEST PASSED")


if __name__ == "__main__":
    main()
