#!/usr/bin/env python3
"""Build the benchmark from source, run one workload, print its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of the source tree.  The build goes to
$CARGO_TARGET_DIR (default .bench_build) under that root; the build log
goes to stderr.  stdout carries the benchmark's own report (every metric
with its unit, and the build/run manifest) and, as its last line, one JSON
object: correct / attempted / failed plus the metrics BENCHMARK.json names
for the mode (end_to_end with --trace 0, per_layer with --trace 1).  The
spans of a traced run are written to <build>/traces/.  Exits 1 when the
build fails, a check fails, or a named metric is missing; 2 on bad usage.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configure once, then build; every tool's output goes to stderr."""
    binary = build_dir / "perfbench"
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                      str(build_dir), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", "4"])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            fail(f"build step {step[:2]} did not finish: {err}")
        if done.returncode != 0:
            fail(f"build step {' '.join(step[:2])} exited {done.returncode}")
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    spec_path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(spec_path.read_text())
    except (OSError, ValueError) as err:
        fail(f"cannot read {spec_path}: {err}")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        parser.error(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(build_dir / "perfbench")

    command = [str(binary), "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               str(args.trace)]
    if args.trace:
        traces = build_dir / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        command += ["--trace-out",
                    str(traces / f"{args.workload}-seed{args.seed}.json")]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark run exceeded {RUN_TIMEOUT_S} s")
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(f"benchmark exited {done.returncode} without a result line")

    metrics = {}
    for metric in wanted:
        name = metric["name"]
        got = result["metrics"].get(name)
        if got is None or got["unit"] != metric["unit"]:
            fail(f"metric {name!r} [{metric['unit']}] missing from the result")
        metrics[name] = got
    print("\n".join(lines[:-1]))
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
