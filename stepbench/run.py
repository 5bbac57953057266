#!/usr/bin/env python3
"""Step benchmark entry point.

    python3 stepbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the library and the stepbench driver
from source into .bench_build/stepbench (incrementally after the first
run), runs one workload in its own process, checks that the printed
metrics are exactly the ones BENCHMARK.json declares for the chosen kind
(end_to_end for --trace 0, per_layer for --trace 1), and prints the result
object as the last line of standard output. Run records and traced spans
go to .bench_out/. Exits non-zero without a result when the sources are
missing, the build fails, the run fails or its output does not match.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "stepbench")
OUT = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD, "stepbench")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"stepbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"the library sources are missing ({needed} not found in {ROOT})")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "--target", "stepbench", "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-20000:])
            fail("build failed: " + " ".join(cmd))


def check_result(line, trace):
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        fail(f"last line is not JSON: {line!r}")
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys are not correct/attempted/failed/metrics: {line!r}")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}, units {units}")
    if result["attempted"] < 1:
        fail("no operation was attempted")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out-dir", OUT]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        fail(f"{args.workload} exited with code {done.returncode}")
    check_result(lines[-1], args.trace)
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
