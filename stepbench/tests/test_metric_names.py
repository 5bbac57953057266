#!/usr/bin/env python3
"""The metrics the benchmark prints match BENCHMARK.json exactly.

    python3 stepbench/tests/test_metric_names.py <path to the stepbench binary>

Compares the binary's --list-metrics table (names, units, order) with the
end_to_end and per_layer lists of BENCHMARK.json, and checks every name
against the metric-name grammar.
"""
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def main():
    table = json.loads(subprocess.run([sys.argv[1], "--list-metrics"], check=True,
                                      capture_output=True, text=True).stdout)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    errors = []
    for kind in ("end_to_end", "per_layer"):
        printed = [(m["name"], m["unit"]) for m in table[kind]]
        declared = [(m["name"], m["unit"]) for m in bench[kind]]
        if printed != declared:
            errors.append(f"{kind}: printed {printed} but BENCHMARK.json declares {declared}")
        errors += [f"{kind}: bad name {n!r}" for n, _ in printed if not NAME.fullmatch(n)]
    for e in errors:
        print(e, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
