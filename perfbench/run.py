#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload chaos-600 --seed 1 --seconds 10 --trace 0

Run from the repository root. The first call configures and builds the
simulator and the perfbench program into .bench_build/perfbench; later calls
only rebuild what changed. The program's last stdout line is one JSON object;
this wrapper checks that its metric names and units are the ones
BENCHMARK.json declares for the chosen --trace mode before passing it on.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
SPANS = ROOT / ".bench_build" / "spans"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-G", "Ninja", "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            fail(f"build step failed: {' '.join(cmd)}")


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main(argv):
    if "--trace" not in argv:
        fail("missing --trace 0|1")
    trace = argv[argv.index("--trace") + 1] != "0"
    expected = expected_metrics(trace)
    build()
    cmd = [str(BUILD / "perfbench"), *argv, "--spans-dir", str(SPANS)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail(f"perfbench exited with {done.returncode}")
    result = json.loads(lines[-1])
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail(f"metrics differ from BENCHMARK.json: "
             f"missing {sorted(set(expected) - set(got))}, "
             f"extra {sorted(set(got) - set(expected))}, "
             f"unit mismatch {sorted(k for k in got if k in expected and got[k] != expected[k])}")
    sys.stdout.write(done.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
