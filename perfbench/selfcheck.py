#!/usr/bin/env python3
"""Self-check of the repository benchmark.

    python3 perfbench/selfcheck.py [--workload lenet-batch] [--seconds 1]

Run from the repository root. On one workload it checks that:
  1. --trace 0 prints exactly the end_to_end metrics of BENCHMARK.json and
     --trace 1 exactly its per_layer metrics, each with the declared unit,
     with correct outputs and no failed image;
  2. two runs with one seed print identical deterministic counts and
     product_bits_per_img;
  3. --corrupt-logit, which flips one bit of a planned logit, makes the run
     report correct=false and a non-zero failed count (error_rate > 0).
Exits 0 when every check passes, 1 otherwise.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, seed, seconds, trace, extra=()):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError("%s exited with %d" % (" ".join(cmd), proc.returncode))
    lines = [json.loads(line) for line in proc.stdout.strip().splitlines()]
    return lines[:-1], lines[-1]


def info(lines, key):
    return next(line[key] for line in lines if key in line)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", default="lenet-batch")
    parser.add_argument("--seconds", type=int, default=1)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = []

    def expect(cond, what):
        print(("ok   " if cond else "FAIL ") + what)
        if not cond:
            failures.append(what)

    runs = {}
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        lines, result = run(args.workload, 7, args.seconds, trace)
        runs[trace] = (lines, result)
        declared = {m["name"]: m["unit"] for m in bench[section]}
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        expect(set(result) == {"correct", "attempted", "failed", "metrics"},
               "trace %d result has exactly the contract keys" % trace)
        expect(printed == declared,
               "trace %d metric names and units match %s" % (trace, section))
        expect(result["correct"] and result["failed"] == 0 and
               result["attempted"] > 0,
               "trace %d outputs match the scalar oracle" % trace)

    lines, result = run(args.workload, 7, args.seconds, 0)
    first_lines, first = runs[0]
    expect(info(lines, "deterministic_pass") ==
           info(first_lines, "deterministic_pass") and
           result["metrics"]["product_bits_per_img"] ==
           first["metrics"]["product_bits_per_img"],
           "deterministic counts repeat exactly across runs")

    _, corrupt = run(args.workload, 7, args.seconds, 0, ["--corrupt-logit"])
    expect(not corrupt["correct"] and corrupt["failed"] > 0,
           "a corrupted logit surfaces as a non-zero error_rate (%d/%d)" %
           (corrupt["failed"], corrupt["attempted"]))

    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
