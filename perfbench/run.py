#!/usr/bin/env python3
"""Build the benchmark from the checkout's sources, run one workload, and
check its result line against BENCHMARK.json.

    python3 perfbench/run.py --workload fleet --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout. The program is built with dune into
the checkout's _build directory; a traced run (--trace 1) also writes its
last repetition's spans to perfbench/_spans/. Exits non-zero, without a
result line, when the checkout cannot be built or the result does not
match the metric catalogue.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
WORKLOADS = ["fleet", "fleet-durable", "tweetpecker"]
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def commit_id():
    if not os.path.isdir(os.path.join(ROOT, ".git")) or shutil.which("git") is None:
        return "unknown"
    out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build():
    for needed in ("dune-project", "lib", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} missing: run from the root of a full checkout")
    if shutil.which("dune") is None:
        fail("dune not found on PATH")
    # dune's progress output goes to stderr; stdout carries only the result
    proc = subprocess.run(["dune", "build", "--root", ROOT, "./perfbench/perfbench.exe"],
                          cwd=ROOT, stdout=sys.stderr)
    if proc.returncode != 0:
        fail("build failed")


def check(result, trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys differ from correct/attempted/failed/metrics"
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if result["correct"] and got != declared:
        missing = sorted(set(declared) - set(got))
        extra = sorted(set(got) - set(declared))
        return f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}"
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()

    build()
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", commit_id()]
    if args.trace:
        cmd += ["--spans-dir", os.path.join(HERE, "_spans")]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = out.strip().splitlines()
    if not lines:
        fail(f"no output (exit code {proc.returncode})")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("last output line is not JSON")
    problem = check(result, args.trace)
    if problem:
        fail(problem)
    print(out, end="")
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
