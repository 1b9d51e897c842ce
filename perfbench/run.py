#!/usr/bin/env python3
"""Builds the benchmark binary from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run it from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under the checkout, and so do the out-of-core store
and the Chrome trace of a traced run. Build output goes to stderr; stdout
carries the workload's report, whose last line is the JSON result. The
result is checked against BENCHMARK.json: a run that does not print exactly
the declared metrics with their units exits non-zero.
"""

import argparse
import glob
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build(build_root, env):
    build_dir = os.path.join(build_root, "perfbench")
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
    ]
    for step in steps:
        subprocess.run(step, check=True, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=BUILD_TIMEOUT_S, env=env)
    return os.path.join(build_dir, "perfbench")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_root = os.path.join(ROOT, build_root)
    work_dir = os.path.join(build_root, "work")
    # Compiler and library temporaries stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(build_root, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    os.makedirs(work_dir, exist_ok=True)
    # Stores left behind by a run that was killed.
    for stale in glob.glob(os.path.join(work_dir, "store_*")):
        shutil.rmtree(stale, ignore_errors=True)

    binary = build(build_root, env)
    run = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--work_dir", work_dir],
        stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S, env=env)
    lines = run.stdout.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    if run.returncode != 0:
        sys.exit("perfbench exited with %d" % run.returncode)

    result = json.loads(lines[-1])
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    expected = declared_metrics(args.trace == 1)
    if printed != expected:
        sys.exit("metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            sorted(set(expected) - set(printed)),
            sorted(set(printed) - set(expected))))
    print(lines[-1])


if __name__ == "__main__":
    try:
        main()
    except (subprocess.SubprocessError, OSError, ValueError, KeyError) as e:
        sys.exit("perfbench/run.py: %s" % e)
