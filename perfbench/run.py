#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <baseline|hostcc|fattree> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (perfbench/Cargo.toml, a workspace of its
own that depends on the simulator crates by path) in release mode into
$CARGO_TARGET_DIR, or `.bench_build` when that is unset, then runs it.
Build output goes to stderr; the last line of stdout is the benchmark's
JSON result. Exits non-zero, printing no result, when the simulator
sources are missing or the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# The run itself measures for --seconds plus one untimed reference run.
RUN_SLACK_S = 120


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "crates", "experiments", "Cargo.toml")):
        print("perfbench: simulator sources (crates/) not found under " + ROOT,
              file=sys.stderr)
        return 2

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", MANIFEST],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode

    cmd = [os.path.join(target, "release", "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    try:
        run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                             timeout=args.seconds + RUN_SLACK_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    if run.returncode != 0:
        return run.returncode
    lines = run.stdout.decode().strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if set(result) != RESULT_KEYS:
        print("perfbench: malformed result: %r" % lines[-1:], file=sys.stderr)
        return 1
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
