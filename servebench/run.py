#!/usr/bin/env python3
"""Build and run the serving benchmark for one workload.

Run from the repository root:

    python3 servebench/run.py --workload hot_cache --seed 1 --seconds 10 --trace 0

Builds `servebench` (release, offline) into $CARGO_TARGET_DIR (default
`.bench_build`), runs it, and passes its output through: the last stdout
line is the JSON result. Build output goes to stderr. Exits non-zero
without a result when the build or the run fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["attribution", "hot_cache", "cluster", "valuation"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target, CARGO_NET_OFFLINE="true")
    # glibc otherwise opens malloc arenas on demand as threads contend,
    # which makes peak RSS depend on scheduling rather than on the program.
    env.setdefault("MALLOC_ARENA_MAX", "2")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("servebench: build failed", file=sys.stderr)
        return build.returncode or 1

    exe = os.path.join(target, "release", "servebench")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out-dir", os.path.join(target, "servebench")]
    try:
        run = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"servebench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
