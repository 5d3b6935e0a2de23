#!/usr/bin/env python3
"""Builds the server and the benchmark from source, then runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: line-solve, planar-solve, cached-pipelined, line-update.  Build
output goes to $CARGO_TARGET_DIR (default .bench_build), spans of traced
runs to .bench_out/.  Other flags (--smoke, --corrupt-reference) pass
through to the benchmark binary; see perfbench/README.md.
"""

import os
import subprocess
import sys


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "Cargo.toml", "-p", "maxrs", "--bin", "maxrs"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for command in builds:
        if subprocess.run(command, env=env, stdout=sys.stderr).returncode != 0:
            print("run.py: build failed: " + " ".join(command), file=sys.stderr)
            return 1
    release = os.path.join(target, "release")
    command = [os.path.join(release, "perfbench"), "--server", os.path.join(release, "maxrs")]
    return subprocess.run(command + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
