#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload closed_frontier --seed 1 --seconds 40 --trace 0

Builds the release `served` binary from the repository workspace and the
`perfbench` binary from its own package, both into $CARGO_TARGET_DIR
(default `.bench_build`), then runs the benchmark with the given arguments
and the path of the `served` binary. The benchmark's last stdout line is
the JSON summary. Exits non-zero, without a summary, if either build fails.
"""

import os
import subprocess
import sys


def main() -> int:
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "served", "--bin", "served"],
        [
            "cargo", "build", "--release", "--offline", "--quiet",
            "--manifest-path", os.path.join("perfbench", "Cargo.toml"),
        ],
    ]
    for command in builds:
        # Build output goes to stderr so stdout carries only the benchmark's lines.
        if subprocess.run(command, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(command), file=sys.stderr)
            return 1
    bench = os.path.join(target, "release", "perfbench")
    served = os.path.join(target, "release", "served")
    out = os.path.join("perfbench", "out")
    return subprocess.run([bench, *sys.argv[1:], "--served", served, "--out", out]).returncode


if __name__ == "__main__":
    sys.exit(main())
