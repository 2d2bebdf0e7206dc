#!/usr/bin/env python3
"""Build the harvsim benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <table2|explore|serve> \
        --seed <n> --seconds <s> --trace <0|1>

The benchmark is a cargo package of its own (perfbench/Cargo.toml) that
depends on the harvsim crates by path. It is built in release mode into
$CARGO_TARGET_DIR (default: .bench_build), then run from the repository root.
Build output goes to standard error; the benchmark's last line of standard
output is its JSON result. Any build or run failure exits non-zero.
"""

import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(root, ".bench_build")))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(here, "Cargo.toml"),
        ],
        cwd=root,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "perfbench")
    run = subprocess.run([binary, *sys.argv[1:]], cwd=root, env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
