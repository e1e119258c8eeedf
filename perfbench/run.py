#!/usr/bin/env python3
"""Builds the benchmark from source, then runs it in place of this script.

Run from the repository root:

    python3 perfbench/run.py --workload <graph-noel|logged-el|explore-ci> \
        --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR (default `.bench_build`, relative to
the working directory); its output goes to stderr, so the benchmark's
last line of stdout stays its JSON result. A failed build exits non-zero
without printing a result.
"""

import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--quiet",
            "--manifest-path",
            os.path.join(here, "Cargo.toml"),
        ],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("benchmark build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", "vlog-perfbench")
    sys.stdout.flush()
    sys.stderr.flush()
    os.execv(exe, [exe] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
