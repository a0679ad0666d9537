#!/usr/bin/env python3
"""Build and run the CSAR benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds `perfbench/` (a cargo package of
its own that depends on the repository's crates by path) in release mode
into `$CARGO_TARGET_DIR` (default `.bench_build`), then runs it with the
same arguments. The result JSON is the last line of stdout; build output
and the run's summary go to stderr. Exits non-zero, printing no result,
if the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")
BIN = "csar-perfbench"


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        print(f"run.py: cargo build failed (exit {build.returncode})", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", BIN)
    run = subprocess.run([exe] + sys.argv[1:], env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
