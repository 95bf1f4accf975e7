#!/usr/bin/env python3
"""Build the in-process benchmark from source and run one workload.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload kv-point --seed 1 --seconds 10 --trace 0

The arguments go to the benchmark executable unchanged (see README.md);
`--selftest` runs only the oracles' negative self-tests.  The last line
of standard output is the run's JSON result.  Build output goes to
standard error.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "bench.exe")

# The sources the benchmark builds on; without them there is nothing to
# measure.
NEEDED = ["dune-project", os.path.join("lib", "server", "mount.ml"),
          os.path.join("perfbench", "dune")]


def main():
    missing = [p for p in NEEDED if not os.path.exists(p)]
    if missing:
        print("perfbench: run from the root of a source checkout "
              "(missing: %s)" % ", ".join(missing), file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/bench.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    return subprocess.run([EXE] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
