#!/usr/bin/env python3
"""Build and run the simulator's benchmark from the root of a checkout.

    python3 perfbench/run.py --workload thrash --seed 1 --seconds 35 --trace 0

Builds perfbench/bench.exe with dune (into the checkout's _build, shared
cache off), then runs it with the same arguments. The benchmark prints its
metrics by name with their units; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.

Exits 2 without a result when the directory is not a checkout of the
simulator, and passes the build's or the benchmark's exit code on.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")


def main():
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, need)):
            print(f"run.py: {ROOT} is not a checkout of the simulator "
                  f"(no {need})", file=sys.stderr)
            return 2
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--cache=disabled",
         "--display=quiet", "./perfbench/bench.exe"],
        cwd=ROOT, stdout=sys.stderr)
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return build.returncode
    return subprocess.run([EXE] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
