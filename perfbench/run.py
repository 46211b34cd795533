#!/usr/bin/env python3
"""Build the perfbench harness from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload dense --seed 1 --seconds 10 --trace 0

The harness is compiled with dune inside this source tree (output in
_build/), then executed with the given arguments; its exit code is
passed through.  Outside a full source tree it exits 2 at once.
"""

import os
import shutil
import subprocess
import sys

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def dune() -> list:
    """dune from PATH, else through opam's environment."""
    if shutil.which("dune") is None and shutil.which("opam") is not None:
        return ["opam", "exec", "--", "dune"]
    return ["dune"]


def main() -> int:
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.stderr.write(
            "perfbench: no source tree here (dune-project and lib/ are missing); "
            "run from the repository root\n"
        )
        return 2
    try:
        build = subprocess.run(
            dune() + ["build", "--root", ".", "./perfbench/main.exe"],
            stdout=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.stderr.write(f"perfbench: build failed: {e}\n")
        return 2
    if build.returncode != 0:
        return 2
    exe = os.path.join("_build", "default", "perfbench", "main.exe")
    try:
        return subprocess.run([exe] + sys.argv[1:], timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run timed out\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
